"""Wronskian and Vandermonde machinery over exact truncated series.

The Wronskian here always uses the multiplicative derivative q d/dq.  It is
evaluated by fraction-free (Bareiss) elimination in O(k^3) series products:

* columns that share a leading exponent are reduced against each other,
  ``y_j <- y_j - (c_j/c_i) y_i`` (a determinant-one column operation), until
  every column has its own leading exponent ``l_i``;
* writing ``y_i = q^(l_i) g_i``, row r of column i is ``(theta + l_i)^r g_i``,
  so the constant terms form a Vandermonde matrix in the distinct ``l_i`` and
  every elimination step finds a pivot with a nonzero constant term, a unit
  of the series ring;
* each step after the first divides exactly by the previous pivot through
  one ``invert()`` (k - 2 in all), and
  ``W = +-(last pivot) * q^(l_1 + ... + l_k)``.

Entries never start below q^0, so every product keeps the smaller relative
precision ``P_i - l_i`` of its factors and the result is exact below
``sum_i l_i + min_i (P_i - l_i)``, a bound known before any work runs
(:func:`wronskian_entry_precision` inverts it).  The independent oracle
:func:`wronskian_vandermonde_expand` recomputes the same determinant as a
direct multi-sum over term tuples weighted by Vandermonde factors.
"""

from __future__ import annotations

from .rationals import Rational, rational
from .series import QSeries


def vandermonde(values):
    """Product of pairwise differences ``prod_{j<i}(x_i - x_j)``; 1 for k <= 1."""
    xs = list(values)
    result = Rational(1)
    for i in range(1, len(xs)):
        xi = xs[i]
        for j in range(i):
            result *= xi - xs[j]
            if not result:
                return result
    return result


def theta_derivative_rows(entries, depth):
    """Rows of successive q d/dq derivatives: row r is the r-th derivative."""
    rows = [list(entries)]
    for _ in range(depth - 1):
        rows.append([y.theta_derive() for y in rows[-1]])
    return rows


def _fraction_free_determinant(matrix, is_pivot, inverse):
    """Determinant by Bareiss elimination with partial pivoting.

    Step p takes the first row at or below p whose entry in column p passes
    ``is_pivot`` and replaces the trailing block by 2x2 minors divided by
    the previous pivot, multiplying by ``inverse(previous pivot)``; every
    entry is a minor of the input, so the division is exact.  The last
    pivot divides nothing, so it is never inverted: a k x k determinant
    takes k - 2 inverses.  Returns None when some step finds no pivot.
    """
    a = [list(row) for row in matrix]
    k = len(a)
    negate = False
    previous = None
    for p in range(k - 1):
        r = next((r for r in range(p, k) if is_pivot(a[r][p])), None)
        if r is None:
            return None
        if r != p:
            a[p], a[r] = a[r], a[p]
            negate = not negate
        pivot_row = a[p]
        pivot = pivot_row[p]
        scale = None if previous is None else inverse(previous)
        for row in a[p + 1:]:
            lead = row[p]
            for j in range(p + 1, k):
                x = pivot * row[j] - lead * pivot_row[j]
                row[j] = x if scale is None else x * scale
        previous = pivot
    det = a[k - 1][k - 1]
    return -det if negate else det


def _has_constant_term(y):
    # on series without negative exponents: a unit of the series ring
    lead = y.lowest_term()
    return lead is not None and lead[0] == 0


def _distinct_leading_exponents(entries):
    """Columns with pairwise distinct leading exponents and the same
    Wronskian: each column is reduced against earlier ones with the same
    leading exponent; a column may end up zero up to its precision."""
    columns = []
    column_at = {}
    for y in entries:
        lead = y.lowest_term()
        while lead is not None and lead[0] in column_at:
            x = columns[column_at[lead[0]]]
            y = y - x * (lead[1] / x.lowest_term()[1])
            lead = y.lowest_term()
        if lead is not None:
            column_at[lead[0]] = len(columns)
        columns.append(y)
    return columns


def wronskian(entries):
    """Determinant of the q d/dq derivative matrix of the given series,
    exact below ``sum_i l_i + min_i (P_i - l_i)`` for entries with leading
    exponents ``l_i`` and precisions ``P_i``."""
    entries = list(entries)
    k = len(entries)
    if k == 0:
        raise ValueError("wronskian needs at least one series")
    if k == 1:
        return entries[0]
    columns = _distinct_leading_exponents(entries)
    # a zero column counts as starting at its precision bound, so W is known
    # to vanish below the sum of the leading exponents
    lows = [y._low_exponent() for y in columns]
    total_low = sum(lows, Rational(0))
    if any(y.is_zero for y in columns):
        return QSeries.zero(total_low)
    rows = [[y.shift(-low) for y, low in zip(row, lows)]
            for row in theta_derivative_rows(columns, k)]
    det = _fraction_free_determinant(rows, _has_constant_term, QSeries.invert)
    return det.shift(total_low)


def wronskian_entry_precision(lows, order):
    """Common precision at which series with leading exponents at least
    ``lows`` have a Wronskian exact below ``order``.

    Inverts the bound ``sum(lows) + min_i (P - lows[i])`` of
    :func:`wronskian`; raising any leading exponent never lowers that bound,
    so lower bounds are safe.  ``order`` must exceed ``sum(lows)``, the
    leading exponent of the Wronskian.
    """
    lows = [rational(x) for x in lows]
    order = rational(order)
    total = sum(lows, Rational(0))
    if not order > total:
        raise ValueError(f"order {order} must exceed the Wronskian's "
                         f"leading exponent {total}")
    return order - total + max(lows)


def wronskian_vandermonde_expand(entries):
    """The same Wronskian as a direct sum over one term from each series.

    Each choice of exponents (e_1, ..., e_k) contributes the Vandermonde of
    the exponents times the product of the chosen coefficients at
    ``q^(e_1+...+e_k)``.  Serves as the independent oracle for
    :func:`wronskian`.
    """
    entries = list(entries)
    k = len(entries)
    if k == 0:
        raise ValueError("wronskian needs at least one series")
    lows = [y._low_exponent() for y in entries]
    total_low = sum(lows, Rational(0))
    bound = min(y.precision - low for y, low in zip(entries, lows)) + total_low
    if any(y.is_zero for y in entries):
        return QSeries.zero(bound)
    term_lists = [y.terms() for y in entries]
    suffix_low = [Rational(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_low[i] = suffix_low[i + 1] + lows[i]
    acc = {}
    chosen_e = [None] * k
    chosen_c = [None] * k

    def descend(i, partial):
        if i == k:
            weight = vandermonde(chosen_e)
            if weight:
                for c in chosen_c:
                    weight *= c
                acc[partial] = acc.get(partial, Rational(0)) + weight
            return
        for e, c in term_lists[i]:
            if not partial + e + suffix_low[i + 1] < bound:
                break
            chosen_e[i] = e
            chosen_c[i] = c
            descend(i + 1, partial + e)

    descend(0, Rational(0))
    return QSeries.from_terms(acc.items(), bound)


def abel_log_derivative_check(entries, expected_f1, order):
    """Check the first-coefficient consequence of the first-order reduction:
    ``theta(W) + f1 * W = 0`` below the given order.

    ``entries`` must carry enough precision for the comparison; a vector
    whose Wronskian vanishes up to precision is rejected.
    """
    w = wronskian(entries)
    if w.is_zero:
        raise ValueError("degenerate fundamental system: Wronskian is zero "
                         "up to its precision")
    residual = w.theta_derive() + expected_f1 * w
    return residual.equal_up_to(QSeries.zero(order), order)


def scale_by_matrix(matrix, entries):
    """Entrywise rational linear combinations: row i of the result is
    ``sum_j matrix[i][j] * entries[j]``."""
    entries = list(entries)
    k = len(entries)
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ValueError(f"matrix must be {k}x{k}")
    out = []
    for row in matrix:
        acc = None
        for coeff, y in zip(row, entries):
            term = y._scale(coeff)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def matrix_determinant(matrix):
    """Exact determinant of a square rational matrix (fraction-free
    elimination, as in :func:`wronskian`)."""
    k = len(matrix)
    if k == 0:
        return Rational(1)
    if any(len(row) != k for row in matrix):
        raise ValueError(f"matrix must be {k}x{k}")
    det = _fraction_free_determinant(
        [[rational(x) for x in row] for row in matrix], bool, lambda x: 1 / x)
    return Rational(0) if det is None else det
