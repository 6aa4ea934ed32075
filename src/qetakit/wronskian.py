"""Wronskian and Vandermonde machinery over exact truncated series.

The Wronskian here always uses the multiplicative derivative q d/dq.  It is
evaluated by fraction-free (Bareiss) elimination in O(k^3) series products:

* columns that share a leading exponent are reduced against each other,
  ``y_j <- y_j - (c_j/c_i) y_i`` (a determinant-one column operation), until
  every column has its own leading exponent ``l_i``;
* writing ``y_i = q^(l_i) g_i``, row r of column i is ``(theta + l_i)^r g_i``,
  whose constant term is ``l_i^r g_i(0)``.  The p-th Bareiss pivot is the
  leading p x p minor, so its constant term is the Vandermonde of
  ``l_1, ..., l_p`` times ``g_1(0) ... g_p(0)``: nonzero, because the
  ``l_i`` are distinct.  Every pivot is therefore a unit of the series
  ring, the elimination never searches for a pivot or exchanges rows, and
  a pivot without a constant term is a broken invariant, not a bad input;
* each step after the first divides exactly by the previous pivot through
  one integer ``invert()`` (k - 2 in all), and
  ``W = (last pivot) * q^(l_1 + ... + l_k)``.

Entries never start below q^0, so every product keeps the smaller relative
precision ``P_i - l_i`` of its factors and the result is exact below
``sum_i l_i + min_i (P_i - l_i)``, a bound known before any work runs
(:func:`wronskian_entry_precision` inverts it).  The independent oracles
(the subset-minor and Vandermonde term expansions of the same determinant,
and a rational Gaussian elimination for scalar matrices) live with the
tests, in ``tests/oracles.py``.
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


def _bareiss_determinant(matrix):
    """Determinant of a square matrix of series whose leading principal
    minors all have a constant term, by Bareiss elimination without row
    exchanges: step p replaces the trailing block by 2x2 minors divided by
    the previous pivot, multiplying by its inverse; every entry is a minor
    of the input, so the division is exact.  The last pivot divides
    nothing, so it is never inverted: a k x k determinant takes k - 2
    inverses."""
    a = [list(row) for row in matrix]
    k = len(a)
    for p in range(k - 1):
        pivot_row = a[p]
        pivot = pivot_row[p]
        if pivot.is_zero or pivot.offset:
            raise AssertionError(f"Bareiss pivot {p} has no constant term")
        scale = a[p - 1][p - 1].invert() if p else None
        for row in a[p + 1:]:
            lead = row[p]
            for j in range(p + 1, k):
                x = pivot * row[j] - lead * pivot_row[j]
                row[j] = x if scale is None else x * scale
    return a[k - 1][k - 1]


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
    return _bareiss_determinant(rows).shift(total_low)


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
