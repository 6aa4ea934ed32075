"""Wronskian and Vandermonde machinery over exact truncated series.

The Wronskian here always uses the multiplicative derivative q d/dq.  It is
evaluated in O(k^2) series products by the fraction-free recursion that the
Sylvester (Jacobi) identity for Wronskians gives,
``W(W(f_1..f_d, g), W(f_1..f_d, h)) = W(f_1..f_d) W(f_1..f_d, g, h)``:

* columns that share a leading exponent are reduced against each other,
  ``y_j <- y_j - (c_j/c_i) y_i`` (a determinant-one column operation), until
  every column has its own leading exponent ``l_i``;
* ``V_0(j) = f_j``, and step d turns every later entry into
  ``V_d(j) = (V_(d-1)(d) theta V_(d-1)(j) - V_(d-1)(j) theta V_(d-1)(d))
  / V_(d-2)(d-1)``, so ``V_d(j) = W(f_1..f_d, f_j)`` and
  ``W = V_(k-1)(k)``.  Every entry is an exact Wronskian of d + 1 inputs,
  so numerators stay as small as the minors of Bareiss elimination;
* every entry is kept as ``lambda_j M_j``: a reduced ``Rational`` scalar
  times a primitive map (coprime int numerators, a positive one at the
  entry's declared leading exponent).  Most of an entry's size is a common
  Vandermonde-type factor, so the scalars take it and only the primitive
  parts are multiplied and inverted: step d computes ``X = M_d theta M_j -
  M_j theta M_d`` as one two-pair product read back once, multiplies it by
  the primitive part of ``M_(d-1)^(-1)`` and takes the content of the
  result out again; the scalar takes the rest, ``lambda_j <- lambda_d
  lambda_j c / (D lambda_(d-1))`` with c the (rational) contents taken out
  of the inverse and the result.  The result is ``lambda_(k-1) M_(k-1)``,
  the very series the whole entries give.  The scalars are reduced at
  every step: kept as unreduced integer pairs they grow exponentially in
  k;
* the divisor ``W(f_1..f_(d-1))`` starts at ``q^(l_1 + ... + l_(d-1))``
  with the Vandermonde of ``l_1, ..., l_(d-1)`` times the leading
  coefficients: nonzero, because the ``l_i`` are distinct.  So every
  divisor is invertible, each division is one product with one integer
  back-substitution (k - 2 in all), and a divisor that starts elsewhere is
  a broken invariant, not a bad input.

Step d takes three products per later entry (two of them fused),
3k(k-1)/2 - (k-1) in all, where elimination of the full derivative matrix
takes O(k^3).  With ``R = min_i (P_i - l_i)``, ``V_d(j)`` starts at or above
``l_1 + ... + l_d + l_j`` and is exact below that plus R: products add
leading exponents and keep R, theta keeps both, and the inverse of a
divisor that starts at S is exact below R - S.  So the result is exact
below ``sum_i l_i + min_i (P_i - l_i)``, a bound known before any work runs
(:func:`wronskian_entry_precision` inverts it).  That is why the recursion
needs no series and no precision arithmetic between its input and its
output: every entry is a bare ``key -> int`` map on the lcm grid ``1/D`` of
the columns, keyed from its own leading offset (an int, ``D`` times its
declared leading exponent), and every map is cut at the same last key,
``ceil(R D) - 1``; ``theta`` multiplies key i by ``offset + i`` and leaves
the ``1/D`` to the scalar.  The columns and their derivatives are read
into these maps by the series' own grid view, :meth:`QSeries._on_grid`;
only the input columns' derivatives come from :meth:`QSeries.theta_derive`.

The independent oracles (Bareiss elimination of the full derivative
matrix, the subset-minor and Vandermonde term expansions of the same
determinant, and a rational Gaussian elimination for scalar matrices) live
with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import gcd, lcm

from .rationals import Rational, largest_int_below, order_above, rational
from .series import QSeries, _inverse_numerators, _products


def vandermonde(values):
    """Product of pairwise differences ``prod_{j<i}(x_i - x_j)``: an int
    for ints, a Rational for Rationals; 1 for k <= 1."""
    xs = list(values)
    result = 1
    for i in range(1, len(xs)):
        xi = xs[i]
        for j in range(i):
            result *= xi - xs[j]
            if not result:
                return result
    return result


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


def _primitive(num):
    """``(c, m)`` with ``num == c * m`` for a key -> int map: ``m`` has
    coprime values, positive at key 0 if it has one; ``(1, num)`` for an
    empty map."""
    if not num:
        return 1, num
    c = gcd(*num.values())
    if num.get(0, 0) < 0:
        c = -c
    return c, num if c == 1 else {i: v // c for i, v in num.items()}


def _jacobi_recursion(columns, lows):
    """``(c, m)`` with ``c * m`` the Wronskian of nonzero columns with the
    distinct leading exponents ``lows``: step p turns every later entry
    into ``W(f_0..f_p, f_j)`` from ``W(f_0..f_(p-1), f_j)``, dividing by
    the pivot of step p - 1 through its inverse; the last pivot divides
    nothing (k - 2 inverses).  Every entry is kept as a reduced scalar
    times a primitive key -> int map on one grid, cut at one last key."""
    k = len(columns)
    D = lcm(*(y.grid_denominator for y in columns))
    headroom = min(y.precision - low for y, low in zip(columns, lows))
    cap = largest_int_below(headroom * D)
    offsets = [y.offset * (D // y.grid_denominator) for y in columns]
    scalars, v = [], []
    for y, origin in zip(columns, offsets):
        content, m = _primitive(y._on_grid(D, origin, cap))
        scalars.append(Rational(content, y._den))
        v.append(m)

    def theta(j):
        # D theta of entry j's map, whose key i sits at (offset + i)/D; at
        # step 0 it is read from the column's own derivative and rescaled
        # from that series' denominator to the column's lambda_j / D
        a = offsets[j]
        if p:
            return {i: c * (a + i) for i, c in v[j].items() if a + i}
        dy = columns[j].theta_derive()
        r = D / (dy._den * scalars[j])
        t = dy._on_grid(D, a, cap)
        if r == 1:
            return t
        return {i: c * r.numerator // r.denominator for i, c in t.items()}

    low = Rational(0)
    for p in range(k - 1):
        pivot = v[p]
        ratio = scalars[p] / D
        shift = offsets[p]
        inverse = None
        if p:
            divisor = v[p - 1]
            if 0 not in divisor:
                raise AssertionError(f"divisor {p} does not start at q^{low}")
            inverse, scale = _inverse_numerators(divisor, cap + 1)
            content, inverse = _primitive(inverse)
            ratio *= Rational(content, scale) / scalars[p - 1]
            shift -= offsets[p - 1]
        low += lows[p]
        minus_d_pivot = {i: -c for i, c in theta(p).items()}
        for j in range(p + 1, k):
            pairs = [(xs, ys) for xs, ys in ((pivot, theta(j)),
                                             (v[j], minus_d_pivot))
                     if xs and ys]
            x = _products(pairs, cap) if pairs else {}
            if inverse is not None and x:
                x = _products([(x, inverse)], cap)
            content, v[j] = _primitive(x)
            scalars[j] *= ratio * content
            offsets[j] += shift
    return scalars[k - 1], QSeries._from_numerators(
        D, offsets[k - 1], v[k - 1], 1, sum(lows, Rational(0)) + headroom)


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
    if any(y.is_zero for y in columns):
        return QSeries.zero(sum(lows, Rational(0)))
    scalar, part = _jacobi_recursion(columns, lows)
    return part * scalar


def wronskian_entry_precision(lows, order):
    """Common precision at which series with leading exponents at least
    ``lows`` have a Wronskian exact below ``order``.

    Inverts the bound ``sum(lows) + min_i (P - lows[i])`` of
    :func:`wronskian`; raising any leading exponent never lowers that bound,
    so lower bounds are safe.  ``order`` must exceed ``sum(lows)``, the
    leading exponent of the Wronskian.
    """
    lows = [rational(x) for x in lows]
    total = sum(lows, Rational(0))
    return order_above(order, total) - total + max(lows)


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
