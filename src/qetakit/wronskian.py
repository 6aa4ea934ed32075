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
* every entry is ``lambda_j M_j``: a rational scalar times a primitive
  map (coprime int numerators, a positive one at the entry's declared
  leading exponent).  Most of an entry's size is a common
  Vandermonde-type factor, so the scalars take it and only the primitive
  parts are multiplied and divided: step d computes ``X = M_d theta M_j -
  M_j theta M_d`` as one two-pair product read back once, divides it by
  ``M_(d-1)`` by integer long division into ``Q / e`` (see
  :func:`qetakit.series._quotient_numerators`) and takes the content c
  of ``Q`` out, so that ``lambda_j <- lambda_d lambda_j c / (D e
  lambda_(d-1))``.  The division is exact, as in Bareiss'
  integer-preserving elimination (Math. Comp. 22, 1968): by the identity
  above the quotient is again a minor, so its numerators are as narrow as
  the entries', where the inverse of ``M_(d-1)`` has numerators about ten
  times wider; ``e`` is 1 unless the contents taken out leave the
  quotient an integer map over a constant.  The result is ``lambda_(k-1)
  M_(k-1)``, the very series the whole entries give.  No scalar but that
  one is ever needed, and it telescopes: each step multiplies by its
  pivot's scalar over the previous pivot's, so ``lambda_(k-1)`` is the
  product of the column scalars and of every content taken out, over
  ``D^(k(k-1)/2)`` and every ``e``.  It is kept as one unreduced integer
  pair and reduced once, at the end; that pair grows with the result
  (about twice its reduced size at k = 78), where unreduced scalars kept
  per entry would grow exponentially in k;
* the divisor ``W(f_1..f_(d-1))`` starts at ``q^(l_1 + ... + l_(d-1))``
  with the Vandermonde of ``l_1, ..., l_(d-1)`` times the leading
  coefficients: nonzero, because the ``l_i`` are distinct.  So every
  divisor has a nonzero term at key 0 to divide by, the pivots of steps 0
  to k - 3 divide ((k-1)(k-2)/2 divisions in all, none of them an
  inversion), and a divisor that starts elsewhere is a broken invariant,
  not a bad input.

Step d takes one fused two-pair product per later entry and, from step 1
on, one exact division of it: k(k-1) product pairs in all, where
elimination of the full derivative matrix takes O(k^3) products.  With ``R
= min_i (P_i - l_i)``, ``V_d(j)`` starts at or above ``l_1 + ... + l_d +
l_j`` and is exact below that plus R: products add leading exponents and
keep R, theta keeps both, and so does a division by a divisor that starts
at its own leading exponent, because the quotient's term at key m is
``(x_m - sum_(i>=1) c_i q_(m-i)) / c_0``, which reads the dividend and the
divisor at keys up to m only.  So the result is exact below ``sum_i l_i +
min_i (P_i - l_i)``, a bound known before any work runs: column i built
to ``l_i + R``, its own leading exponent plus the headroom, is all that
the recursion reads of it.  That is why the recursion needs no series and
no precision arithmetic between its input and its output: every entry is
a bare ``key -> int`` map on the lcm grid ``1/D`` of the columns, keyed
from its own leading offset (an int, ``D`` times its declared leading
exponent), and every map is cut at the same last key,
``ceil(R D) - 1``; ``theta`` multiplies key i by ``offset + i`` and leaves
the ``1/D`` to the scalar.  Step d moves every later entry up by the
same ``l_d``, the pivot column's own leading exponent, so entry j sits at
its column's offset plus one running sum ``D (l_1 + ... + l_d)``, the
only offset the recursion updates.  The columns and their derivatives
are read into these maps by the series' own grid view,
:meth:`QSeries._on_grid`; only the input columns' derivatives come from
:meth:`QSeries.theta_derive`.

The independent oracles (Bareiss elimination of the full derivative
matrix, the subset-minor and Vandermonde term expansions of the same
determinant, and a rational Gaussian elimination for scalar matrices) live
with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from math import gcd, lcm

from .rationals import Rational, largest_int_below
from .series import QSeries, _products, _quotient_numerators


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
    leading exponent, whose leading coefficients are read only then; a
    column may end up zero up to its precision."""
    columns = []
    column_at = {}
    for y in entries:
        low = y._low_exponent()
        while not y.is_zero and low in column_at:
            x = columns[column_at[low]]
            y = y - x * (y.lowest_term()[1] / x.lowest_term()[1])
            low = y._low_exponent()
        if not y.is_zero:
            column_at[low] = len(columns)
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
    into ``W(f_0..f_p, f_j)`` from ``W(f_0..f_(p-1), f_j)`` by one fused
    two-pair product and, from step 1 on, one exact long division by the
    primitive map of the pivot of step p - 1 (k(k-1) product pairs and
    (k-1)(k-2)/2 divisions; nothing is inverted).  Every entry is a
    primitive key -> int map on one grid, cut at one last key ``cap``: a
    quotient's key m reads its inputs at keys up to m only, so products
    and divisions of maps cut at ``cap`` are exact up to ``cap``.  The
    entries' scalars telescope into one integer pair ``num / den``: the
    column contents and every content taken out, over the column
    denominators, ``D^(k(k-1)/2)`` and every ``e``; each column's own
    scalar is kept as the int pair ``(content, denominator)``.  At step p
    entry j sits at its column's offset plus ``base``, the sum of the
    column offsets of the pivots before p."""
    k = len(columns)
    D = lcm(*(y.grid_denominator for y in columns))
    headroom = min(y.precision - low for y, low in zip(columns, lows))
    cap = largest_int_below(headroom * D)
    offsets = [y.offset * (D // y.grid_denominator) for y in columns]
    num, den = 1, D ** (k * (k - 1) // 2)
    scalars, v = [], []
    for y, origin in zip(columns, offsets):
        content, m = _primitive(y._on_grid(D, origin, cap))
        scalars.append((content, y._den))
        num *= content
        den *= y._den
        v.append(m)

    def theta(j):
        # D theta of entry j's map, whose key i sits at (offset + i)/D; at
        # step 0 it is read from the column's own derivative and rescaled
        # from that series' denominator to the column scalar over D, the
        # one use of the column scalars: the quotients are exact
        a = offsets[j] + base
        if p:
            return {i: c * (a + i) for i, c in v[j].items() if a + i}
        dy = columns[j].theta_derive()
        content, y_den = scalars[j]
        r, s = D * y_den, dy._den * content
        t = dy._on_grid(D, a, cap)
        if r == s:
            return t
        return {i: c * r // s for i, c in t.items()}

    base = 0
    for p in range(k - 1):
        pivot = v[p]
        if p and 0 not in v[p - 1]:
            raise AssertionError(
                f"divisor {p} does not start at q^{Rational(base, D)}")
        minus_d_pivot = {i: -c for i, c in theta(p).items()}
        for j in range(p + 1, k):
            pairs = [(xs, ys) for xs, ys in ((pivot, theta(j)),
                                             (v[j], minus_d_pivot))
                     if xs and ys]
            x = _products(pairs, cap) if pairs else {}
            if p:
                x, d = _quotient_numerators(x, v[p - 1], cap)
                den *= d
            content, v[j] = _primitive(x)
            num *= content
        base += offsets[p]
    return Rational(num, den), QSeries._from_numerators(
        D, offsets[k - 1] + base, v[k - 1], 1, sum(lows) + headroom)


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
