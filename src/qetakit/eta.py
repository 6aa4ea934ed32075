"""Builders for the classical named q-series.

Everything here is an exact truncated expansion: the Dedekind eta function
``q^(1/24) * prod(1 - q^i)``, its cube-identity sum side, the weight-two
quasimodular Eisenstein series, and Weber's three half-integer product
functions.  Eta and its cube are unary theta series
``sum_(v >= 1) sign(v mod M) * v^delta * q^(v^2/S)`` (:func:`unary_theta`):
Euler's pentagonal sum is ``chi_12(v) q^(v^2/24)`` with O(sqrt(order))
terms and no product, and Jacobi's cube sum is the weighted
``(-1)^((v-1)/2) v q^(v^2/8)`` over odd v.  A power ``eta^m`` with m >= 2
comes from Euler's power recurrence (J. C. P. Miller's formula) on the
pentagonal numerators, in ints and with no series product; repeated
squaring of eta is its test oracle.  The residue-class windows of
:func:`theta_window` also build the chi-form numerators of
:mod:`qetakit.minimal_models` and the lattice sums of
:mod:`qetakit.identities`.  The binomial product :func:`euler_product` is
kept as the independent side of the ``euler`` identity, and Weber's
products stay products.  Both binomial products are built as balanced
product trees, binomial times binomial at the leaves and long times long
above them.  Every infinite sum or product is cut at the analytically
forced bound: the first omitted factor or summand cannot touch any
exponent below the requested order, so all reported coefficients are
exact.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import isqrt

from .rationals import Rational, largest_int_below, order_above, rational
from .series import PrecisionError, QSeries

ETA_EXPONENT = Rational(1, 24)
WEBER_F_EXPONENT = Rational(-1, 48)
WEBER_F2_EXPONENT = Rational(1, 24)

#: chi_12: the sign of v mod 12 in Euler's pentagonal sum for eta.
_CHI_12 = {1: 1, 11: 1, 5: -1, 7: -1}
#: The sign of v mod 4 in Jacobi's cube sum for eta^3 (odd v only).
_CUBE_SIGNS = {1: 1, 3: -1}

def theta_window(modulus, signs, cap):
    """The picks ``(v^2, v, sign, v^2)`` of every v >= 1 whose residue mod
    ``modulus`` has a sign in the residue -> +-1 map ``signs`` and whose
    square is at most the integer ``cap``, in ascending order: one
    coordinate's window of a lattice tuple walk, and the terms of
    :func:`unary_theta`."""
    top = isqrt(max(cap, 0))
    return sorted((v * v, v, sign, v * v) for r, sign in signs.items()
                  for v in range(r or modulus, top + 1, modulus))


def unary_theta(modulus, signs, scale, precision, *, weighted=False):
    """``sum_(v >= 1) signs[v mod modulus] * v^delta * q^(v^2/scale)``,
    with delta 1 when ``weighted`` and 0 otherwise, over the v of
    :func:`theta_window`; exact below ``precision``."""
    P = rational(precision)
    window = theta_window(modulus, signs, largest_int_below(P * scale))
    num = {square: sign * v if weighted else sign
           for square, v, sign, _ in window}
    return QSeries._from_numerators(scale, 0, num, 1, P)


def _binomial_product(grid, steps, sign, precision):
    """``prod_n (1 + sign q^(n/grid))`` over the positive ``steps``, exact
    below ``precision``; PrecisionError unless every step lies below it.

    The factors are multiplied pairwise, level by level, as a balanced
    product tree: the leaves are binomial times binomial, and the upper
    levels are long times long, which the Kronecker kernel multiplies.
    Every factor starts at q^0, so each product is exact below
    ``precision`` and the tree gives the same series as a left fold.
    """
    P = rational(precision)
    steps = list(steps)
    if not Rational(max(steps, default=0), grid) < P:
        raise PrecisionError("term beyond precision")
    level = [QSeries._from_numerators(grid, 0, {0: 1, n: sign}, 1, P)
             for n in steps] or [QSeries.one(P)]
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [x * y for x, y in zip(level[::2], level[1::2])] + odd
    return level[0]


@lru_cache(maxsize=None)
def _euler_product_cached(count):
    # prod_{1 <= i < count} (1 - q^i), exact below the integer count
    return _binomial_product(1, range(1, count), -1, count)


def _integer_count(order):
    # the least integer at or above every exponent below order: a series
    # exact below it, truncated to order, is exact below order
    return largest_int_below(order) + 1


def euler_product(order):
    """``prod_{i>=1} (1 - q^i)`` with all exponents < order exact."""
    order = rational(order)
    return _euler_product_cached(_integer_count(order)).truncate(order)


@lru_cache(maxsize=None)
def _euler_inverse_cached(count):
    # prod(1 - q^i) is eta's pentagonal sum without its q^(1/24)
    return unary_theta(12, _CHI_12, 24, count + ETA_EXPONENT).shift(
        -ETA_EXPONENT).invert()


def euler_inverse(order):
    """The partition generating function ``1/prod(1 - q^i)``, exact below order."""
    order = max(rational(order), 1)
    return _euler_inverse_cached(_integer_count(order)).truncate(order)


def eta_series(order):
    """Dedekind eta ``q^(1/24) * prod_{i>=1}(1 - q^i)``, exact below order.

    It is built as Euler's pentagonal sum (:func:`pentagonal_sum_series`),
    the same series, precision included, as
    ``euler_product(order - 1/24).shift(1/24)``, which stays the
    independent side of the ``euler`` identity.
    """
    return pentagonal_sum_series(order)


def eta_power(exponent, order):
    """``eta**exponent`` with precision at least ``order``.

    When every exponent of the power lies at or beyond ``order`` the result
    is the empty (zero) series at that precision.  For ``exponent`` m >= 2,
    ``eta^m = q^(m/24) f`` with ``f = g^m`` and g Euler's pentagonal sum
    ``sum_j g_j q^j`` (``g_0 = 1``); f comes from J. C. P. Miller's power
    recurrence (Knuth, TAOCP Vol. 2, 4.7) ``n f_n = sum_(1 <= j <= n) g_j
    ((m + 1) j - n) f_(n-j)``, an exact integer division, with no series
    product.
    """
    m = int(exponent)
    if m < 0:
        raise ValueError("eta power exponent must be >= 0")
    order = rational(order)
    if not order > Rational(m, 24):
        return QSeries.zero(order)
    if m == 0:
        return QSeries.one(order)
    if m == 1:
        return eta_series(order)
    count = largest_int_below(order - Rational(m, 24)) + 1
    # (j, g_j, (m + 1) j g_j) for the nonzero g_j with 1 <= j < count: the
    # sign of v at j = (v^2 - 1)/24
    pentagonal = []
    for square, _, sign, _ in theta_window(12, _CHI_12, 24 * count - 23)[1:]:
        j = (square - 1) // 24
        pentagonal.append((j, sign, (m + 1) * j * sign))
    f = [1] * count
    for n in range(1, count):
        total = 0
        for j, g, weight in pentagonal:
            if j > n:
                break
            c = f[n - j]
            if c:
                total += (weight - n * g) * c
        f[n], rem = divmod(total, n)
        assert not rem, "Miller's power recurrence must divide exactly"
    return QSeries._from_numerators(
        24, m, {24 * n: c for n, c in enumerate(f) if c}, 1, order)


def pentagonal_sum_series(order):
    """Sum side of the pentagonal-number identity for eta.

    ``q^(1/24) * sum_{n in Z} (-1)^n q^((3n^2-n)/2)``, which is
    ``sum_(v >= 1) chi_12(v) q^(v^2/24)`` with ``v = |6n - 1|``, with every
    exponent below ``order`` present.
    """
    return unary_theta(12, _CHI_12, 24, order_above(order, ETA_EXPONENT))


def jacobi_cube_series(order):
    """Sum side of the eta-cube identity.

    ``q^(1/8) * sum_{m>=0} (-1)^m (2m+1) q^(m(m+1)/2)``, which is
    ``sum v (-1)^((v-1)/2) q^(v^2/8)`` over odd ``v = 2m + 1``, truncated
    below order.
    """
    return unary_theta(4, _CUBE_SIGNS, 8, order_above(order, Rational(1, 8)),
                       weighted=True)


def eisenstein_g2(order):
    """Weight-two quasimodular Eisenstein series, normalised as
    ``-1/12 + 2 * sum_{m>=1} sigma_1(m) q^m``.

    The divisor sums are sieved directly rather than accumulated from the
    Lambert series, so each coefficient is produced exactly once.
    """
    order = order_above(order, 0)
    top = largest_int_below(order)
    sigma = [0] * (top + 1)
    for d in range(1, top + 1):
        for j in range(d, top + 1, d):
            sigma[j] += d
    # numerators over 12: -1 at q^0 and 24 sigma_1(m) at q^m
    num = {m: 24 * c for m, c in enumerate(sigma)}
    num[0] = -1
    return QSeries._from_numerators(1, 0, num, 12, order)


#: Weber function -> (leading exponent, grid, sign of its factors).
_WEBER = {"f": (WEBER_F_EXPONENT, 2, 1), "f1": (WEBER_F_EXPONENT, 2, -1),
          "f2": (WEBER_F2_EXPONENT, 1, 1)}


def weber_series(which, order):
    """One of Weber's three product functions, exact below order.

    ``which`` is ``"f"`` (plus signs, half-integer steps), ``"f1"`` (minus
    signs, half-integer steps) or ``"f2"`` (plus signs, integer steps).
    """
    key = str(which).lower()
    if key not in _WEBER:
        raise ValueError(f"unknown Weber function {which!r} (use f, f1 or f2)")
    prefix, grid, sign = _WEBER[key]
    rel = order_above(order, prefix) - prefix
    # the steps n = 1, 1 + grid, 1 + 2 grid, ... with n/grid below rel
    steps = range(1, largest_int_below(grid * rel) + 1, grid)
    return _binomial_product(grid, steps, sign, rel).shift(prefix)


#: The builder of every name of :data:`NAMED_SERIES` but ``eta^M``.
_NAMED_BUILDERS = {"eta": eta_series, "pentagonal_sum": pentagonal_sum_series,
                   "jacobi_cube_sum": jacobi_cube_series, "g2": eisenstein_g2,
                   **{f"weber_{w}": partial(weber_series, w) for w in _WEBER}}

#: Names understood by :func:`named_series` (eta powers are ``eta^M``).
NAMED_SERIES = ("eta", "eta^M", *list(_NAMED_BUILDERS)[1:])


def named_series(name, order):
    """Dispatch a builder by name: eta, eta^M, pentagonal_sum,
    jacobi_cube_sum, g2, weber_f, weber_f1, weber_f2."""
    key = str(name).strip().lower()
    if key in _NAMED_BUILDERS:
        return _NAMED_BUILDERS[key](order)
    if not key.startswith("eta^"):
        raise ValueError(f"unknown series name {name!r}; "
                         f"known: {', '.join(NAMED_SERIES)}")
    try:
        m = int(key[4:])
    except ValueError:
        raise ValueError("eta power must be an integer (eta^M)") from None
    if m < 1:
        raise ValueError("eta power must be >= 1")
    # as for every other name, no order at or below the leading exponent
    return eta_power(m, order_above(order, Rational(m, 24)))
