"""Truncated formal power series in fractional powers of q over exact rationals.

A :class:`QSeries` is a finite collection of terms ``c * q**((a + n)/D)``
together with an explicit precision bound ``P``: every coefficient of an
exponent below ``P`` is exactly known, everything at or beyond ``P`` is
unknown.  All ring operations propagate ``P`` pessimistically, so a reported
coefficient is always exact no matter how long the pipeline that produced it.

Representation invariants (every series is built in this canonical form, so
two equal series compare and hash equal however they were computed):

* the coefficient of step ``n`` is ``numerator[n] / den``: one plain Python
  ``int`` numerator per step over one common denominator ``den > 0``;
* no stored numerator is zero, and ``gcd(den, all numerators)`` is 1 (the
  zero series has ``den`` 1);
* every stored exponent ``(a + n)/D`` is strictly below ``P``;
* the step map is keyed by non-negative integers, step 0 carries the lowest
  term, and ``gcd(D, a, steps)`` is 1, so the grid is canonical;
* ``a/D <= P`` (for the zero series the offset is ``floor(P)`` on grid 1).

Ring operations run on the integer numerators alone; rationals (see
:mod:`qetakit.rationals`) appear only at the boundary: exponents, the
precision bound, scalars and the coefficient views.  This module is the
only one that reads the numerator map.  Numerators go out through one grid
view, :meth:`QSeries._on_grid`: on a finer grid ``1/D``, keyed by
``exponent * D - origin`` and cut at a last key.  Products, sums,
truncation (and so comparison), the empirical constant and the Wronskian
kernel all read it.  Builders that hold integer numerators come in through
:meth:`QSeries._from_numerators`.

A product runs a schoolbook loop when one factor has at most
:data:`SCHOOLBOOK_TERMS` terms.  Otherwise it uses Kronecker substitution
(Harvey, J. Symb. Comp. 2009): both numerator vectors, taken on the common
stride of their steps, are packed into one big integer each, one
fixed-width digit per stride, and multiplied once; the digits of the
product are read back with a bias that makes signed digits non-negative.
Both loops also take a list of factor pairs and return the sum of their
products, read back once (:func:`_products`), which the Wronskian kernel
uses on bare step -> numerator maps.  A product of binomials ``prod (1 +-
q^n)`` is packed the same way, but grown in place: one shift and one add
per factor on one integer cut to the digits that are kept, with digits as
wide as a bound on its coefficients, and read back once
(:func:`_binomial_numerators`).

One integer long division, :func:`_quotient_numerators`, divides in
general.  It serves :meth:`QSeries.invert`, whose dividend is the constant
map ``{0: den}``, and the Wronskian recursion, whose quotients are exact
and nearly always integral; it scales by ``c0`` only at the steps that
need it.  A step of the recursion whose products take Kronecker
substitution runs in one function, :func:`_step_quotients`: the pivot and
its derivative are packed once for all the step's entries, and each entry's
two products are summed into one integer.  While the step's digits are at
most :data:`PACKED_DIVISION_BYTES` wide, that integer is divided exactly
by one multiply by the 2-adic inverse of the packed divisor (Jebelean, J.
Symb. Comp. 1993).  The quotient is kept only when its digits times the
divisor's fit below half a digit: then it times the divisor agrees with
the dividend digit by digit, as polynomials, so it is the exact and
integral quotient.  A quotient that fails the check, a non-integral one
among them, and every entry of a wider step go to the long division.
Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import numbers
import operator
import re
import sys
from array import array
from collections.abc import Mapping
from itertools import repeat
from math import floor, gcd, isqrt, lcm

from .rationals import (CHUNK, CHUNK_DIGITS, Rational, largest_int_below,
                        rat_str, rational)


class PrecisionError(ValueError):
    """Raised when a request reaches at or beyond a series' precision bound."""


class NotInvertibleError(ArithmeticError):
    """Raised when inverting a series that is zero up to its precision."""


_HEADER_RE = re.compile(r"^D=(\d+) P=(-?\d+(?:/\d+)?)$")
#: A number of the text format: sign, numerator and optional denominator.
_NUMBER_RE = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")

#: A product whose shorter factor has at most this many terms runs the
#: schoolbook loop; longer factors go through Kronecker substitution.  For
#: two dense factors of n terms the two cost the same at n = 16 to 20,
#: whether the numerators have 4, 20 or 100 bits (Python 3.11, 2-vCPU
#: Intel Xeon); the schoolbook loop stays faster when either factor is
#: short.  A product of binomials ``1 +- q^n`` multiplies no factor pair:
#: it is one packed integer, one shift and one add per factor
#: (:func:`_binomial_numerators`).
SCHOOLBOOK_TERMS = 16

#: A packed step of the Wronskian recursion whose digits are at most this
#: many bytes wide divides each entry by one multiply by a 2-adic inverse
#: (:func:`_step_quotients`); a wider step reads its sums back for the long
#: division.  Per entry, on the steps of five Wronskians at headroom 20 to
#: 80 (k = 14 to 36), the packed division was about 4x faster than the long
#: division up to 16 bytes and 1.7x faster from 17 to 32 bytes, where the
#: inverse costs about 100 us per step; it was 0.9x as fast from 33 to 47
#: bytes and half as fast above (Python 3.11, 2-vCPU Intel Xeon).
PACKED_DIVISION_BYTES = 32

#: Array typecodes of the unsigned machine words, by size in bytes; a packed
#: digit of one of these widths is converted by ``array`` (its signed
#: lower-case code when packing) instead of one ``int`` call per digit.
_WORD_CODES = {array(code).itemsize: code for code in "BHIQ"}
_SWAP_BYTES = sys.byteorder != "little"


def _canonical(D, a, num, den, P):
    """Canonical ``(D, a, num, den, P)`` of the terms ``num[n]/den *
    q**((a + n)/D)``; ``num`` maps integer steps (of either sign) to
    nonzero ints, ``den`` is positive."""
    if not num:
        return 1, floor(P), {}, 1, P
    lo = min(num)
    if lo:
        a += lo
        num = {n - lo: c for n, c in num.items()}
    g = gcd(D, a)
    if g > 1:
        g = gcd(g, *num)
        if g > 1:
            D //= g
            a //= g
            num = {n // g: c for n, c in num.items()}
    if den != 1:
        g = gcd(den, *num.values())
        if g > 1:
            den //= g
            num = {n: c // g for n, c in num.items()}
    return D, a, num, den, P


def _int_to_words(value, count, width):
    """The lowest ``count`` base-``2**(8*width)`` digits of ``value >= 0``."""
    data = value.to_bytes(count * width, "little")
    code = _WORD_CODES.get(width)
    if code is None:
        return [int.from_bytes(data[i:i + width], "little")
                for i in range(0, len(data), width)]
    words = array(code)
    words.frombytes(data)
    if _SWAP_BYTES:
        words.byteswap()
    return words.tolist()


def _pack(num, stride, width, signs):
    """``sum c * B**(s // stride)`` over the step -> numerator map ``num``,
    with ``B = 2**(8*width)`` and every ``|c| < B/2``.

    Each digit is written as ``c % B`` (two's complement), all in one pass
    of C-level calls; that reads back as the sum plus ``B`` at every
    negative digit, whose top bit is set, so subtracting twice the bits
    that ``signs`` (the top bit of each digit) selects leaves the signed
    sum.
    """
    digits = map(num.get, range(0, max(num) + 1, stride), repeat(0))
    code = _WORD_CODES.get(width)
    if code is None:
        base = 1 << (8 * width)
        data = b"".join(map(int.to_bytes, map(base.__rmod__, digits),
                            repeat(width), repeat("little")))
    else:
        packed = array(code.lower(), digits)
        if _SWAP_BYTES:
            packed.byteswap()
        data = packed.tobytes()
    value = int.from_bytes(data, "little")
    return value - ((value & signs) << 1)


def _schoolbook_product(pairs, cap):
    """step -> numerator of the sum of the products ``xs * ys`` over the
    ``(xs, ys)`` of ``pairs`` (nonempty step -> numerator maps), keeping
    steps up to ``cap``; one pair is a plain product."""
    acc = {}
    for xs, ys in pairs:
        if len(xs) > len(ys):
            xs, ys = ys, xs
        xs = iter(xs.items())
        ys = ys.items()
        if not acc:
            sx, cx = next(xs)
            rem = cap - sx
            acc = {sx + sy: cx * cy for sy, cy in ys if sy <= rem}
        get = acc.get
        for sx, cx in xs:
            rem = cap - sx
            for sy, cy in ys:
                if sy <= rem:
                    s = sx + sy
                    acc[s] = get(s, 0) + cx * cy
    return {s: c for s, c in acc.items() if c}


def _digit_width(bits):
    """Bytes of a packed digit of at least ``bits`` bits, rounded up to a
    machine word where one is that wide."""
    width = (bits + 7) // 8
    return min((w for w in _WORD_CODES if w >= width), default=width)


def _digit_bias(count, width):
    """``B/2`` at each of the lowest ``count`` digits, ``B =
    2**(8*width)``: the top bit of every digit."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _signed_digits(value, count, width, bias, stride):
    """step ``i * stride`` -> digit i of the lowest ``count`` signed
    base-``B`` digits of ``value``, zero digits left out; every digit has
    magnitude below ``B/2`` and ``bias`` is :func:`_digit_bias`.

    Adding the bias makes every digit non-negative without carries, so the
    digits are read from the low bits alone, once, and the bias taken off
    each.
    """
    half = 1 << (8 * width - 1)
    low = (value + bias) & ((1 << (8 * width * count)) - 1)
    return {i * stride: d - half
            for i, d in enumerate(_int_to_words(low, count, width))
            if d != half}


def _kronecker_product(pairs, cap):
    """The same sum as :func:`_schoolbook_product` by one big-integer
    multiply per pair and one read-back; no factor has a step above
    ``cap``.

    Steps are divided by their common stride before packing.  A digit of
    the sum has magnitude at most the sum over the pairs of ``max|x| *
    max|y| * min(len)``, so a digit of ``width`` bytes with ``2**(8*width -
    1)`` above that bound holds it; the products are added, then
    ``2**(8*width - 1)`` added to every digit makes all digits non-negative
    without carries, and the low ``count`` digits are read back from the
    low bits alone.
    """
    stride = bound = top = 0
    for xs, ys in pairs:
        stride = gcd(stride, *xs, *ys)
        bound += (max(map(abs, xs.values())) * max(map(abs, ys.values()))
                  * min(len(xs), len(ys)))
        top = max(top, max(xs) + max(ys))
    stride = stride or 1
    count = min(cap, top) // stride + 1
    width = _digit_width(bound.bit_length() + 1)
    # the top bit of each of the sum's digits: the sign bits of a packed
    # factor, which has no more digits, and the bias that makes the sum's
    # digits non-negative
    bias = _digit_bias(count, width)
    total = 0
    for xs, ys in pairs:
        px = _pack(xs, stride, width, bias)
        total += px * px if xs is ys else px * _pack(ys, stride, width, bias)
    return _signed_digits(total, count, width, bias, stride)


def _distinct_binomial_bits(count):
    """``isqrt(7 count) + 1``: a ``b`` such that every coefficient below
    ``q^count`` of a product of binomials ``1 +- q^n`` over distinct steps
    ``n`` is less than ``2^b`` in magnitude.

    The coefficient of ``q^N`` is at most q(N), the number of partitions
    of N into distinct parts, and ``q(N) <= e^(pi sqrt(N/3))``: for ``x =
    e^(-t)``, ``q(N) x^N <= prod_k (1 + x^k) = prod_k 1/(1 - x^(2k-1))``,
    whose log is ``sum_j x^j / (j (1 - x^(2j))) = sum_j 1/(2j sinh(jt)) <=
    sum_j 1/(2 j^2 t) = pi^2/(12t)``, and ``N t + pi^2/(12t)`` is ``pi
    sqrt(N/3)`` at ``t = pi/sqrt(12N)``.  In bits that is ``pi sqrt(N/3) /
    ln 2 < 2.617 sqrt(N) < sqrt(7 N)``, and ``N < count``.
    """
    return isqrt(7 * count) + 1


def _binomial_numerators(steps, sign, count):
    """step -> numerator of ``prod_n (1 + sign q^n)`` over the positive int
    ``steps``, up to step ``count - 1``, in one packed integer.

    The product is held as ``sum c_i B^i`` with ``B = 2**(8*width)``, kept
    below ``B^count``: a factor is one shift and one add or subtract,
    ``v +- (v << n*8*width)``, cut back to ``count`` digits, and the signed
    digits are read back once (:func:`_signed_digits`).  Cutting is exact
    because ``q -> B`` maps the product below ``q^count`` to the integer
    modulo ``B^count``; only the final digits must fit.  A coefficient of m
    factors is at most ``2^m`` in magnitude (their absolute values sum to
    that), and, when no step repeats, at most the number of partitions
    into distinct parts (:func:`_distinct_binomial_bits`).  That bound is
    wrong for repeated steps: the coefficients of ``(1 + q)^m`` are
    binomial.  Two spare bits hold the sign and the bias.
    """
    m = len(steps)
    bits = (m if len(set(steps)) < m
            else min(m, _distinct_binomial_bits(count)))
    width = _digit_width(bits + 2)
    shift = 8 * width
    mask = (1 << (shift * count)) - 1
    combine = operator.add if sign > 0 else operator.sub
    value = 1
    for n in sorted(steps):
        value = combine(value, value << (n * shift)) & mask
    return _signed_digits(value, count, width, _digit_bias(count, width), 1)


def _takes_kronecker(pairs):
    """True when the shorter factor of some pair has more than
    :data:`SCHOOLBOOK_TERMS` terms."""
    return max(min(len(xs), len(ys)) for xs, ys in pairs) > SCHOOLBOOK_TERMS


def _products(pairs, cap):
    """The sum of products of :func:`_schoolbook_product` over one or more
    pairs: by the schoolbook loop while the shorter factor of every pair has
    at most :data:`SCHOOLBOOK_TERMS` terms, by Kronecker substitution
    otherwise."""
    if _takes_kronecker(pairs):
        return _kronecker_product(pairs, cap)
    return _schoolbook_product(pairs, cap)


def _quotient_numerators(num, divisor, cap):
    """``(q, d)``: ``q / d`` is ``num / divisor`` up to step ``cap``, for
    step -> numerator maps with no step above ``cap``, the ``divisor``'s
    step 0 nonzero; ``q`` maps steps to ints and ``d > 0`` is the least
    common denominator of the quotient (1 when it is integral).

    Long division on the steps divided by their gcd: reduced step m of the
    quotient is the running numerator ``t = d x_m - sum_j c_j q_(m-j)``
    over ``c0 = divisor[0]``.  When ``c0`` does not divide ``t``, the
    quotient so far and ``d`` are first scaled by ``|c0| / gcd(t, c0)``,
    the least factor that makes it divide.  It serves both the Wronskian
    recursion, whose quotients are exact minors, and
    :meth:`QSeries.invert`, which divides ``{0: den}`` by the numerators.
    """
    if not num:
        return {}, 1
    c0 = divisor[0]
    g = gcd(*num, *divisor) or cap + 1
    inner = sorted((n // g, c) for n, c in divisor.items() if n)
    xs = [0] * (cap // g + 1)
    for n, c in num.items():
        xs[n // g] = c
    q = []
    d = 1
    for m, t in enumerate(xs):
        t *= d
        for j, c in inner:
            if j > m:
                break
            qj = q[m - j]
            if qj:
                t -= c * qj
        if t % c0:
            f = abs(c0) // gcd(t, c0)
            q = [c * f for c in q]
            d *= f
            t *= f
        q.append(t // c0)
    return {m * g: c for m, c in enumerate(q) if c}, d


def _inverse_mod_power_of_two(y, bits):
    """The inverse of the odd int ``y`` modulo ``2**bits``: exact on the low
    64 bits, then Newton's iteration, which doubles the correct low bits:
    from ``y z = 1 + e 2^n mod 2^m``, ``m <= 2n``, it takes ``z - (z e mod
    2^(m-n)) 2^n``."""
    n = min(bits, 64)
    z = pow(y & ((1 << n) - 1), -1, 1 << n)
    while n < bits:
        h = min(n, bits - n)
        m = n + h
        e = (y & ((1 << m) - 1)) * z >> n & ((1 << h) - 1)
        z = (z - ((z & ((1 << h) - 1)) * e << n)) & ((1 << m) - 1)
        n = m
    return z


def _step_quotients(pivot, minus_d_pivot, entries, divisor, cap):
    """``[(q, d)]``, one per ``(y, dy)`` of ``entries``: ``q / d`` is the
    fused sum ``pivot dy + y minus_d_pivot`` over ``divisor`` up to step
    ``cap``, as :func:`_quotient_numerators` gives it, or the sum over 1
    when ``divisor`` is None.  This is one step of the Wronskian
    recursion, on step -> numerator maps with no step above ``cap``.

    A step whose pairs take the schoolbook loop (:func:`_products`) runs
    it entry by entry.  Any other step is packed once: one stride and one
    digit width, wide enough for every entry's sum and for the divisor's
    numerators, serve all entries; ``pivot`` and ``minus_d_pivot`` are
    packed once, and each entry's two products are summed into one
    integer ``X``.  With ``count`` digits up to ``cap``, ``K = 8 width
    count`` bits, and the packed divisor ``Y = 2^a Y'``, ``Y'`` odd (``a``
    is ``v2(c0)``, below the digit's top bit, since ``Y = c0 mod B``), a
    step at most :data:`PACKED_DIVISION_BYTES` wide divides exactly in the
    packed integer (Jebelean, J. Symb. Comp. 1993): ``Q = ((X mod 2^K) >>
    a) inv mod 2^(K - a)``, ``inv`` the inverse of ``Y'`` built once per
    step, is sign-extended from its top bit and read back once as balanced
    digits ``q``.  It is kept only when ``max|q| max|y| min(#q, #y) <
    B/2``.  Then the digits of ``Q Y`` are those of the polynomial ``q y``
    and the digits of ``X`` those of the sum, both below ``B/2``, and ``Q
    Y = X mod B^count``, so ``q y`` is the sum up to ``cap``: ``q`` is the
    quotient, and it is integral.  Every other entry (a quotient that is
    not integral, whose ``X`` need not even have ``a`` low zero bits, one
    too wide for the digits, any entry of a step wider than the limit) is
    read back and divided by :func:`_quotient_numerators`.
    """
    pairs = [((pivot, dy), (y, minus_d_pivot)) for y, dy in entries]
    if not _takes_kronecker([pair for both in pairs for pair in both]):
        sums = [_schoolbook_product([(xs, ys) for xs, ys in both
                                     if xs and ys], cap) for both in pairs]
        if divisor is None:
            return [(x, 1) for x in sums]
        return [_quotient_numerators(x, divisor, cap) for x in sums]

    def size(num):
        return max(map(abs, num.values()), default=0), len(num)

    (p_max, p_len), (m_max, m_len) = size(pivot), size(minus_d_pivot)
    y_max, y_len = size(divisor or {})
    stride = gcd(*pivot, *minus_d_pivot, *(divisor or ()))
    bound = y_max
    for y, dy in entries:
        stride = gcd(stride, *y, *dy)
        (e_max, e_len), (d_max, d_len) = size(y), size(dy)
        bound = max(bound, p_max * d_max * min(p_len, d_len)
                    + e_max * m_max * min(e_len, m_len))
    width = _digit_width(bound.bit_length() + 1)
    count = cap // stride + 1
    bias = _digit_bias(count, width)

    def pack(num):
        return _pack(num, stride, width, bias) if num else 0

    def read(x):
        return _signed_digits(x, count, width, bias, stride)

    packed_pivot, packed_minus = pack(pivot), pack(minus_d_pivot)
    inv = None
    if divisor is not None and width <= PACKED_DIVISION_BYTES:
        K = 8 * width * count
        Y = pack(divisor)
        a = (Y & -Y).bit_length() - 1
        n = K - a
        inv = _inverse_mod_power_of_two(Y >> a, n)
        mask_k, mask_a, mask_n = (1 << K) - 1, (1 << a) - 1, (1 << n) - 1
        half = 1 << (8 * width - 1)
    out = []
    for y, dy in entries:
        x = packed_pivot * pack(dy) + pack(y) * packed_minus
        if divisor is None:
            out.append((read(x), 1))
            continue
        if inv is not None:
            low = x & mask_k
            if not low & mask_a:
                z = (low >> a) * inv & mask_n
                q = read(z - ((z >> (n - 1)) << n))
                if not q or (max(map(abs, q.values())) * y_max
                             * min(len(q), y_len) < half):
                    out.append((q, 1))
                    continue
        out.append(_quotient_numerators(read(x), divisor, cap))
    return out


class _CoefficientView(Mapping):
    """Read-only step -> Rational map over a series' integer numerators."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den):
        self._num = num
        self._den = den

    def __getitem__(self, step):
        return Rational(self._num[step], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)


class QSeries:
    """Exact truncated series in q**(1/D) with a tracked precision bound."""

    __slots__ = ("grid_denominator", "offset", "precision", "_num", "_den")

    def __init__(self, grid_denominator, offset, coefficients, precision):
        D = operator.index(grid_denominator)
        if D <= 0:
            raise ValueError("grid denominator must be >= 1")
        a = operator.index(offset)
        P = rational(precision)
        values = {operator.index(n): c if type(c) is int else rational(c)
                  for n, c in coefficients.items()}
        den = lcm(*(c.denominator for c in values.values()))
        num = {n: c.numerator * (den // c.denominator)
               for n, c in values.items() if c}
        if num and not Rational(a + max(num), D) < P:
            raise PrecisionError("term beyond precision")
        self._set(*_canonical(D, a, num, den, P))

    def _set(self, D, a, num, den, P):
        self.grid_denominator = D
        self.offset = a
        self.precision = P
        self._num = num
        self._den = den

    @classmethod
    def _from_numerators(cls, D, a, num, den, P):
        """A series from nonzero int numerators over ``den > 0`` whose terms
        all lie below ``P``, brought into canonical form."""
        series = object.__new__(cls)
        series._set(*_canonical(D, a, num, den, P))
        return series

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, precision):
        """The zero series known up to the given precision."""
        return cls(1, 0, {}, precision)

    @classmethod
    def one(cls, precision):
        """The constant series 1 (requires precision > 0)."""
        return cls.monomial(1, 0, precision)

    @classmethod
    def monomial(cls, coeff, exponent, precision):
        """Single term ``coeff * q**exponent``; the zero series if coeff = 0."""
        c = rational(coeff)
        P = rational(precision)
        if not c:
            return cls.zero(P)
        e = rational(exponent)
        if not e < P:
            raise PrecisionError("term beyond precision")
        return cls(e.denominator, e.numerator, {0: c}, P)

    @classmethod
    def from_terms(cls, terms, precision):
        """Build a series from (exponent, coefficient) pairs.

        Pairs with equal exponents are summed; all exponents must lie below
        the precision bound.
        """
        P = rational(precision)
        acc = {}
        for e, c in terms:
            e = rational(e)
            c = rational(c)
            if c:
                acc[e] = acc.get(e, 0) + c
        acc = {e: c for e, c in acc.items() if c}
        if not acc:
            return cls.zero(P)
        D = lcm(*(e.denominator for e in acc))
        coeffs = {e.numerator * (D // e.denominator): c
                  for e, c in acc.items()}
        return cls(D, 0, coeffs, P)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def coefficients(self):
        """Read-only step -> coefficient map (term is coeff * q**((a+n)/D))."""
        return _CoefficientView(self._num, self._den)

    @property
    def is_zero(self):
        """True when no term is known below the precision bound."""
        return not self._num

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs."""
        D = self.grid_denominator
        a = self.offset
        den = self._den
        return [(Rational(a + n, D), Rational(c, den))
                for n, c in sorted(self._num.items())]

    def lowest_term(self):
        """(exponent, coefficient) of the lowest term, or None for zero."""
        if not self._num:
            return None
        return (Rational(self.offset, self.grid_denominator),
                Rational(self._num[0], self._den))

    def _low_exponent(self):
        # the zero series counts as starting at its precision bound
        if not self._num:
            return self.precision
        return Rational(self.offset, self.grid_denominator)

    def coefficient(self, exponent):
        """Exact coefficient at the given exponent (it must lie below P)."""
        e = rational(exponent)
        if not e < self.precision:
            raise PrecisionError("insufficient precision")
        s = e * self.grid_denominator - self.offset
        if s.denominator != 1 or s < 0:
            return Rational(0)
        return Rational(self._num.get(s.numerator, 0), self._den)

    def _on_grid(self, D, origin, cap):
        """step -> numerator, over this series' denominator, on grid ``D``
        (a multiple of this grid): each term's step is ``exponent * D -
        origin``, and only the steps up to ``cap`` are kept.  When no step
        moves and none is cut, this is the series' own map: read it, never
        write it."""
        f = D // self.grid_denominator
        base = self.offset * f - origin
        num = self._num
        if f == 1 and not base and (not num or max(num) <= cap):
            return num
        top = (cap - base) // f
        return {base + n * f: c for n, c in num.items() if n <= top}

    def equal_up_to(self, other, bound):
        """True iff all coefficients of exponents < bound agree exactly.

        Both series are cut at ``bound``; the cuts are in canonical form
        with the same precision, so they agree iff they are equal."""
        b = rational(bound)
        if b > self.precision or b > other.precision:
            raise PrecisionError("insufficient precision")
        return self.truncate(b) == other.truncate(b)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            if not isinstance(other, numbers.Rational):
                return NotImplemented
            other = QSeries.monomial(other, 0, self.precision)
        D = lcm(self.grid_denominator, other.grid_denominator)
        den = lcm(self._den, other._den)
        P = min(self.precision, other.precision)
        smax = largest_int_below(P * D)
        m = den // self._den
        acc = {s: c * m for s, c in self._on_grid(D, 0, smax).items()}
        get = acc.get
        m = den // other._den
        for s, c in other._on_grid(D, 0, smax).items():
            acc[s] = get(s, 0) + c * m
        return QSeries._from_numerators(
            D, 0, {s: c for s, c in acc.items() if c}, den, P)

    __radd__ = __add__

    def __neg__(self):
        return QSeries._from_numerators(self.grid_denominator, self.offset,
                                        {n: -c for n, c in self._num.items()},
                                        self._den, self.precision)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, scalar):
        c = rational(scalar)
        if not c:
            return QSeries.zero(self.precision)
        p = c.numerator
        return QSeries._from_numerators(
            self.grid_denominator, self.offset,
            {n: v * p for n, v in self._num.items()},
            self._den * c.denominator, self.precision)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            if isinstance(other, numbers.Rational):
                return self._scale(other)
            return NotImplemented
        if not self._num or not other._num:
            return QSeries.zero(min(self.precision + other._low_exponent(),
                                    other.precision + self._low_exponent()))
        Dx, ax = self.grid_denominator, self.offset
        Dy, ay = other.grid_denominator, other.offset
        # P = min(Px + ay/Dy, Py + ax/Dx) as an integer fraction p/q
        px, qx = self.precision.numerator, self.precision.denominator
        py, qy = other.precision.numerator, other.precision.denominator
        p, q = px * Dy + ay * qx, qx * Dy
        p2, q2 = py * Dx + ax * qy, qy * Dx
        if p2 * q < p * q2:
            p, q = p2, q2
        D = lcm(Dx, Dy)
        ox = ax * (D // Dx)
        oy = ay * (D // Dy)
        # steps are counted from each factor's lowest term; the last one
        # kept is the largest s with (ox + oy + s)/D < p/q
        cap = (p * D - 1) // q - ox - oy
        xs = self._on_grid(D, ox, cap)
        ys = xs if other is self else other._on_grid(D, oy, cap)
        return QSeries._from_numerators(D, ox + oy,
                                        _products(((xs, ys),), cap),
                                        self._den * other._den,
                                        Rational(p, q))

    def __rmul__(self, other):
        if isinstance(other, numbers.Rational):
            return self._scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Rational):
            return self._scale(1 / rational(other))
        if isinstance(other, QSeries):
            return self * other.invert()
        return NotImplemented

    def __pow__(self, n):
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative power: invert() first")
        if n == 0:
            return QSeries.one(self.precision)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def invert(self):
        """Multiplicative inverse, exact up to the propagated precision.

        The lowest exponent of the result is the negation of the lowest
        exponent of the input; the result precision is ``P - 2*lowexp``.
        With numerators ``N`` over ``den``, the inverse is ``den / N``: the
        long division of :func:`_quotient_numerators` with the dividend
        ``{0: den}``.
        """
        if not self._num:
            raise NotInvertibleError("not invertible: series is zero up to "
                                     f"precision {self.precision}")
        D = self.grid_denominator
        a = self.offset
        e = Rational(a, D)
        rel = self.precision - e
        inv, d = _quotient_numerators({0: self._den}, self._num,
                                      largest_int_below(rel * D))
        return QSeries._from_numerators(D, -a, inv, d, rel - e)

    def theta_derive(self):
        """Apply q d/dq: each term c*q**e maps to (c*e)*q**e."""
        D = self.grid_denominator
        a = self.offset
        return QSeries._from_numerators(
            D, a, {n: c * (a + n) for n, c in self._num.items() if a + n},
            self._den * D, self.precision)

    def shift(self, exponent):
        """Multiply by the exact monomial q**exponent."""
        e = rational(exponent)
        D = lcm(self.grid_denominator, e.denominator)
        f = D // self.grid_denominator
        a = self.offset * f + e.numerator * (D // e.denominator)
        num = self._num if f == 1 else {n * f: c for n, c in self._num.items()}
        return QSeries._from_numerators(D, a, num, self._den,
                                        self.precision + e)

    def truncate(self, precision):
        """Forget everything at or beyond the new (lower) precision bound."""
        P = rational(precision)
        if P >= self.precision:
            return self
        D, a = self.grid_denominator, self.offset
        return QSeries._from_numerators(
            D, a, self._on_grid(D, a, largest_int_below(P * D) - a),
            self._den, P)

    # ------------------------------------------------------------------
    # serialization and display
    # ------------------------------------------------------------------

    def to_text(self):
        """Interchange text format: header line then exponent/coefficient
        lines, every number in full (:func:`~qetakit.rationals.rat_str`)."""
        lines = [f"D={self.grid_denominator} P={rat_str(self.precision)}"]
        lines.extend(f"{rat_str(e)} {rat_str(c)}" for e, c in self.terms())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the :meth:`to_text` format.  ``int`` may refuse more than
        4300 digits, so numerators and denominators are read in chunks of
        :data:`~qetakit.rationals.CHUNK_DIGITS` digits."""

        def digits(run):
            head = len(run) % CHUNK_DIGITS or CHUNK_DIGITS
            value = int(run[:head])
            for i in range(head, len(run), CHUNK_DIGITS):
                value = value * CHUNK + int(run[i:i + CHUNK_DIGITS])
            return value

        def number(token):
            m = _NUMBER_RE.fullmatch(token)
            if m is None:
                raise ValueError(f"bad number {token!r} in series text")
            sign, p, q = m.groups("1")
            p, q = digits(p), digits(q)
            if not q:
                raise ValueError(f"zero denominator in {token!r}")
            return Rational(-p if sign else p, q)

        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty series text")
        m = _HEADER_RE.match(lines[0].strip())
        if not m or not int(m.group(1)):
            raise ValueError(f"bad series header: {lines[0]!r}")
        D = int(m.group(1))
        P = rational(m.group(2))
        terms = []
        for ln in lines[1:]:
            se, sc = ln.split()
            e = number(se)
            if D % e.denominator:
                raise ValueError(f"exponent {se} is off the declared grid 1/{D}")
            terms.append((e, number(sc)))
        return cls.from_terms(terms, P)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.grid_denominator == other.grid_denominator
                and self.offset == other.offset
                and self.precision == other.precision
                and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.grid_denominator, self.offset, self.precision,
                     self._den, tuple(sorted(self._num.items()))))

    def _pretty(self, max_terms=8):
        parts = []
        for e, c in self.terms()[:max_terms]:
            if e == 0:
                term = rat_str(c)
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{rat_str(c)}*")
                term = f"{mag}q^({rat_str(e)})"
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append(f"- {term[1:]}")
            else:
                parts.append(f"+ {term}")
        if len(self._num) > max_terms:
            parts.append("+ ...")
        if not parts:
            parts.append("0")
        parts.append(f"+ O(q^({rat_str(self.precision)}))")
        return " ".join(parts)

    def __str__(self):
        return self._pretty()

    def __repr__(self):
        return f"QSeries({self._pretty(max_terms=4)})"
