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
uses on bare step -> numerator maps.  Values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numbers
import re
import sys
from array import array
from collections.abc import Mapping
from itertools import repeat
from math import gcd, lcm

from .rationals import Rational, largest_int_below, rat_floor, rational


class PrecisionError(ValueError):
    """Raised when a request reaches at or beyond a series' precision bound."""


class NotInvertibleError(ArithmeticError):
    """Raised when inverting a series that is zero up to its precision."""


_HEADER_RE = re.compile(r"^D=(\d+) P=(-?\d+(?:/\d+)?)$")

#: A product whose shorter factor has at most this many terms runs the
#: schoolbook loop; longer factors go through Kronecker substitution.  For
#: two dense factors of n terms the two cost the same at n = 16 to 20,
#: whether the numerators have 4, 20 or 100 bits (Python 3.11, 2-vCPU
#: Intel Xeon); the schoolbook loop stays faster when either factor is
#: short, as at the low levels of the binomial product trees in
#: :mod:`qetakit.eta`, whose upper levels go through Kronecker substitution.
SCHOOLBOOK_TERMS = 16

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
        return 1, rat_floor(P), {}, 1, P
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


def _over_common_denominator(values):
    """``(numerators, den)`` of a step -> int or Rational map, ``den`` the
    lcm of the denominators; zero values are dropped."""
    den = 1
    for c in values.values():
        den = lcm(den, c.denominator)
    return ({n: c.numerator * (den // c.denominator)
             for n, c in values.items() if c}, den)


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
    width = (bound.bit_length() + 8) // 8
    width = min((w for w in _WORD_CODES if w >= width), default=width)
    half = 1 << (8 * width - 1)
    # the top bit of each of the sum's digits: the sign bits of a packed
    # factor, which has no more digits, and the bias that makes the sum's
    # digits non-negative
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    total = 0
    for xs, ys in pairs:
        px = _pack(xs, stride, width, bias)
        total += px * px if xs is ys else px * _pack(ys, stride, width, bias)
    low = (total + bias) & ((1 << (8 * width * count)) - 1)
    return {i * stride: d - half
            for i, d in enumerate(_int_to_words(low, count, width))
            if d != half}


def _products(pairs, cap):
    """The sum of products of :func:`_schoolbook_product` over one or more
    pairs: by the schoolbook loop while the shorter factor of every pair has
    at most :data:`SCHOOLBOOK_TERMS` terms, by Kronecker substitution
    otherwise."""
    if max(min(len(xs), len(ys)) for xs, ys in pairs) <= SCHOOLBOOK_TERMS:
        return _schoolbook_product(pairs, cap)
    return _kronecker_product(pairs, cap)


def _inverse_numerators(num, count):
    """``(inv, scale)``: ``inv / scale`` is the inverse, below step
    ``count``, of the series with the step -> numerator map ``num``, whose
    step 0 is nonzero; ``inv`` maps steps to ints and ``scale`` is
    ``num[0]**m`` for ``m`` the number of reduced steps kept.

    With ``N(t) = c0 + c1 t + ...`` (``t`` the reduced step), ``M(t) =
    N(c0 t) / c0`` has integer coefficients ``c_j c0^(j-1)`` and constant
    term 1, so ``V = 1/M`` is found by back-substitution without a
    division, and ``1/N(t) = V(t/c0) / c0``: reduced step j gets ``V_j
    c0^(m-1-j)`` over ``c0^m``.
    """
    c0 = num[0]
    g = gcd(*num) or count
    count = (count - 1) // g + 1
    inner = sorted((n // g, c * c0 ** (n // g - 1))
                   for n, c in num.items() if n and n // g < count)
    v = [0] * count
    v[0] = 1
    for m in range(1, count):
        total = 0
        for j, mj in inner:
            if j > m:
                break
            vk = v[m - j]
            if vk:
                total += mj * vk
        v[m] = -total
    inv = {}
    power = 1
    for m in range(count - 1, -1, -1):
        if v[m]:
            inv[m * g] = v[m] * power
        power *= c0
    return inv, power


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
        D = int(grid_denominator)
        if D <= 0:
            raise ValueError("grid denominator must be >= 1")
        a = int(offset)
        P = rational(precision)
        num, den = _over_common_denominator(
            {int(n): c if type(c) is int else rational(c)
             for n, c in coefficients.items()})
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
        D = 1
        for e in acc:
            D = lcm(D, e.denominator)
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
        return self + (-other if isinstance(other, QSeries)
                       else -rational(other))

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
        n = int(n)
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
        With numerators ``N`` over ``den``, the inverse is ``den / N``, and
        ``1/N`` is the one integer back-substitution of
        :func:`_inverse_numerators`.
        """
        if not self._num:
            raise NotInvertibleError("not invertible: series is zero up to "
                                     f"precision {self.precision}")
        D = self.grid_denominator
        a = self.offset
        den = self._den
        e = Rational(a, D)
        rel = self.precision - e
        inv, scale = _inverse_numerators(self._num,
                                         largest_int_below(rel * D) + 1)
        if scale < 0:
            scale, den = -scale, -den
        if den != 1:
            inv = {n: den * c for n, c in inv.items()}
        return QSeries._from_numerators(D, -a, inv, scale, rel - e)

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
        """Interchange text format: header line then exponent/coefficient lines."""
        lines = [f"D={self.grid_denominator} P={self.precision}"]
        lines.extend(f"{e} {c}" for e, c in self.terms())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the :meth:`to_text` format."""
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
            e = rational(se)
            if D % e.denominator:
                raise ValueError(f"exponent {se} is off the declared grid 1/{D}")
            terms.append((e, rational(sc)))
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
                term = f"{c}"
            else:
                mag = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                term = f"{mag}q^({e})"
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
        parts.append(f"+ O(q^({self.precision}))")
        return " ".join(parts)

    def __str__(self):
        return self._pretty()

    def __repr__(self):
        return f"QSeries({self._pretty(max_terms=4)})"
