"""Exact rational scalars: exponents, precision bounds, constants.

gmpy2's ``mpq`` is used when available; ``fractions.Fraction`` is the stdlib
fallback.  Both normalise to lowest terms with a positive denominator and
print as ``p/q`` (``p`` alone when q = 1), which is the output convention of
the whole package.  No floating point is ever accepted: a single rounding
would invalidate exact verification.

Series coefficient arithmetic does not go through :data:`Rational`: a
:class:`~qetakit.series.QSeries` keeps plain ``int`` numerators over one
common denominator and converts to :data:`Rational` only where a coefficient
leaves it (``coefficients``, ``terms()``, ``coefficient()``), and in the
inverse of a series whose lowest numerator is not +-1.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    Rational = Fraction

#: Types accepted wherever an exact scalar is expected.
RationalLike = "int | str | Fraction | Rational"

_RAT_ZERO = Rational(0)
_RAT_ONE = Rational(1)


def rational(value, denominator=None):
    """Coerce ``value`` (int, 'p/q' string, Fraction, Rational) to Rational.

    Floats are rejected on purpose; use a string or Fraction instead.
    """
    if denominator is not None:
        return Rational(value, denominator)
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact series; "
                        "pass an int, Fraction or 'p/q' string")
    if isinstance(value, (numbers.Rational, str)):
        return Rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


_ORDER_RE = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def parse_order(value):
    """A command-line or manifest order: an int, or a string ``n`` or
    ``p/q`` with q > 0 (no decimals or blanks); ValueError otherwise."""
    if type(value) is int or (isinstance(value, str)
                              and _ORDER_RE.fullmatch(value)):
        return Rational(value)
    raise ValueError(f"bad order {value!r}; an order must be an integer or "
                     "a 'p/q' string")


def rat_floor(x) -> int:
    """Largest integer <= x."""
    return int(x.numerator // x.denominator)


def rat_ceil(x) -> int:
    """Smallest integer >= x."""
    return -int((-x.numerator) // x.denominator)


def largest_int_below(x) -> int:
    """Largest integer strictly less than x."""
    n = rat_floor(x)
    return n - 1 if x == n else n


def rat_str(x) -> str:
    """Render in the p/q lowest-terms convention (p alone when q = 1)."""
    return str(rational(x))
