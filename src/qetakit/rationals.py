"""Exact rational scalars: exponents, precision bounds, constants.

The one rational type is the stdlib ``fractions.Fraction``, exported as
:data:`Rational`.  It normalises to lowest terms with a positive
denominator and prints as ``p/q`` (``p`` alone when q = 1), which is the
output convention of the whole package.  No floating point is ever
accepted: a single rounding would invalidate exact verification.

Orders enter through two functions here: :func:`parse_order` reads one
from the command line or a manifest, and :func:`order_above` is the one
admission rule of every builder and verifier, which rejects an order at or
below the leading exponent of the series it truncates, with one message.

Series coefficient arithmetic does not go through :data:`Rational`: a
:class:`~qetakit.series.QSeries` keeps plain ``int`` numerators over one
common denominator, its products, sums and inverses run on those integers,
and a coefficient becomes a :data:`Rational` only where it leaves the
series (``coefficients``, ``terms()``, ``coefficient()``).  Nor does the
rest of a verification's bookkeeping: lattice weights are ints and the
Wronskian recursion keeps its scalars as integer pairs, so a
:data:`Rational` is built only for exponents, precision bounds, constants
and the coefficient views, and :func:`rational` returns one unchanged.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction

Rational = Fraction


def rational(value):
    """Coerce ``value`` (int, 'p/q' string, Fraction) to Rational.

    Floats are rejected on purpose; use a string or Fraction instead.  A
    string that is no rational, zero denominator included, is a ValueError.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact series; "
                        "pass an int, Fraction or 'p/q' string")
    if isinstance(value, (numbers.Rational, str)):
        try:
            return Rational(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
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


def order_above(order, lead):
    """``order`` as a Rational; ValueError unless it exceeds ``lead``, the
    leading exponent of the series it truncates, as nothing lies below an
    order at or below it."""
    order = rational(order)
    if order > lead:
        return order
    raise ValueError(f"order {order} is not above the leading exponent "
                     f"{lead}; order must exceed {lead}")


def rat_floor(x) -> int:
    """Largest integer <= x."""
    return x.numerator // x.denominator


def largest_int_below(x) -> int:
    """Largest integer strictly less than x."""
    n = rat_floor(x)
    return n - 1 if x == n else n


_CHUNK = 10 ** 4000


def _int_str(n) -> str:
    """Decimal digits of the int ``n``, of any size: ``str`` refuses ints of
    more than 4300 digits by default, so wider ones go in chunks of 4000."""
    if abs(n) < _CHUNK:
        return str(n)
    high, low = divmod(abs(n), _CHUNK)
    return "-" * (n < 0) + _int_str(high) + str(low).zfill(4000)


def rat_str(x) -> str:
    """Render in the p/q lowest-terms convention (p alone when q = 1), in
    full however many digits p and q have."""
    x = rational(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"
