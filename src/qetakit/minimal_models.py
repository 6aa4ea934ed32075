"""Minimal-model bookkeeping and the three character formulas.

A model is a coprime pair ``(s, t)`` with both entries at least 2; it carries
the exact central charge ``1 - 6(s-t)^2/(st)`` and ``k = (s-1)(t-1)/2``
distinct conformal weights ``h = ((ns-mt)^2 - (s-t)^2)/(4st)``.  Characters
are produced in three independent ways (double sum over the numerator
lattice, single sum with a residue-class indicator, and an infinite product
available for s = 2); the forms agree exactly and cross-checking them is the
main internal oracle of the package.

Models and labels are the ``NamedTuple`` records :class:`MinimalModel` and
:class:`WeightLabel`, which compare by value, also with plain tuples.  A
label belongs to a model if and only if it is in range and equals
``weight_label(model, m, n)``; every character builder checks that.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

# eta_series is not called here, but bench/tracing.py wraps it at this site
from .eta import (_binomial_product, eta_series,  # noqa: F401
                  euler_inverse, unary_theta)
from .rationals import Rational, largest_int_below, order_above
from .series import QSeries


class MinimalModel(NamedTuple):
    """A coprime pair (s, t), canonically ordered s < t."""
    s: int
    t: int
    k: int
    central_charge: object  # exact rational

    def __str__(self):
        return f"(s,t)=({self.s},{self.t}), c={self.central_charge}, k={self.k}"


class WeightLabel(NamedTuple):
    """Label (m, n) with its conformal weight h and h_bar = h - c/24."""
    m: int
    n: int
    h: object
    h_bar: object


@lru_cache(maxsize=None)
def make_model(s, t):
    """Validate and canonicalise a model; raises for non-coprime input."""
    s, t = int(s), int(t)
    if s > t:
        s, t = t, s
    if s < 2 or s == t or gcd(s, t) != 1:
        raise ValueError(f"not a minimal model: s={s}, t={t} "
                         "(need coprime integers with 2 <= s < t)")
    c = 1 - Rational(6 * (s - t) ** 2, s * t)
    return MinimalModel(s, t, (s - 1) * (t - 1) // 2, c)


def weight_label(model, m, n):
    """Build the label (m, n) with its exact weights."""
    m, n = int(m), int(n)
    s, t = model.s, model.t
    if not (1 <= m < s and 1 <= n < t):
        raise ValueError(f"label out of range: (m,n)=({m},{n}) for {model}")
    h = Rational((n * s - m * t) ** 2 - (s - t) ** 2, 4 * s * t)
    return WeightLabel(m, n, h, h - model.central_charge / 24)


@lru_cache(maxsize=None)
def distinct_weights(model):
    """The k pairwise-distinct weights, in row-major (m, n) enumeration order.

    The first k entries of the (m, n) sequence are required to carry distinct
    h values; a duplicate would violate the enumeration assumption and is
    reported loudly instead of being skipped.
    """
    labels = []
    seen = set()
    for m in range(1, model.s):
        for n in range(1, model.t):
            lab = weight_label(model, m, n)
            if lab.h in seen:
                raise RuntimeError(
                    f"duplicate conformal weight h={lab.h} at (m,n)=({m},{n}) "
                    f"within the first k labels of {model}")
            seen.add(lab.h)
            labels.append(lab)
            if len(labels) == model.k:
                return tuple(labels)
    raise RuntimeError(f"could not collect k={model.k} labels for {model}")


def chi_support(model, label):
    """Residue classes mod 2st carrying indicator +1 and -1.

    Raises when the two sign classes collide, which signals a label outside
    the valid range rather than a summable configuration.
    """
    s, t = model.s, model.t
    modulus = 2 * s * t
    a = label.n * s - label.m * t
    b = label.n * s + label.m * t
    plus = frozenset((a % modulus, -a % modulus))
    minus = frozenset((b % modulus, -b % modulus))
    if plus & minus:
        raise ValueError(f"degenerate chi: residue classes overlap for "
                         f"(m,n)=({label.m},{label.n}) of {model}")
    return plus, minus


def _chi_signs(model, label):
    """The indicator of a label as a residue -> +-1 map mod 2st."""
    plus, minus = chi_support(model, label)
    return dict.fromkeys(plus, 1) | dict.fromkeys(minus, -1)


def _check_label(model, label):
    """ValueError unless ``label`` is the model's own label (m, n), weights
    included."""
    if not (1 <= label.m < model.s and 1 <= label.n < model.t
            and label == weight_label(model, label.m, label.n)):
        raise ValueError(f"label (m,n)=({label.m},{label.n}) with h={label.h}, "
                         f"h_bar={label.h_bar} does not belong to {model}")


def _double_sum_numerator(model, label, rel_order):
    """Integer-exponent numerator sum of the double-sum character formula."""
    s, t = model.s, model.t
    st = s * t
    a = label.n * s - label.m * t
    b = label.n * s + label.m * t
    mn = label.m * label.n
    cap = largest_int_below(rel_order)
    acc = {}

    def put(e, c):
        if e <= cap:
            acc[e] = acc.get(e, 0) + c

    r = 0
    while True:
        for rr in ((r,) if r == 0 else (r, -r)):
            base = st * rr * rr
            put(base + rr * a, 1)
            put(base + rr * b + mn, -1)
        r += 1
        if r > 1 and st * r * r - b * r > cap:
            break
    return QSeries._from_numerators(
        1, 0, {e: c for e, c in acc.items() if c}, 1, rel_order)


def character_double_sum(model, label, order):
    """Graded character from the double-sum formula.

    Numerator lattice cut at the exact bound, divided by the Euler product,
    then shifted by ``q^(h - c/24)``; the result is exact below ``order``.
    """
    _check_label(model, label)
    hbar = label.h_bar
    rel = order_above(order, hbar) - hbar
    numer = _double_sum_numerator(model, label, rel)
    return (numer * euler_inverse(rel)).shift(hbar)


def chi_numerator(model, label, precision):
    """The chi-form numerator ``sum_{r >= 1} chi(r) q^(r^2/(4st))`` of a
    label, with the residue-indicator signs, exact below ``precision``."""
    st = model.s * model.t
    return unary_theta(2 * st, _chi_signs(model, label), 4 * st, precision)


def character_chi_form(model, label, order):
    """Graded character from the single-sum residue-indicator formula:
    :func:`chi_numerator` divided by eta, which is the numerator times the
    cached partition series, shifted by ``q^(-1/24)``."""
    _check_label(model, label)
    order = order_above(order, label.h_bar)
    rel = order + Rational(1, 24)
    numer = chi_numerator(model, label, rel)
    return (numer * euler_inverse(rel)).shift(Rational(-1, 24))


def character_product_2k1(k, i, order):
    """Infinite-product character for the s = 2 family.

    Retains the factors ``1/(1 - q^n)`` for n not congruent to 0, i, -i
    modulo 2k+1, as the inverse of one binomial product; equal to both
    other character forms.  The labels i and 2k+1-i exclude the same
    residues and name the same character.
    """
    k, i = int(k), int(i)
    if k < 1 or not 1 <= i <= 2 * k:
        raise ValueError(f"need k >= 1 and 1 <= i <= 2k, got k={k}, i={i}")
    model = make_model(2, 2 * k + 1)
    label = weight_label(model, 1, i)
    hbar = label.h_bar
    rel = order_above(order, hbar) - hbar
    modulus = 2 * k + 1
    excluded = {0, i, modulus - i}
    steps = [n for n in range(1, largest_int_below(rel) + 1)
             if n % modulus not in excluded]
    return _binomial_product(1, steps, -1, rel).invert().shift(hbar)


def normalized_character(model, label, order):
    """Eta times the character: the double-sum numerator shifted by
    ``q^(h_bar + 1/24)``, integer coefficients, exact below ``order``."""
    _check_label(model, label)
    lead = label.h_bar + Rational(1, 24)
    rel = order_above(order, lead) - lead
    return _double_sum_numerator(model, label, rel).shift(lead)


def strange_sum_2k1(k):
    """Sum of h_bar over the k distinct weights of the (2, 2k+1) model."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    model = make_model(2, 2 * k + 1)
    return sum((lab.h_bar for lab in distinct_weights(model)), Rational(0))


def strange_sum_general(s, t):
    """Half the h_bar sum over the full (m, n) grid of the (s, t) model.

    Each weight value occurs exactly twice in the grid, so this equals the
    sum over distinct weights.
    """
    model = make_model(s, t)
    total = Rational(0)
    for m in range(1, model.s):
        for n in range(1, model.t):
            total += weight_label(model, m, n).h_bar
    return total / 2


def mu_count(k):
    """Number (and list) of coprime pairs 2 <= s < t with (s-1)(t-1) = 2k."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    target = 2 * k
    found = []
    for d in range(1, isqrt(target) + 1):
        if target % d:
            continue
        s, t = d + 1, target // d + 1
        if 2 <= s < t and gcd(s, t) == 1:
            found.append((s, t))
    found.sort()
    return len(found), found


def coprime_models(max_st):
    """All models with s*t <= max_st, ordered by (s*t, s) for determinism."""
    models = []
    for t in range(3, int(max_st) // 2 + 1):
        for s in range(2, t):
            if s * t <= max_st and gcd(s, t) == 1:
                models.append(make_model(s, t))
    models.sort(key=lambda mdl: (mdl.s * mdl.t, mdl.s))
    return models
