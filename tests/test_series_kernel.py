"""The integer coefficient kernel of QSeries against the Fraction oracles.

Products and inverses must equal, exactly and in canonical form, what the
schoolbook ``Fraction`` product and back-substitution of ``oracles`` give:
same grid, offset, precision and coefficients.  The generated series mix
grids, offsets and step strides, coefficients over different denominators,
numerators beyond 2**64 and runs of one sign, and lengths on both sides of
the schoolbook/Kronecker cutoff.  Comparison below a bound must agree
with the term-by-term comparison of ``oracles`` on the common grid.  The
Wronskian kernel's long division of step maps must give the quotient that
the oracles' inverse and product give, over its least common denominator.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qetakit import QSeries
from qetakit import series as series_module
from qetakit.series import SCHOOLBOOK_TERMS

from oracles import (equal_up_to_aligned, series_invert_fraction,
                     series_mul_fraction)

BIG = 2 ** 64


@st.composite
def kernel_series(draw, min_terms=0, max_terms=3 * SCHOOLBOOK_TERMS,
                  max_extra=40):
    """A series on a random grid with a random step stride and density,
    known up to at most ``max_extra`` past its top term.

    The shape is drawn by hypothesis; the term values (numerators in runs
    of one sign, small or beyond 2**64, over denominators that differ from
    term to term) come from one drawn seed, which keeps generation cheap.
    """
    D = draw(st.sampled_from((1, 2, 3, 4, 6, 24)))
    offset = draw(st.integers(-30, 30))
    stride = draw(st.sampled_from((1, 1, 2, 3, 24)))
    count = draw(st.integers(min_terms, max_terms))
    magnitude = draw(st.sampled_from((9, 10 ** 6, BIG * 7)))
    denominators = draw(st.sampled_from(((1,), (1, 2, 3, 7),
                                         (1, 1, 2, 3, 7, BIG + 1))))
    dense = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    slots = (range(count) if dense
             else sorted(rng.sample(range(3 * count + 3), count)))
    coeffs = {}
    sign = 1
    for slot in slots:
        if rng.random() < 0.2:
            sign = -sign
        coeffs[offset + slot * stride] = Fraction(
            sign * rng.randint(1, magnitude),
            rng.choice(denominators))
    top = max(coeffs, default=offset)
    precision = Fraction(top, D) + Fraction(draw(st.integers(1, max_extra)),
                                            draw(st.sampled_from((1, 2, D))))
    return QSeries(D, 0, coeffs, precision)


def assert_same_series(got, expected):
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.to_text() == expected.to_text()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kernel_series(), kernel_series())
def test_product_matches_fraction_oracle(x, y):
    assert_same_series(x * y, series_mul_fraction(x, y))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel_series(min_terms=SCHOOLBOOK_TERMS + 1),
       kernel_series(min_terms=SCHOOLBOOK_TERMS + 1))
def test_both_product_paths_agree(x, y):
    expected = series_mul_fraction(x, y)
    for cutoff in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "SCHOOLBOOK_TERMS", cutoff)
            assert_same_series(x * y, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_series(min_terms=2))
def test_square_matches_fraction_oracle(x):
    assert_same_series(x * x, series_mul_fraction(x, x))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kernel_series(min_terms=1, max_terms=2 * SCHOOLBOOK_TERMS,
                    max_extra=4),
       st.booleans())
def test_inverse_matches_fraction_oracle(x, unit):
    if unit:
        # constant numerator +-1: the long division never scales, so its
        # quotient is integral (d = 1)
        x = x * x.lowest_term()[1] ** -1
    assert_same_series(x.invert(), series_invert_fraction(x))


@pytest.mark.parametrize("x", [
    # c0 = -3 cut after 5 and after 6 steps
    QSeries(1, 0, {0: -3, 1: 1, 2: 5, 4: -2}, 5),
    QSeries(1, 0, {0: -3, 1: 1, 2: 5, 4: -2}, 6),
    QSeries(1, 0, {0: 2 ** 70 + 1, 1: -2 ** 64, 3: 7}, 9),
    # den > 1, on a fractional grid with a step stride of 3
    QSeries(4, 3, {0: Fraction(-3, 5), 3: Fraction(7, 10),
                   9: Fraction(1, 3)}, Fraction(31, 4)),
    # a single key, so the key gcd is 0, with c0 not dividing den
    QSeries.monomial(Fraction(-3, 7), Fraction(1, 24), 5),
    # cap 0: only step 0 is kept
    QSeries(1, 0, {0: -1}, 1),
    # a negative unit numerator at step 0, stride 3 and den > 1
    QSeries(3, 1, {0: Fraction(-1, 5), 6: Fraction(2, 5), 9: 1}, 8),
], ids=["c0=-3,odd", "c0=-3,even", "c0=2**70+1", "den>1", "monomial",
        "cap=0", "c0=-1,stride=3"])
def test_inverse_of_a_non_unit_series_matches_fraction_oracle(x):
    assert_same_series(x.invert(), series_invert_fraction(x))


@pytest.mark.parametrize("c0", [3, -7])
def test_inverse_of_a_non_unit_series_is_integer_arithmetic(monkeypatch, c0):
    # the recurrence runs on int numerators: the rational operations left
    # (exponents and the precision bound) do not grow with the term count
    calls = []
    for name in ("__add__", "__mul__", "__truediv__"):
        def counted(self, other, _original=getattr(Fraction, name)):
            calls.append(1)
            return _original(self, other)
        monkeypatch.setattr(Fraction, name, counted)

    def rational_operations(terms):
        coeffs = {n: n % 5 - 2 for n in range(1, terms)}
        coeffs[0] = c0
        x = QSeries(1, 0, coeffs, terms)
        calls.clear()
        x.invert()
        return len(calls)

    assert rational_operations(20) == rational_operations(400)


@st.composite
def compared_pairs(draw):
    """``(x, y, bound)`` with ``bound`` at or below both precisions: ``y``
    is ``x`` known further, ``x`` with one term added on another grid, or
    drawn on its own (the zero series among them), and ``bound`` is the
    lesser precision, the exponent of a term or a step below one."""
    x = draw(kernel_series(max_terms=SCHOOLBOOK_TERMS))
    kind = draw(st.sampled_from(("further", "added", "own")))
    if kind == "further":
        y = QSeries(x.grid_denominator, x.offset, dict(x.coefficients),
                    x.precision + draw(st.integers(1, 3)))
    elif kind == "added":
        grid = draw(st.sampled_from((1, 5, 8, 24)))
        low = x.precision - 2 if x.is_zero else x.lowest_term()[0]
        e = low + Fraction(draw(st.integers(-grid, 3 * grid)), grid)
        c = draw(st.sampled_from((1, -3, Fraction(2, 7))))
        y = x + QSeries.monomial(c, e, max(x.precision, e + 1))
    else:
        y = draw(kernel_series(max_terms=SCHOOLBOOK_TERMS))
    top = min(x.precision, y.precision)
    bounds = [top] + [e for e, _ in x.terms() + y.terms() if e <= top]
    bound = draw(st.sampled_from(bounds))
    return x, y, bound - draw(st.sampled_from((0, 0, Fraction(1, 48))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(compared_pairs())
def test_equal_up_to_matches_aligned_oracle(pair):
    x, y, bound = pair
    expected = equal_up_to_aligned(x, y, bound)
    assert x.equal_up_to(y, bound) == expected
    assert y.equal_up_to(x, bound) == expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kernel_series(), kernel_series(), st.fractions(max_denominator=9))
def test_ring_results_are_canonical(x, y, c):
    # the same series through the public constructor and through ring
    # operations is == and hash-equal
    for z in (x * y, x + y, (x + y) - y, c * x, x.theta_derive(),
              x.shift(Fraction(1, 5))):
        rebuilt = QSeries(z.grid_denominator, z.offset, dict(z.coefficients),
                          z.precision)
        assert_same_series(z, rebuilt)
        assert_same_series(z, QSeries.from_terms(z.terms(), z.precision))
    P = min(x.precision, y.precision)
    assert_same_series((x + y) - y, x.truncate(P))


@pytest.mark.parametrize("magnitude", [2 ** 5, 2 ** 33, 2 ** 5 - 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_kronecker_digits_hold_the_largest_coefficient(magnitude, sign):
    # 32 equal numerators on each side: the middle coefficient of the
    # product reaches the digit bound 32 * magnitude**2 itself, which fills
    # the top bit of a digit exactly when it is 2**(8w - 1)
    n = 2 * SCHOOLBOOK_TERMS
    x = QSeries(1, 0, dict.fromkeys(range(n), magnitude), 2 * n)
    y = QSeries(1, 0, dict.fromkeys(range(n), sign * magnitude), 2 * n)
    assert_same_series(x * y, series_mul_fraction(x, y))
    assert_same_series(y * y, series_mul_fraction(y, y))
    assert (x * y).coefficient(n - 1) == sign * n * magnitude ** 2


@pytest.mark.parametrize("width,exponent", [(9, 29), (17, 61)])
def test_kronecker_digits_wider_than_a_machine_word(monkeypatch, width,
                                                    exponent):
    # 32 numerators up to 2**exponent in runs of one sign: the digit bound
    # 32 * 2**(2 * exponent) needs `width` bytes, a width no array typecode
    # holds, so every digit goes through int.to_bytes as c % B
    n = 2 * SCHOOLBOOK_TERMS
    top = 1 << exponent

    def runs(length, seed):
        return {i: (-1) ** (i // length) * (top - seed * i) for i in range(n)}

    widths = []
    pack = series_module._pack

    def recording_pack(num, stride, w, signs):
        widths.append(w)
        return pack(num, stride, w, signs)

    monkeypatch.setattr(series_module, "_pack", recording_pack)
    x = QSeries(1, 0, runs(5, 3), 2 * n)
    y = QSeries(1, 0, runs(3, 7), 2 * n)
    assert_same_series(x * y, series_mul_fraction(x, y))
    assert_same_series(y * y, series_mul_fraction(y, y))
    assert widths == [width] * 3


@st.composite
def step_maps(draw, cap):
    """A step -> int map, possibly empty, with steps up to ``cap``, as the
    Wronskian kernel passes to ``_products``: a random start, stride and
    density, numerators in runs of one sign, small or beyond 2**64."""
    start = draw(st.integers(0, 12))
    stride = draw(st.sampled_from((1, 1, 2, 3)))
    count = draw(st.integers(0, 3 * SCHOOLBOOK_TERMS))
    magnitude = draw(st.sampled_from((9, 10 ** 6, BIG * 7)))
    dense = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    slots = (range(count) if dense
             else sorted(rng.sample(range(3 * count + 3), count)))
    num = {}
    sign = 1
    for slot in slots:
        if rng.random() < 0.2:
            sign = -sign
        if start + slot * stride <= cap:
            num[start + slot * stride] = sign * rng.randint(1, magnitude)
    return num


def fused_products(pairs, cap):
    """``_products`` on the pairs whose operands are both nonempty, as the
    Wronskian kernel calls it; no such pair is the empty map."""
    live = [(xs, ys) for xs, ys in pairs if xs and ys]
    return series_module._products(live, cap) if live else {}


def products_by_mul(pairs, cap):
    """The same sum by ``QSeries.__mul__`` and ``+``, each factor a series
    on grid 1 known below ``cap + 1``, read back as a step -> int map."""
    total = QSeries.zero(cap + 1)
    for xs, ys in pairs:
        total += QSeries(1, 0, xs, cap + 1) * QSeries(1, 0, ys, cap + 1)
    return {int(e): int(c) for e, c in total.terms()}


def minus(num):
    return {s: -c for s, c in num.items()}


def shifted(num, shift, cap):
    return {s + shift: c for s, c in num.items() if s + shift <= cap}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 160), st.data())
def test_fused_difference_matches_two_products(cap, data):
    # a two-pair sum with one factor negated is the difference of the two
    # products; starts, strides, empty maps, term counts on both sides of
    # the cutoff and numerators beyond 2**64 vary, and both read-backs
    # must give that difference
    a, b, c, d = (data.draw(step_maps(cap)) for _ in range(4))
    pairs = [(a, b), (minus(c), d)]
    expected = products_by_mul(pairs, cap)
    for cutoff in (0, SCHOOLBOOK_TERMS, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "SCHOOLBOOK_TERMS", cutoff)
            assert fused_products(pairs, cap) == expected


CAP = 70
X = {n: (-1) ** n * (n + 2) for n in range(0, 60, 2)}
Y = {n: BIG * (n + 1) for n in range(0, 40, 3)}


@pytest.mark.parametrize("pairs", [
    # the second product starts 5 steps up; starting at step 80, none of
    # its terms is left at or below the cap
    [(X, Y), (minus(X), shifted(Y, 5, CAP))],
    [(X, Y), (shifted(minus(X), 50, CAP), shifted(Y, 30, CAP))],
    [({}, Y), (minus(X), Y)],
    [(X, Y), (minus(X), {})],
    [({}, Y), (minus(X), {})],
    [(X, X), (Y, Y)],
    [(X, Y), (minus(X), Y)],
], ids=["shifted", "cut-off", "zero-a", "zero-d", "all-zero", "squares",
        "cancel"])
def test_fused_difference_edge_cases(pairs):
    expected = products_by_mul(pairs, CAP)
    for cutoff in (0, 10 ** 9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(series_module, "SCHOOLBOOK_TERMS", cutoff)
            assert fused_products(pairs, CAP) == expected


def test_fused_difference_packs_digits_wider_than_a_word(monkeypatch):
    # numerators near 2**70 on 32 terms: one digit of the sum needs 19
    # bytes, which no array typecode holds
    n = 2 * SCHOOLBOOK_TERMS
    x = {i: (-1) ** (i // 5) * (2 ** 70 - 3 * i) for i in range(n)}
    y = {i: (-1) ** (i // 3) * (2 ** 69 + 7 * i) for i in range(n)}
    pairs = [(x, shifted(y, 1, 2 * n)), (minus(y), shifted(x, 2, 2 * n))]
    widths = []
    pack = series_module._pack

    def recording_pack(num, stride, w, signs):
        widths.append(w)
        return pack(num, stride, w, signs)

    monkeypatch.setattr(series_module, "_pack", recording_pack)
    fused = fused_products(pairs, 2 * n)
    monkeypatch.undo()
    assert fused == products_by_mul(pairs, 2 * n)
    assert widths and min(widths) > 8


@st.composite
def divisors(draw, cap):
    """A step -> int map with a nonzero step 0, as the Wronskian kernel
    divides by: a unit, a small or a wide ``c0`` of either sign."""
    num = draw(step_maps(cap))
    num[0] = draw(st.sampled_from((1, -1, 2, -3, 12, 2 ** 70 + 1,
                                   -(2 ** 65))))
    return num


def quotient_by_fractions(num, divisor, cap):
    """``num / divisor`` up to step ``cap`` as a step -> Fraction map, by
    the ``Fraction`` inverse and product of ``oracles`` on grid 1."""
    inverse = series_invert_fraction(QSeries(1, 0, divisor, cap + 1))
    return {int(e): c for e, c in
            series_mul_fraction(QSeries(1, 0, num, cap + 1), inverse).terms()}


def assert_quotient(num, divisor, cap):
    """``(q, d)`` of the kernel is the oracle's quotient over its least
    common denominator; returns ``d``."""
    q, d = series_module._quotient_numerators(num, divisor, cap)
    assert d > 0 and gcd(d, *q.values()) == 1
    assert {n: Fraction(c, d) for n, c in q.items()} == \
        quotient_by_fractions(num, divisor, cap)
    return d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 60), st.data())
def test_quotient_matches_fraction_oracle(cap, data):
    # any dividend, the empty map included: a c0 that does not divide the
    # running numerator scales the quotient so far and d
    assert_quotient(data.draw(step_maps(cap)), data.draw(divisors(cap)),
                    cap)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 60), st.data())
def test_exact_quotient_is_integral(cap, data):
    # a dividend that is the divisor times an integer map, as Sylvester's
    # identity makes the kernel's, divides back to that map over 1
    divisor = data.draw(divisors(cap))
    quotient = data.draw(step_maps(cap))
    num = products_by_mul([(divisor, quotient)], cap)
    assert assert_quotient(num, divisor, cap) == 1
    assert series_module._quotient_numerators(num, divisor, cap)[0] == \
        quotient


@pytest.mark.parametrize("num,divisor,cap,d", [
    ({0: 6}, {0: 4}, 5, 2),
    ({0: 5}, {0: -3}, 0, 3),
    ({}, {0: -3, 2: 1}, 9, 1),
    ({0: 1}, {0: 3, 2: 1}, 6, 81),
    ({0: -2, 1: 1, 2: -6, 3: 3}, {0: -2, 1: 1}, 8, 1),
    ({3: 1}, {0: -6, 3: 4}, 12, 162),
], ids=["only-key-0", "only-key-0-negative", "empty", "stride-2",
        "negative-c0-integral", "negative-c0-stride-3"])
def test_quotient_edge_cases(num, divisor, cap, d):
    assert assert_quotient(num, divisor, cap) == d


def test_products_cut_by_precision():
    # x has its terms up to q^40 but y is known only below q^3: the product
    # is known below 3 + low(x) = 3
    x = QSeries(1, 0, {n: BIG + n for n in range(41)}, 41)
    y = QSeries(1, 0, {n: -(n + 1) for n in range(3)}, 3)
    product = x * y
    assert product.precision == 3
    assert_same_series(product, series_mul_fraction(x, y))
    assert product == x.truncate(3) * y


def test_coefficients_view_is_read_only_fractions():
    x = QSeries(2, 1, {0: Fraction(1, 3), 4: Fraction(-5, 6)}, 9)
    assert dict(x.coefficients) == {0: Fraction(1, 3), 4: Fraction(-5, 6)}
    assert len(x.coefficients) == 2 and 4 in x.coefficients
    with pytest.raises(TypeError):
        x.coefficients[0] = 1


# ----------------------------------------------------------------------
# the grid view: numerators re-keyed onto a finer grid, cut at a cap
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_series(), st.sampled_from((1, 1, 2, 3, 8)), st.data())
def test_grid_view_matches_rekeyed_terms(x, multiple, data):
    D = x.grid_denominator * multiple
    rekeyed = {int(e * D): c * x._den for e, c in x.terms()}
    assert all(c.denominator == 1 for c in rekeyed.values())
    keys = sorted(rekeyed) or [x.offset * multiple]
    origin = data.draw(st.one_of(st.just(x.offset * multiple),
                                 st.integers(keys[0] - 40, keys[-1] + 40)))
    # caps from below the first key to past the last one
    cap = data.draw(st.integers(keys[0] - origin - 6, keys[-1] - origin + 6))
    got = x._on_grid(D, origin, cap)
    assert got == {key - origin: c for key, c in rekeyed.items()
                   if key - origin <= cap}
    if multiple == 1 and origin == x.offset and cap >= keys[-1] - origin:
        assert got is x._num  # nothing moves and nothing is cut


def test_operations_leave_their_inputs_numerators_alone():
    from qetakit import eta_series, wronskian
    from qetakit.identities import empirical_constant

    eta = eta_series(12)
    inputs = [eta, eta.truncate(5), eta.shift(1), 3 * eta,
              QSeries(2, 1, {0: Fraction(1, 3), 4: Fraction(-5, 6)}, 9),
              QSeries(1, 0, {n: BIG + n for n in range(41)}, 41),
              QSeries.zero(7)]
    before = [dict(x._num) for x in inputs]
    for x in inputs:
        x.truncate(x.precision - 1)
        x.truncate(x.precision)
        for y in inputs:
            order = min(x.precision, y.precision)
            x + y
            x * y
            x.equal_up_to(y, order)
            if not (x.is_zero and y.is_zero):
                empirical_constant(x, y, order)
    wronskian([eta, eta.shift(1), eta.shift(2)])
    wronskian(inputs[:3])
    assert [x._num for x in inputs] == before
