"""Named series builders: eta, classical sums, Eisenstein, Weber products."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qetakit import (PrecisionError, QSeries, Rational, eisenstein_g2,
                     eta_power, eta_series, euler_inverse, euler_product,
                     jacobi_cube_series, named_series, pentagonal_sum_series,
                     rational, verify_identity, weber_series)
from qetakit.eta import _binomial_product, theta_window, unary_theta
from qetakit.rationals import largest_int_below

from oracles import (binomial_factors_poly, cube_sum_terms,
                     distinct_partition_count, euler_factors_poly,
                     partition_count, sigma1, unary_theta_terms)

PREFIX = Rational(1, 24)


def test_eta_first_terms_against_product_oracle():
    expected = euler_factors_poly(14, 14)
    eta = eta_series(14 + PREFIX)
    got = {int(e - PREFIX): int(c) for e, c in eta.terms()}
    assert got == expected


def test_eta_times_inverse_is_one():
    eta = eta_series(15)
    product = eta * eta.invert()
    assert product.equal_up_to(QSeries.one(product.precision),
                               product.precision)


def test_eta_matches_pentagonal_sum():
    # eta is built as the pentagonal sum; its oracle is the binomial
    # product, equal as a series, precision included
    orders = [Rational(n) for n in range(1, 101)]
    orders += [Rational(n, 24) + Rational(1, 48) for n in range(1, 100 * 24, 13)]
    orders += [n + Rational(1, 3) for n in range(100)]
    for order in orders:
        assert eta_series(order) == euler_product(order - PREFIX).shift(PREFIX)


def test_euler_inverse_is_the_inverted_product():
    for order in [Rational(n) for n in range(1, 61)] + [rational("77/2"),
                                                         rational("1/3")]:
        inverse = euler_inverse(order)
        bound = max(order, 1)
        assert inverse == euler_product(bound).invert().truncate(bound)
        assert [inverse.coefficient(n) for n in range(math.ceil(bound))] \
            == [partition_count(n) for n in range(math.ceil(bound))]


def test_pentagonal_exponents_and_signs():
    # direct evaluation of (3n^2 - n)/2 over |n| <= 3
    expected = {}
    for n in range(-3, 4):
        e = (3 * n * n - n) // 2
        if e < 13:
            expected[PREFIX + e] = -1 if n % 2 else 1
    assert sorted(int(e - PREFIX) for e in expected) == [0, 1, 2, 5, 7, 12]
    series = pentagonal_sum_series(13 + PREFIX)
    assert {e: int(c) for e, c in series.terms()} == expected


def test_pentagonal_constant_term():
    assert pentagonal_sum_series(1).terms() == [(PREFIX, Rational(1))]


def test_jacobi_cube_series_low_terms():
    series = jacobi_cube_series(8)
    shift = Rational(1, 8)
    got = {int(e - shift): int(c) for e, c in series.terms()}
    assert got == {0: 1, 1: -3, 3: 5, 6: -7}


def test_jacobi_cube_series_is_the_cube_sum():
    orders = [Rational(p, q) for q in (1, 3, 8, 24) for p in range(1, 40 * q)
              if Rational(p, q) > Rational(1, 8)]
    orders += [Rational(9, 8), Rational(1, 8) + Rational(1, 10**6), 670]
    for order in orders:
        assert jacobi_cube_series(order) == QSeries.from_terms(
            cube_sum_terms(order), order), order


@settings(max_examples=150, deadline=None)
@given(modulus=st.integers(1, 30), scale=st.integers(1, 60),
       precision=st.fractions(-2, 30, max_denominator=48),
       weighted=st.booleans(), data=st.data())
def test_unary_theta_matches_the_brute_force_oracle(modulus, scale, precision,
                                                    weighted, data):
    signs = data.draw(st.dictionaries(st.integers(0, modulus - 1),
                                      st.sampled_from((1, -1))))
    terms = unary_theta_terms(modulus, signs, scale, precision, weighted)
    series = unary_theta(modulus, signs, scale, precision, weighted=weighted)
    assert series == QSeries.from_terms(terms, precision)
    window = theta_window(modulus, signs, largest_int_below(precision * scale))
    assert [(Rational(square, scale), sign * (v if weighted else 1))
            for square, v, sign, _ in window] == terms


def test_jacobi_equals_eta_cubed():
    assert eta_power(3, 60).equal_up_to(jacobi_cube_series(60), 60)


def test_g2_coefficients():
    g2 = eisenstein_g2(41)
    assert g2.coefficient(0) == Rational(-1, 12)
    assert g2.coefficient(1) == 2
    assert g2.coefficient(4) == 14
    for m in range(1, 41):
        assert g2.coefficient(m) == 2 * sigma1(m)


def test_g2_requires_positive_order():
    with pytest.raises(ValueError):
        eisenstein_g2(0)


class TestWeber:
    def test_f2_counts_distinct_partitions(self):
        f2 = weber_series("f2", 10)
        shift = Rational(1, 24)
        for n in range(9):
            assert f2.coefficient(shift + n) == distinct_partition_count(n)

    def test_f_times_f1_has_integer_steps(self):
        product = weber_series("f", 10) * weber_series("f1", 10)
        assert product.grid_denominator == 24
        assert product.lowest_term()[0] == Rational(-1, 24)
        for e, _ in product.terms():
            assert (e + Rational(1, 24)).denominator == 1

    def test_f_single_factor(self):
        f = weber_series("f", 1)
        assert f.terms() == [(Rational(-1, 48), Rational(1)),
                             (Rational(23, 48), Rational(1))]

    def test_triple_product_is_one(self):
        for order in (8, 14):
            triple = (weber_series("f", order) * weber_series("f1", order)
                      * weber_series("f2", order))
            bound = triple.precision
            assert triple.equal_up_to(QSeries.one(bound), bound)

    def test_builders_are_deterministic(self):
        for name in ("f", "f1", "f2"):
            a = weber_series(name, rational("19/2")).to_text()
            b = weber_series(name, rational("19/2")).to_text()
            assert a == b

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown Weber function"):
            weber_series("f3", 5)


class TestEtaPower:
    def test_matches_repeated_multiplication(self):
        eta = eta_series(12)
        direct = eta * eta * eta * eta
        power = eta_power(4, 12)
        assert power.precision >= 12
        assert direct.equal_up_to(power, 12)

    def test_power_zero_is_one(self):
        assert eta_power(0, 5).equal_up_to(QSeries.one(5), 5)

    def test_vacuous_order_gives_empty_series(self):
        # eta^276 starts at 11.5, so nothing is known below order 10
        series = eta_power(276, 10)
        assert series.is_zero and series.precision == 10


def test_named_series_dispatch():
    assert named_series("eta", 5) == eta_series(5)
    assert named_series("eta^6", 8) == eta_power(6, 8)
    assert named_series("g2", 5) == eisenstein_g2(5)
    assert named_series("weber_f1", 5) == weber_series("f1", 5)
    assert named_series("pentagonal_sum", 5) == pentagonal_sum_series(5)
    assert named_series("jacobi_cube_sum", 5) == jacobi_cube_series(5)
    with pytest.raises(ValueError, match="unknown series name"):
        named_series("zeta", 5)
    with pytest.raises(ValueError, match=r"integer \(eta\^M\)"):
        named_series("eta^x", 5)


def test_eta_order_precondition():
    with pytest.raises(ValueError, match="1/24"):
        eta_series(rational("1/24"))
    with pytest.raises(ValueError, match="1/24"):
        pentagonal_sum_series(rational("1/48"))


def binomial_oracle(grid, steps, sign, precision):
    """The binomial product as a QSeries from the dict-polynomial fold."""
    poly = binomial_factors_poly(steps, sign, math.ceil(precision * grid))
    return QSeries.from_terms(
        ((Rational(n, grid), c) for n, c in poly.items()), precision)


# orders up to 450; a grid runs those with at most 450 steps below the
# order, because the oracle's fold is quadratic in the step count
BINOMIAL_ORDERS = [Rational(1, 3), Rational(1), Rational(5, 2),
                   7 + Rational(1, 48), Rational(12), 31 + Rational(1, 3),
                   64 + Rational(1, 24), Rational(100), 149 + Rational(1, 2),
                   Rational(450)]


@pytest.mark.parametrize("grid", [1, 2, 3])
@pytest.mark.parametrize("sign", [1, -1])
def test_binomial_product_matches_the_fold_oracle(grid, sign):
    for order in BINOMIAL_ORDERS:
        if grid * order > 450:
            continue
        top = largest_int_below(grid * order)
        every = list(range(1, top + 1))
        sparse = every[::2]
        odd = sparse if len(sparse) % 2 else sparse[:-1]
        even = every[:-1] if len(every) % 2 else every
        for steps in ([], every[-1:], odd, even):
            # the product does not depend on the order of its factors
            expected = binomial_oracle(grid, steps, sign, order)
            for ordered in (steps, steps[::-1]):
                got = _binomial_product(grid, ordered, sign, order)
                assert got == expected, (grid, sign, order, ordered)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.sampled_from([1, -1]),
       st.integers(1, 160).map(lambda n: Rational(n, 4)), st.data())
def test_binomial_product_of_any_step_subset(grid, sign, precision, data):
    top = largest_int_below(grid * precision)
    steps = data.draw(st.lists(st.integers(1, top), unique=True, max_size=40)
                      if top else st.just([]))
    assert (_binomial_product(grid, steps, sign, precision)
            == binomial_oracle(grid, steps, sign, precision))


def test_binomial_product_steps_must_lie_below_the_precision():
    with pytest.raises(PrecisionError):
        _binomial_product(1, range(1, 13), -1, 12)
    with pytest.raises(PrecisionError):  # the largest step comes first
        _binomial_product(2, [7, 1, 3], 1, Rational(7, 2))
    with pytest.raises(PrecisionError):  # as for QSeries.one(0)
        _binomial_product(1, [], -1, 0)
    assert _binomial_product(2, [7, 1, 3], 1, Rational(15, 4)) == (
        binomial_oracle(2, [1, 3, 7], 1, Rational(15, 4)))


def test_euler_cache_builds_once_per_integer_count():
    from qetakit import eta

    eta._euler_product_cached.cache_clear()
    eta._euler_inverse_cached.cache_clear()
    orders = [10 - Rational(m, 24) for m in range(24)]
    for order in orders:
        product = eta.euler_product(order)
        top = math.ceil(order)
        expected = QSeries.from_terms(euler_factors_poly(top, top).items(),
                                      order)
        assert product == expected
        inverse = eta.euler_inverse(order)
        assert inverse.precision == order
        assert (product * inverse).equal_up_to(QSeries.one(order), order)
    # 10 and every 10 - m/24 share the count 10: one build each
    assert eta._euler_product_cached.cache_info().misses == 1
    assert eta._euler_inverse_cached.cache_info().misses == 1
    eta.euler_product(10 + Rational(1, 24))
    assert eta._euler_product_cached.cache_info().misses == 2


def test_only_verify_euler_builds_the_binomial_product(monkeypatch):
    # eta and the partition series come from the pentagonal sum; the
    # binomial product is built only as the rhs of euler, once per count
    from qetakit import eta, minimal_models

    builds = []
    product = eta._binomial_product

    def counted(grid, steps, sign, precision):
        builds.append(precision)
        return product(grid, steps, sign, precision)

    monkeypatch.setattr(eta, "_binomial_product", counted)
    for module in (eta, minimal_models):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    assert verify_identity("jacobi", order=40).match
    assert verify_identity("wronskian_raw", s=2, t=5, order=12).match
    assert verify_identity("macdonald", k=3, order=30).match
    assert verify_identity("macdonald", k=2, order=8).match
    assert builds == []
    for order in ("12", "23/2", "47/4", "12", "13"):
        assert verify_identity("euler", order=rational(order)).match
    assert builds == [12, 13]
