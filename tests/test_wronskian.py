"""Wronskian determinants, the Vandermonde expansion oracle, scaling laws."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from qetakit import (QSeries, Rational, abel_log_derivative_check,
                     character_double_sum, chi_numerator, coprime_models,
                     distinct_weights, eisenstein_g2, eta_power, eta_series,
                     make_model, normalized_character, rational, vandermonde,
                     weber_series, wronskian)
from qetakit import series as series_module
from qetakit.identities import IDENTITIES, verify_identity
from qetakit.minimal_models import chi_support
from qetakit.wronskian import _distinct_leading_exponents, _jacobi_recursion

from oracles import (matrix_determinant, random_series, scale_by_matrix,
                     wronskian_bareiss, wronskian_subset_minor,
                     wronskian_vandermonde_expand)

# the package re-exports the function wronskian under its module's name
wronskian_module = sys.modules["qetakit.wronskian"]


def assert_matches_oracles(vec):
    """The kernel agrees with both oracles and reaches the Vandermonde
    expansion's precision bound, sum of lows + min(P - low)."""
    det = wronskian(vec)
    exp = wronskian_vandermonde_expand(vec)
    assert det.precision >= exp.precision
    assert det.equal_up_to(exp, exp.precision)
    sub = wronskian_subset_minor(vec)
    assert det.equal_up_to(sub, min(det.precision, sub.precision))
    return det


class TestVandermonde:
    def test_direct_product(self):
        assert vandermonde([1, 2, 3]) == 2

    def test_ints_give_an_int(self):
        # the lattice walks weigh every tuple by it, so it stays off Fraction
        assert type(vandermonde([1, 2, 3])) is int

    def test_repeated_entry(self):
        assert vandermonde([4, 7, 4]) == 0

    def test_singleton(self):
        assert vandermonde([Fraction(3, 7)]) == 1

    def test_fractional(self):
        xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        expected = ((xs[1] - xs[0]) * (xs[2] - xs[0]) * (xs[2] - xs[1]))
        assert vandermonde(xs) == expected


class TestWronskian:
    def test_single_entry(self):
        x = QSeries.from_terms([(1, 2), (3, -1)], 9)
        assert wronskian([x]) == x
        with pytest.raises(ValueError, match="at least one series"):
            wronskian([])

    def test_one_and_q(self):
        w = wronskian([QSeries.one(10), QSeries.monomial(1, 1, 10)])
        assert w.terms() == [(Rational(1), Rational(1))]

    def test_monomials(self):
        a, b = rational("1/3"), rational("5/2")
        w = wronskian([QSeries.monomial(1, a, 10),
                       QSeries.monomial(1, b, 10)])
        assert w.lowest_term() == (a + b, b - a)

    def test_swap_negates(self):
        rng = random.Random(11)
        for _ in range(20):
            x, y = (random_series(rng, allow_zero=False) for _ in range(2))
            w_xy = wronskian([x, y])
            w_yx = wronskian([y, x])
            bound = min(w_xy.precision, w_yx.precision)
            assert w_xy.equal_up_to(-w_yx, bound)

    def test_duplicate_entry_vanishes(self):
        x = QSeries.from_terms([(0, 1), (2, 5)], 8)
        y = QSeries.from_terms([(1, 3)], 8)
        w = wronskian([x, y, x])
        assert w.equal_up_to(QSeries.zero(w.precision), w.precision)

    def test_multilinearity(self):
        rng = random.Random(12)
        for _ in range(20):
            x, y, z = (random_series(rng, allow_zero=False) for _ in range(3))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            lhs = wronskian([c * x, y, z])
            rhs = c * wronskian([x, y, z])
            bound = min(lhs.precision, rhs.precision)
            assert lhs.equal_up_to(rhs, bound)


class TestVandermondeExpansion:
    def test_matches_determinant_on_random_vectors(self):
        rng = random.Random(13)
        for _ in range(20):
            vec = [random_series(rng, max_terms=6, allow_zero=False)
                   for _ in range(3)]
            det = wronskian(vec)
            exp = wronskian_vandermonde_expand(vec)
            assert det.precision >= exp.precision
            assert det.equal_up_to(exp, exp.precision)

    def test_monomial_vector_closed_form(self):
        a, b = rational("1/2"), rational("7/3")
        vec = [QSeries.monomial(2, a, 12), QSeries.monomial(3, b, 12)]
        exp = wronskian_vandermonde_expand(vec)
        assert exp.lowest_term() == (a + b, 6 * (b - a))

    def test_identical_entries_vanish(self):
        x = QSeries.from_terms([(0, 1), (1, -2), (3, 1)], 9)
        exp = wronskian_vandermonde_expand([x, x])
        assert exp.is_zero


@st.composite
def series_vectors(draw):
    """1 to 4 series on a shared small grid, so leading exponents often
    coincide; some entries are scaled copies of an earlier one."""
    den = draw(st.sampled_from((1, 2, 3, 4)))
    k = draw(st.integers(1, 4))
    vec = []
    for _ in range(k):
        if vec and draw(st.booleans()):
            base = draw(st.sampled_from(vec))
            scale = Fraction(draw(st.integers(-3, 3)) or 1)
            vec.append(scale * base)
            continue
        terms = draw(st.lists(
            st.tuples(st.integers(-6, 12), st.integers(-3, 3)),
            min_size=1, max_size=5))
        top = max(e for e, _ in terms)
        precision = Fraction(top + draw(st.integers(1, 6)), den)
        vec.append(QSeries.from_terms(
            [(Fraction(e, den), c) for e, c in terms], precision))
    return vec


class TestKernelAgainstOracles:
    def test_random_vectors_k1_to_5(self):
        rng = random.Random(21)
        for k in range(1, 6):
            for _ in range(8):
                vec = [random_series(rng, max_terms=4, allow_zero=False)
                       for _ in range(k)]
                assert_matches_oracles(vec)

    def test_shared_leading_exponent(self):
        x = QSeries.from_terms([(Fraction(1, 3), 2), (Fraction(4, 3), -1),
                                (3, 5)], 7)
        y = QSeries.from_terms([(Fraction(1, 3), -3), (Fraction(7, 3), 1)], 6)
        z = QSeries.from_terms([(Fraction(1, 3), 1), (2, 4)], 8)
        det = assert_matches_oracles([x, y, z])
        assert not det.is_zero

    def test_duplicated_entries(self):
        x = QSeries.from_terms([(0, 1), (1, -2), (Fraction(5, 2), 3)], 9)
        y = QSeries.from_terms([(Fraction(1, 2), 1), (3, 1)], 9)
        det = assert_matches_oracles([x, y, x])
        assert det.is_zero
        assert assert_matches_oracles([x, 3 * x]).is_zero

    def test_column_zero_up_to_precision(self):
        x = QSeries.from_terms([(0, 1), (2, 1)], 5)
        y = QSeries.from_terms([(0, 1), (2, 1), (6, 1)], 8)
        z = QSeries.from_terms([(1, 1)], 8)
        det = assert_matches_oracles([x, y, z])
        assert det.is_zero and det.precision == 6
        assert assert_matches_oracles([QSeries.zero(4), z]).is_zero

    def test_weber_triple(self):
        vec = [weber_series(w, 6) for w in ("f", "f1", "f2")]
        det = assert_matches_oracles(vec)
        assert det.lowest_term() == (Rational(1, 2), Rational(7, 256))

    def test_colliding_leads_reduce_to_distinct_leads(self, monkeypatch):
        # f and f1 both lead at q^(-1/48); leading coefficients are read
        # for that one collision only, one from each column
        vec = [weber_series(w, 6) for w in ("f", "f1", "f2")]
        assert vec[0]._low_exponent() == vec[1]._low_exponent()
        reads = 0
        original = QSeries.lowest_term

        def counting(series):
            nonlocal reads
            reads += 1
            return original(series)

        monkeypatch.setattr(QSeries, "lowest_term", counting)
        columns = _distinct_leading_exponents(vec)
        monkeypatch.undo()
        assert reads == 2
        leads = [y._low_exponent() for y in columns]
        assert leads == [Rational(-1, 48), Rational(23, 48), Rational(1, 24)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(series_vectors())
    def test_property_matches_oracles(self, vec):
        assert_matches_oracles(vec)

    def test_entry_precision_reaches_order(self):
        for s, t in ((2, 5), (3, 4), (3, 5)):
            for name in ("wronskian_raw", "wronskian_normalized"):
                vec = IDENTITIES[name].built_columns(6, s=s, t=t)
                assert wronskian(vec).precision >= 6
                assert_matches_oracles(vec)
        with pytest.raises(ValueError, match="leading exponent 1/6"):
            IDENTITIES["wronskian_raw"].built_columns(Rational(1, 10), s=2,
                                                      t=5)

    @pytest.mark.parametrize("s,t,k", [(2, 5, 2), (3, 4, 3), (3, 5, 4),
                                       (4, 7, 9), (5, 8, 14)])
    def test_products_are_quadratic_in_k(self, monkeypatch, s, t, k):
        model = make_model(s, t)
        base = sum(lab.h_bar for lab in distinct_weights(model))
        vec = IDENTITIES["wronskian_raw"].built_columns(base + 4, s=s, t=t)
        assert len(vec) == k
        products = 0
        series_products = wronskian_module._products

        def counting_products(pairs, cap):
            nonlocal products
            products += len(pairs)
            return series_products(pairs, cap)

        monkeypatch.setattr(wronskian_module, "_products", counting_products)
        wronskian(vec)
        monkeypatch.undo()
        # two product pairs per entry and step, read back as one fused
        # difference and divided exactly by the previous pivot, so no third
        # pair by its inverse: k(k-1) in all; Bareiss elimination needs 548
        # for k = 9 and the subset-minor expansion k * (2^(k-1) - 1) = 2295
        assert products == k * (k - 1)

    @pytest.mark.parametrize("s,t,k", [(2, 5, 2), (3, 4, 3), (4, 7, 9)])
    def test_divides_by_every_pivot_but_the_last(self, monkeypatch, s, t, k):
        vec = IDENTITIES["wronskian_raw"].built_columns(10, s=s, t=t)
        assert len(vec) == k
        divisors = []
        inverts = 0
        quotient_numerators = wronskian_module._quotient_numerators
        invert = QSeries.invert

        def counting_quotient(num, divisor, cap):
            divisors.append(divisor)
            return quotient_numerators(num, divisor, cap)

        def counting_invert(self):
            nonlocal inverts
            inverts += 1
            return invert(self)

        monkeypatch.setattr(wronskian_module, "_quotient_numerators",
                            counting_quotient)
        monkeypatch.setattr(QSeries, "invert", counting_invert)
        wronskian(vec)
        monkeypatch.undo()
        # every later entry of steps 1 .. k-2 is one exact division by the
        # pivot of the step before: k - 2 divisors, (k-1)(k-2)/2 divisions,
        # and nothing is inverted
        assert len({id(d) for d in divisors}) == k - 2
        assert len(divisors) == (k - 1) * (k - 2) // 2
        assert inverts == 0

    def test_non_integral_quotients_are_scaled_lazily(self, monkeypatch):
        # the primitive parts of (5,8) at order 35 leave three quotients an
        # integer map over 19, 11 and 29; the report must be the one the
        # benchmark expects, constant included
        denominators = []
        quotient_numerators = wronskian_module._quotient_numerators

        def recording(num, divisor, cap):
            q, d = quotient_numerators(num, divisor, cap)
            denominators.append(d)
            return q, d

        monkeypatch.setattr(wronskian_module, "_quotient_numerators",
                            recording)
        report = verify_identity("denominator", s=5, t=8, order=35)
        monkeypatch.undo()
        assert any(d > 1 for d in denominators)
        assert report.match
        assert report.constant == \
            IDENTITIES["denominator"].predicted(s=5, t=8)
        expected = json.loads(
            (Path(__file__).resolve().parent.parent / "bench"
             / "expected_lines.json").read_text(encoding="utf-8"))
        assert report.to_line() == expected["denominator s=5,t=8 order=35"]

    def test_a_pivot_without_a_constant_term_is_a_broken_invariant(self):
        # wronskian never passes columns that share a leading exponent, so
        # this is no input error and the command line does not turn it
        # into exit 2: W(1, 1 + q) = q starts above 0 + 0
        one = QSeries.one(5)
        q = QSeries.monomial(1, 1, 5)
        columns = [one, one + q, q * q, q * q * q]
        with pytest.raises(AssertionError,
                           match="divisor 2 does not start at q\\^0"):
            _jacobi_recursion(columns, [0, 0, 2, 3])


def _model_vectors(model, headroom):
    """The chi-form numerators and the raw and normalized characters of a
    model, each at the precision that makes its Wronskian exact
    ``headroom`` above its leading exponent."""
    labels = distinct_weights(model)
    st4 = 4 * model.s * model.t
    lows = [Rational(min(plus | minus) ** 2, st4)
            for plus, minus in (chi_support(model, lab) for lab in labels)]
    yield [chi_numerator(model, lab, low + headroom)
           for lab, low in zip(labels, lows)]
    base = sum(lab.h_bar for lab in labels)
    yield IDENTITIES["wronskian_raw"].built_columns(
        base + headroom, s=model.s, t=model.t)
    yield IDENTITIES["wronskian_normalized"].built_columns(
        base + Rational(model.k, 24) + headroom, s=model.s, t=model.t)


@st.composite
def mixed_grid_vectors(draw):
    """2 to 5 series with distinct leading exponents, each on its own grid
    (denominator 1, 2, 3, 4 or 6) and known to its own precision; one of
    them starts at q^0, so that theta removes its lead."""
    k = draw(st.integers(2, 5))
    at_zero = draw(st.integers(0, k - 1))
    vec = []
    lows = set()
    for i in range(k):
        den = draw(st.sampled_from((1, 2, 3, 4, 6)))
        lead = 0 if i == at_zero else draw(st.integers(-8, 16))
        assume(Fraction(lead, den) not in lows)
        lows.add(Fraction(lead, den))
        terms = [(lead, draw(st.sampled_from((1, -1, 3, -7, 2 ** 70))))]
        terms += draw(st.lists(st.tuples(st.integers(lead + 1, lead + 24),
                                         st.integers(-9, 9)), max_size=8))
        top = max(e for e, _ in terms)
        precision = Fraction(top + draw(st.integers(1, 12)), den)
        vec.append(QSeries.from_terms(
            [(Fraction(e, den), c) for e, c in terms], precision))
    return vec


class TestKernelAgainstBareiss:
    """The recursion computes the very series Bareiss elimination does,
    precision included."""

    @pytest.mark.parametrize("model", [m for m in coprime_models(60)
                                       if m.k <= 15],
                             ids=lambda m: f"{m.s},{m.t}")
    def test_model_vectors(self, model):
        for vec in _model_vectors(model, 4):
            assert wronskian(vec) == wronskian_bareiss(vec)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(series_vectors())
    def test_property(self, vec):
        assert wronskian(vec) == wronskian_bareiss(vec)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixed_grid_vectors())
    def test_mixed_grids_reach_the_precision_bound(self, vec):
        # the columns go onto one lcm grid and are all cut at one last key, so
        # the result is known exactly up to sum(l_i) + min(P_i - l_i)
        w = wronskian(vec)
        assert w == wronskian_bareiss(vec)
        lows = [y.lowest_term()[0] for y in vec]
        assert w.precision == sum(lows) + min(
            y.precision - low for y, low in zip(vec, lows))


class TestContentSplit:
    """The recursion carries each entry as a primitive integer map and
    telescopes the entries' scalars into one integer pair, so the
    Vandermonde-type growth stays in that pair and the final scalar is the
    predicted constant."""

    def test_builds_rationals_linear_in_k(self, monkeypatch):
        # one Rational per column scalar and one for the result: a reduced
        # scalar per entry and step would take O(k^2), 47 for (4,7)
        vec = IDENTITIES["wronskian_raw"].built_columns(10, s=4, t=7)
        k = len(vec)
        assert k == 9
        built = 0

        def counting(*args):
            nonlocal built
            built += 1
            return Rational(*args)

        monkeypatch.setattr(wronskian_module, "Rational", counting)
        _jacobi_recursion(vec, [y.lowest_term()[0] for y in vec])
        monkeypatch.undo()
        assert built < 2 * k

    def test_products_see_primitive_numerators(self, monkeypatch):
        # (5,8), k = 14, chi numerators at headroom 20: multiplying whole
        # entries passes numerators of up to 768 bits to the product loops,
        # and so does a product by the primitive inverse of a pivot 327
        # bits; the exact quotients have at most about 140
        chi = next(_model_vectors(make_model(5, 8), 20))
        widest = 0

        def recording(original):
            def product(pairs, cap):
                nonlocal widest
                for xs, ys in pairs:
                    for c in (*xs.values(), *ys.values()):
                        widest = max(widest, abs(c).bit_length())
                return original(pairs, cap)
            return product

        for name in ("_schoolbook_product", "_kronecker_product"):
            monkeypatch.setattr(series_module, name,
                                recording(getattr(series_module, name)))
        wronskian(chi)
        assert 0 < widest < 200

    @pytest.mark.parametrize("model", coprime_models(70),
                             ids=lambda m: f"{m.s},{m.t}")
    def test_final_scalar_is_the_predicted_constant(self, model):
        # W(characters) = V eta^P and W(chi numerators) = W(eta chi) =
        # V eta^(P + k), V the Vandermonde of the h_bar values; eta^P has
        # integer coefficients and leading coefficient 1, so it is the
        # primitive part and V the scalar
        vectors = _model_vectors(model, 3)
        chi, raw = next(vectors), next(vectors)
        params = {"s": model.s, "t": model.t}
        for vec, identity in ((raw, "wronskian_raw"),
                              (chi, "wronskian_normalized")):
            entry = IDENTITIES[identity]
            scalar, part = _jacobi_recursion(
                vec, [y.lowest_term()[0] for y in vec])
            assert scalar == entry.predicted(**params)
            eta = eta_power(entry.power(**params), part.precision)
            assert part.equal_up_to(eta, part.precision)
            assert len(part.coefficients) > 1 or model.k == 1


class TestScaleByMatrix:
    def test_identity_matrix(self):
        rng = random.Random(14)
        vec = [random_series(rng, allow_zero=False) for _ in range(3)]
        shared = min(v.precision for v in vec)
        vec = [v.truncate(shared) for v in vec]
        eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        assert scale_by_matrix(eye, vec) == vec

    def test_diagonal_doubling(self):
        rng = random.Random(15)
        vec = [random_series(rng, allow_zero=False) for _ in range(3)]
        scaled = scale_by_matrix([[2 if i == j else 0 for j in range(3)]
                                  for i in range(3)], vec)
        lhs = wronskian(scaled)
        rhs = 8 * wronskian(vec)
        bound = min(lhs.precision, rhs.precision)
        assert lhs.equal_up_to(rhs, bound)

    def test_determinant_scaling_on_characters(self):
        model = make_model(3, 4)
        vec = [character_double_sum(model, lab, 8)
               for lab in distinct_weights(model)]
        rng = random.Random(16)
        matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(3)] for _ in range(3)]
        lhs = wronskian(scale_by_matrix(matrix, vec))
        rhs = matrix_determinant(matrix) * wronskian(vec)
        bound = min(lhs.precision, rhs.precision)
        assert lhs.equal_up_to(rhs, bound)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matrix must be"):
            scale_by_matrix([[1, 2]], [QSeries.one(5)])


class TestMatrixDeterminant:
    def test_known_values(self):
        assert matrix_determinant([[1, 2], [3, 4]]) == -2
        assert matrix_determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5

    def test_fractional(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
        assert matrix_determinant(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_needs_row_exchange_and_singular(self):
        assert matrix_determinant([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
        assert matrix_determinant([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 0
        assert matrix_determinant([[0, 0], [0, 5]]) == 0
        assert matrix_determinant([[Fraction(7, 3)]]) == Fraction(7, 3)
        assert matrix_determinant([]) == 1


class TestAbelCheck:
    def test_lee_yang_raw_characters(self):
        model = make_model(2, 5)
        vec = [character_double_sum(model, lab, 32)
               for lab in distinct_weights(model)]
        f1 = 2 * eisenstein_g2(31)
        assert abel_log_derivative_check(vec, f1, 30)

    def test_lee_yang_normalized_characters(self):
        model = make_model(2, 5)
        vec = [normalized_character(model, lab, 32)
               for lab in distinct_weights(model)]
        f1 = 3 * eisenstein_g2(31)
        assert abel_log_derivative_check(vec, f1, 30)

    def test_single_eta(self):
        eta = eta_series(31)
        half_g2 = rational("1/2") * eisenstein_g2(31)
        assert abel_log_derivative_check([eta], half_g2, 30)

    def test_wrong_coefficient_fails(self):
        model = make_model(2, 5)
        vec = [character_double_sum(model, lab, 20)
               for lab in distinct_weights(model)]
        f1 = 5 * eisenstein_g2(19)
        assert not abel_log_derivative_check(vec, f1, 15)

    def test_degenerate_system_rejected(self):
        with pytest.raises(ValueError, match="degenerate fundamental system"):
            abel_log_derivative_check([QSeries.zero(5)], eisenstein_g2(5), 4)
