"""Minimal models: weights, the three character forms, sums, counting."""

from math import gcd

import pytest

from qetakit import (QSeries, Rational, character_chi_form,
                     character_double_sum, character_product,
                     coprime_models, distinct_weights, eta_series,
                     make_model, mu_count, normalized_character, rational,
                     strange_sum_general, weber_series, weight_label)
from qetakit.minimal_models import (MinimalModel, WeightLabel,
                                     _double_sum_numerator)

from oracles import (character_product_geometric, chi_indicator,
                     matrix_determinant)


class TestMakeModel:
    def test_ising(self):
        model = make_model(3, 4)
        assert model.central_charge == Rational(1, 2)
        assert model.k == 3

    def test_lee_yang(self):
        model = make_model(2, 5)
        assert model.central_charge == Rational(-22, 5)
        assert model.k == 2

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError, match="not a minimal model"):
            make_model(4, 6)

    def test_canonical_swap(self):
        assert make_model(5, 3) == make_model(3, 5)

    @pytest.mark.parametrize("s,t", [(1, 5), (2, 2), (3, 3), (0, 7)])
    def test_out_of_range(self, s, t):
        with pytest.raises(ValueError, match="not a minimal model"):
            make_model(s, t)


class TestDistinctWeights:
    def test_ising_weights(self):
        hs = {lab.h for lab in distinct_weights(make_model(3, 4))}
        assert hs == {Rational(0), Rational(1, 2), Rational(1, 16)}

    def test_lee_yang_weights(self):
        hs = {lab.h for lab in distinct_weights(make_model(2, 5))}
        assert hs == {Rational(0), Rational(-1, 5)}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_s2_closed_form(self, k):
        labels = distinct_weights(make_model(2, 2 * k + 1))
        for i, lab in enumerate(labels, start=1):
            expected = Rational((2 * (k - i) + 1) ** 2 - (2 * k - 1) ** 2,
                                8 * (2 * k + 1))
            assert lab.h == expected

    def test_count_and_distinctness(self):
        for model in coprime_models(60):
            labels = distinct_weights(model)
            assert len(labels) == model.k
            assert len({lab.h for lab in labels}) == model.k

    def test_h_bar_shift(self):
        model = make_model(3, 4)
        for lab in distinct_weights(model):
            assert lab.h_bar == lab.h - model.central_charge / 24

    def test_label_range_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            weight_label(make_model(2, 5), 1, 5)


class TestRecords:
    """Models and labels are NamedTuples: immutable, cached, tuple-like."""

    def test_every_record_is_a_named_tuple(self):
        from qetakit.identities import Identity, LatticeTerm, \
            VerificationReport
        for record in (MinimalModel, WeightLabel, VerificationReport,
                       LatticeTerm, Identity):
            assert issubclass(record, tuple) and record._fields

    def test_fields_are_read_only(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 2)
        with pytest.raises(AttributeError):
            model.s = 3
        with pytest.raises(AttributeError):
            label.h = Rational(0)

    def test_caches_still_hit(self):
        model = make_model(2, 5)
        hits = make_model.cache_info().hits
        assert make_model(2, 5) is model
        assert make_model.cache_info().hits == hits + 1
        labels = distinct_weights(model)
        hits = distinct_weights.cache_info().hits
        assert distinct_weights(make_model(2, 5)) is labels
        assert distinct_weights.cache_info().hits == hits + 1
        # every character builder checks its label against weight_label;
        # a forged weight is still rejected (next test)
        label = weight_label(model, 1, 2)
        hits = weight_label.cache_info().hits
        assert weight_label(model, 1, 2) is label
        assert weight_label.cache_info().hits == hits + 1

    def test_text_is_kept(self):
        model = make_model(2, 5)
        assert repr(model) == ("MinimalModel(s=2, t=5, k=2, "
                               "central_charge=Fraction(-22, 5))")
        assert str(model) == "(s,t)=(2,5), c=-22/5, k=2"
        assert repr(weight_label(model, 1, 2)) == (
            "WeightLabel(m=1, n=2, h=Fraction(-1, 5), "
            "h_bar=Fraction(-1, 60))")

    def test_records_are_tuples(self):
        model = make_model(2, 5)
        assert model == (2, 5, 2, Rational(-22, 5))
        s, t, k, c = model
        assert (s, t, k, c) == (2, 5, 2, Rational(-22, 5))
        m, n, h, h_bar = weight_label(model, 1, 2)
        assert (m, n, h, h_bar) == (1, 2, Rational(-1, 5), Rational(-1, 60))

    def test_label_with_a_wrong_weight_rejected(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 2)
        for bogus in (label._replace(h_bar=label.h_bar + 1),
                      label._replace(h=label.h + 1)):
            for build in (character_double_sum, character_chi_form,
                          normalized_character):
                with pytest.raises(ValueError, match="does not belong"):
                    build(model, bogus, 10)


class TestChiIndicator:
    def test_plus_class(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 1)  # ns - mt = -3
        for r in (3, 17, 23):
            assert chi_indicator(model, label, r) == 1

    def test_minus_class(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 1)  # ns + mt = 7
        for r in (7, 13, 27):
            assert chi_indicator(model, label, r) == -1

    def test_outside_support(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 1)
        for r in (0, 1, 2, 4, 5, 10, 20):
            assert chi_indicator(model, label, r) == 0

    def test_degenerate_label_rejected(self):
        model = make_model(2, 5)
        bogus = WeightLabel(2, 5, Rational(0), Rational(0))
        with pytest.raises(ValueError, match="degenerate chi"):
            chi_indicator(model, bogus, 3)


class TestCharacters:
    def test_ising_vacuum_leading_terms(self):
        model = make_model(3, 4)
        vacuum = next(lab for lab in distinct_weights(model) if lab.h == 0)
        ch = character_double_sum(model, vacuum, 6)
        shift = Rational(-1, 48)
        assert ch.coefficient(shift) == 1
        assert ch.coefficient(shift + 1) == 0  # no level-one state
        assert ch.coefficient(shift + 2) == 1

    def test_numerator_r0_structure(self):
        model = make_model(2, 5)
        label = weight_label(model, 1, 1)
        numer = _double_sum_numerator(model, label, rational(12))
        assert numer.coefficient(0) == 1
        assert numer.coefficient(label.m * label.n) == -1

    def test_numerator_nonnegative_exponents(self):
        for model in coprime_models(24):
            for label in distinct_weights(model):
                numer = _double_sum_numerator(model, label, rational(10))
                assert numer.lowest_term()[0] >= 0

    def test_cross_formula_small_grid(self):
        # the chi form is the double-sum character, precision included
        for model in coprime_models(40):
            for label in distinct_weights(model):
                for order in (label.h_bar + Rational(1, 100),
                              label.h_bar + 3, Rational(61, 3), 25):
                    d = character_double_sum(model, label, order)
                    c = character_chi_form(model, label, order)
                    assert d == c, (model, label, order)

    def test_chi_form_reuses_the_partition_series(self, monkeypatch):
        # dividing by eta multiplies by the cached partition series, so a
        # chi-form character inverts no series once that cache is warm
        model = make_model(3, 5)
        cases = [(label, order) for label in distinct_weights(model)
                 for order in (label.h_bar + 1, 12, 30)]
        first = [character_chi_form(model, *case) for case in cases]
        monkeypatch.setattr(QSeries, "invert", None)
        assert [character_chi_form(model, *case) for case in cases] == first

    def test_product_form_matches(self):
        for k, t in ((2, 5), (3, 7)):
            model = make_model(2, t)
            for label in distinct_weights(model):
                p = character_product(model, label, 30)
                d = character_double_sum(model, label, 30)
                assert p.equal_up_to(d, 30)

    def test_product_form_equals_the_geometric_fold(self):
        # one binomial product and one inverse give the fold of one
        # geometric series per retained factor, precision included, for
        # every label i in 1..2k, at orders with none, one and many factors
        for k in range(1, 7):
            model = make_model(2, 2 * k + 1)
            for i in range(1, 2 * k + 1):
                label = weight_label(model, 1, i)
                for extra in ("1/7", "3/2", "47/4", 30):
                    order = label.h_bar + rational(extra)
                    assert (character_product(model, label, order)
                            == character_product_geometric(k, i, order)), \
                        (k, i, extra)

    def test_product_form_takes_both_labels_of_a_module(self):
        # (1, i) and (1, 2k+1-i) exclude the same residues mod 2k+1
        for k in range(1, 5):
            model = make_model(2, 2 * k + 1)
            for i in range(1, k + 1):
                label = weight_label(model, 1, 2 * k + 1 - i)
                mirror = character_product(model, label, 20)
                assert mirror == character_product(
                    model, weight_label(model, 1, i), 20)
                assert mirror.equal_up_to(
                    character_double_sum(model, label, 20), 20)
        for k, i in ((1, 0), (1, 3), (3, 7)):
            with pytest.raises(ValueError, match="label out of range"):
                weight_label(make_model(2, 2 * k + 1), 1, i)
        ising = make_model(3, 4)
        with pytest.raises(ValueError, match="product form needs s = 2"):
            character_product(ising, weight_label(ising, 1, 1), 20)
        foreign = weight_label(make_model(2, 7), 1, 2)
        with pytest.raises(ValueError, match="does not belong"):
            character_product(make_model(2, 5), foreign, 20)

    def test_foreign_label_rejected(self):
        other = weight_label(make_model(3, 4), 1, 2)
        with pytest.raises(ValueError, match="does not belong"):
            character_double_sum(make_model(2, 5), other, 10)

    def test_nonnegative_integer_coefficients(self):
        for model in coprime_models(16):
            for label in distinct_weights(model):
                ch = character_double_sum(model, label, 12)
                for _, c in ch.terms():
                    assert c.denominator == 1 and c >= 0


class TestNormalizedCharacters:
    def test_lee_yang_direct_sum(self):
        # exponents h - c/24 + 1/24 + ((2(k-i)+1) n + (2k+1) n^2)/2 with sign (-1)^n
        model = make_model(2, 5)
        k = 2
        for i, label in enumerate(distinct_weights(model), start=1):
            expected = {}
            base = label.h_bar + Rational(1, 24)
            for n in range(-6, 7):
                e = base + Rational((2 * (k - i) + 1) * n + (2 * k + 1) * n * n, 2)
                if e < 20:
                    expected[e] = -1 if n % 2 else 1
            ny = normalized_character(model, label, 20)
            assert {e: int(c) for e, c in ny.terms()} == expected

    def test_is_eta_times_the_double_sum_character(self):
        # the definition, a round trip through the Euler product, is the
        # oracle of the shifted numerator
        for model in coprime_models(28):
            for label in distinct_weights(model):
                lead = label.h_bar + Rational(1, 24)
                for order in (lead + Rational(1, 7), lead + 1, 10,
                              Rational(61, 3)):
                    if not order > lead:
                        continue
                    expected = eta_series(order - label.h_bar) * \
                        character_double_sum(model, label,
                                             order - Rational(1, 24))
                    assert normalized_character(model, label, order) == \
                        expected, (model, label, order)

    def test_order_and_label_checked(self):
        model = make_model(3, 4)
        label = distinct_weights(model)[0]
        with pytest.raises(ValueError, match="leading exponent"):
            normalized_character(model, label, label.h_bar + Rational(1, 24))
        foreign = weight_label(model, 2, 1)  # m = 2 is off the (2,5) grid
        with pytest.raises(ValueError, match="does not belong"):
            normalized_character(make_model(2, 5), foreign, 10)

    def test_s2_coefficients_are_signs(self):
        for t in (5, 7, 9):
            model = make_model(2, t)
            for label in distinct_weights(model):
                ny = normalized_character(model, label, 15)
                assert {int(c) for _, c in ny.terms()} <= {-1, 1}

    def test_integer_coefficients_everywhere(self):
        for model in coprime_models(20):
            for label in distinct_weights(model):
                ny = normalized_character(model, label, 10)
                assert all(c.denominator == 1 for _, c in ny.terms())

    def test_ising_characters_factor_into_weber_products(self):
        model = make_model(3, 4)
        by_h = {lab.h: lab for lab in distinct_weights(model)}
        ch0 = character_double_sum(model, by_h[Rational(0)], 12)
        ch_half = character_double_sum(model, by_h[Rational(1, 2)], 12)
        ch_sixteenth = character_double_sum(model, by_h[Rational(1, 16)], 12)
        assert (ch0 + ch_half).equal_up_to(weber_series("f", 12), 12)
        assert (ch0 - ch_half).equal_up_to(weber_series("f1", 12), 12)
        assert ch_sixteenth.equal_up_to(weber_series("f2", 12), 12)

    def test_linear_independence_of_leading_matrix(self):
        # k x k coefficient matrix at the k (distinct) leading exponents
        for model in coprime_models(40):
            leads = sorted(lab.h_bar + Rational(1, 24)
                           for lab in distinct_weights(model))
            assert len(set(leads)) == model.k
            order = max(leads) + 1
            entries = [normalized_character(model, lab, order)
                       for lab in distinct_weights(model)]
            assert [y.lowest_term()[0] for y in entries] == \
                [lab.h_bar + Rational(1, 24) for lab in distinct_weights(model)]
            matrix = [[y.coefficient(e) for y in entries] for e in leads]
            assert matrix_determinant(matrix) != 0


class TestStrangeSums:
    def test_k2_value(self):
        assert strange_sum_general(2, 5) == Rational(1, 6)

    def test_ising_both_closed_forms(self):
        value = strange_sum_general(3, 4)
        assert value == Rational(2 * 3 * (12 - 3 - 4 - 1), 48)
        a = 3
        assert value == Rational(2 * a * (a - 1), 24)

    def test_degenerate_single_module(self):
        assert strange_sum_general(2, 3) == 0
        with pytest.raises(ValueError, match="not a minimal model"):
            strange_sum_general(2, 1)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_s2_closed_form(self, k):
        assert strange_sum_general(2, 2 * k + 1) == \
            Rational(2 * k * (k - 1), 24)

    def test_general_closed_forms(self):
        for model in coprime_models(100):
            s, t = model.s, model.t
            value = strange_sum_general(s, t)
            assert value == Rational((s - 1) * (t - 1) * (s * t - s - t - 1), 48)
            a = model.k
            assert value == Rational(2 * a * (a - 1), 24)
            direct = sum((lab.h_bar for lab in distinct_weights(model)),
                         Rational(0))
            assert direct == value


class TestMuCount:
    def test_mu_nine(self):
        count, solutions = mu_count(9)
        assert count == 3
        assert solutions == [(2, 19), (3, 10), (4, 7)]

    def test_mu_one(self):
        count, solutions = mu_count(1)
        assert count >= 1 and (2, 3) in solutions
        with pytest.raises(ValueError, match="k must be >= 1"):
            mu_count(0)

    def test_all_pairs_coprime(self):
        from math import gcd
        for k in range(1, 31):
            _, solutions = mu_count(k)
            for s, t in solutions:
                assert gcd(s, t) == 1 and 2 <= s < t
                assert (s - 1) * (t - 1) == 2 * k


def test_coprime_models_grid():
    models = coprime_models(40)
    pairs = {(m.s, m.t) for m in models}
    for expected in [(2, 5), (2, 7), (3, 4), (3, 5), (2, 9), (3, 7), (4, 5),
                     (2, 11), (3, 8), (2, 13), (5, 6), (4, 7), (2, 15)]:
        assert expected in pairs
    assert all(m.s * m.t <= 40 for m in models)
    assert len(models) == 22


@pytest.mark.parametrize("max_st", [5, 6, 7, 60, 300])
def test_coprime_models_is_the_brute_force_filter(max_st):
    pairs = sorted(((s, t) for t in range(3, max_st + 1)
                    for s in range(2, t)
                    if s * t <= max_st and gcd(s, t) == 1),
                   key=lambda pair: (pair[0] * pair[1], pair[0]))
    assert [(m.s, m.t) for m in coprime_models(max_st)] == pairs
