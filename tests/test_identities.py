"""Lattice sums, empirical constants, and the verification drivers."""

import pickle
import random
from fractions import Fraction
from math import isqrt

import pytest

import qetakit.eta as eta_module
import qetakit.identities as identities
from qetakit import (QSeries, Rational, c_k_constant, chi_numerator,
                     coprime_models, distinct_weights, empirical_constant,
                     eta_power, eta_series, general_terms,
                     identity_lowest_exponent, macdonald_terms, make_model,
                     normalized_character, rational, vandermonde,
                     verify_identity, weber_series)
from qetakit.identities import (IDENTITIES, LATTICE_DETERMINANT_HEADROOM,
                                identity_params)
from qetakit.rationals import largest_int_below
from qetakit.suite import run_job
from qetakit.wronskian import _distinct_leading_exponents
from oracles import (c_k_double_product, chi_d, chi_indicator,
                     empirical_constant_terms, lattice_exponent,
                     general_terms_box, general_walk_windows,
                     macdonald_terms_box, macdonald_walk_windows,
                     random_series, walk_leaf_weights, wronskian_bareiss)

#: Small headrooms (order minus leading exponent) for the box oracles.
BOX_HEADROOMS = (1, Rational(5, 2), 4)
#: The two lattice-sum entries, whose ``rhs`` the path tests build.
MACDONALD = IDENTITIES["macdonald"]
DENOMINATOR = IDENTITIES["denominator"]

# empirically determined and order-stable; the closed-form prefactor is off
# from the eta-power leading coefficient by exactly this sign
MACDONALD_CONSTANTS = {2: Rational(-1), 3: Rational(-1), 4: Rational(1)}


class TestChiD:
    def test_origin(self):
        assert chi_d(2, (0, 0)) == -8

    def test_shifted(self):
        assert chi_d(2, (1, 0)) == (1 + 10) ** 2 - 9

    def test_direct_evaluation_k3(self):
        d = [1 + 14 * n for n in (0,)] + [3 + 14 * n for n in (-1,)] \
            + [5 + 14 * n for n in (1,)]
        expected = ((d[0] ** 2 - d[1] ** 2) * (d[0] ** 2 - d[2] ** 2)
                    * (d[1] ** 2 - d[2] ** 2))
        assert chi_d(3, (0, -1, 1)) == expected

    def test_never_vanishes_on_integer_tuples(self):
        # the factors 2i-1 + n(4k+2) occupy distinct odd residue classes
        # mod 4k+2, so equal squares cannot occur and the weight is nonzero
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert chi_d(2, (a, b)) != 0

    def test_tuple_length_checked(self):
        with pytest.raises(ValueError, match="expected a 2-tuple"):
            chi_d(2, (1, 2, 3))
        with pytest.raises(ValueError, match="expected a 2-tuple"):
            lattice_exponent(2, (1,))


class TestLatticeExponent:
    def test_origin(self):
        assert lattice_exponent(2, (0, 0)) == Rational(1, 4)

    def test_shifted(self):
        assert lattice_exponent(2, (0, -1)) == Rational(5, 4)

    def test_origin_is_minimal(self):
        window = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
        values = {n: lattice_exponent(2, n) for n in window}
        assert min(values.values()) == values[(0, 0)]


class TestCkConstant:
    def test_k2(self):
        assert c_k_constant(2) == Rational(-1, 8)

    def test_k3_direct(self):
        denom = 2 ** 6
        for i in range(1, 4):
            for j in range(i + 1, 4):
                denom *= (i - j) * (i + j - 1)
        assert c_k_constant(3) == Rational(1, denom)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_the_double_product(self, k):
        assert c_k_constant(k) == c_k_double_product(k)

    @pytest.mark.parametrize("k", range(2, 41))
    def test_is_the_inverse_of_the_2_2k1_denominator_constant(self, k):
        # the Vandermonde of the (2,2k+1) column leads, times its scale
        assert c_k_constant(k) == 1 / IDENTITIES["denominator"].predicted(
            s=2, t=2 * k + 1)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_sign_alternation(self, k):
        expected = -1 if (k * (k - 1) // 2) % 2 else 1
        assert (1 if c_k_constant(k) > 0 else -1) == expected

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            c_k_constant(1)
        with pytest.raises(ValueError, match="k must be >= 2"):
            macdonald_terms(1, 5)


class TestMacdonaldSum:
    def test_lowest_term(self):
        rhs = MACDONALD.rhs(10, k=2)
        # C_2 * (-1)^1 * chi_D(0,0) = (1/8) * (-8) = -1 at exponent 1/4
        assert rhs.lowest_term() == (Rational(1, 4), Rational(-1))

    def test_term_stream_exponents(self):
        for term in macdonald_terms(3, 8):
            assert term.exponent >= Rational(2 * 9 - 3, 24)
            assert term.exponent == lattice_exponent(3, term.n_vec)

    def test_zero_weight_tuples_skipped(self):
        for term in macdonald_terms(2, 12):
            assert term.weight != 0

    @pytest.mark.parametrize("headroom", BOX_HEADROOMS)
    def test_terms_are_the_box_enumeration(self, headroom):
        for k in (2, 3, 4):
            order = identity_lowest_exponent("macdonald", k=k) + headroom
            terms = macdonald_terms(k, order)
            assert terms and sorted(terms) == \
                sorted(macdonald_terms_box(k, order)), k

    @pytest.mark.parametrize("k", (2, 3))
    def test_rhs_is_its_tuple_sum(self, k):
        # below the crossover and above it, where the rhs is a Wronskian
        tuples = IDENTITIES["macdonald"].tuples
        for headroom in (4, LATTICE_DETERMINANT_HEADROOM + 2):
            order = identity_lowest_exponent("macdonald", k=k) + headroom
            assert MACDONALD.rhs(order, k=k) == tuples(order, k=k)

    def test_insufficient_order(self):
        with pytest.raises(ValueError, match="must exceed"):
            MACDONALD.rhs(rational("1/4"), k=2)


class TestGeneralSum:
    def test_lee_yang_constant(self):
        report = empirical_constant(eta_power(6, 20),
                                    DENOMINATOR.rhs(20, s=2, t=5), 20)
        assert report.match and report.constant == -8

    def test_weights_never_vanish(self):
        # supports of distinct weights are pairwise disjoint residue classes,
        # so the Vandermonde of the squares cannot vanish on emitted tuples
        for term in general_terms(make_model(2, 5), 15):
            n1, n2 = term.n_vec
            assert n1 * n1 != n2 * n2
            assert term.weight != 0

    @pytest.mark.parametrize("headroom", BOX_HEADROOMS)
    def test_terms_are_the_box_enumeration(self, headroom):
        for model in coprime_models(30):
            order = identity_lowest_exponent("denominator", s=model.s,
                                             t=model.t) + headroom
            terms = general_terms(model, order)
            assert terms and terms == general_terms_box(model, order), model

    def test_leaves_build_no_fraction_beyond_the_term(self, monkeypatch):
        # each emitted term builds its exponent and its weight; the walk
        # itself runs on ints, so nothing else grows with the tuple count
        from fractions import Fraction
        build = Fraction.__new__
        built = [0]

        def counted(cls, *args, **kwargs):
            built[0] += 1
            return build(cls, *args, **kwargs)

        for s, t, headroom in ((2, 5, 30), (3, 4, 20), (3, 5, 12),
                               (4, 7, 6)):
            model = make_model(s, t)
            order = identity_lowest_exponent("denominator", s=s,
                                             t=t) + headroom
            built[0] = 0
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
            terms = general_terms(model, order)
            monkeypatch.undo()
            assert len(terms) > 20
            assert built[0] <= 2 * len(terms) + 40, (s, t, built[0])

    def test_ising_eta_power_15(self):
        report = empirical_constant(eta_power(15, 15),
                                    DENOMINATOR.rhs(15, s=3, t=4), 15)
        assert report.match and report.constant != 0

    def test_euler_as_k1_case(self):
        report = empirical_constant(eta_series(30),
                                    DENOMINATOR.rhs(30, s=2, t=3), 30)
        assert report.match and report.constant == 1

    def test_rhs_is_its_tuple_sum(self):
        # below the crossover and above it, where the rhs is a Wronskian
        tuples = IDENTITIES["denominator"].tuples
        for s, t in ((2, 5), (3, 4)):
            for headroom in (4, LATTICE_DETERMINANT_HEADROOM + 2):
                order = identity_lowest_exponent("denominator", s=s,
                                                 t=t) + headroom
                assert DENOMINATOR.rhs(order, s=s, t=t) == \
                    tuples(order, s=s, t=t)


def _summed(terms, order):
    return QSeries.from_terms(((t.exponent, t.weight) for t in terms), order)


def _macdonald_prefactor(k):
    sign = -1 if (k * (k - 1) // 2) % 2 else 1
    return sign * c_k_constant(k)


class TestTupleSum:
    """The tuple path sums the walk's terms as integer numerators on the
    sum's grid; ``QSeries.from_terms`` over the same terms is its oracle."""

    @pytest.mark.parametrize("headroom", (2, 3, 5))
    def test_general_sum_is_from_terms(self, headroom):
        tuples = IDENTITIES["denominator"].tuples
        for model in coprime_models(60):
            s, t = model.s, model.t
            order = identity_lowest_exponent("denominator", s=s,
                                             t=t) + headroom
            assert tuples(order, s=s, t=t) == \
                _summed(general_terms(model, order), order), model

    @pytest.mark.parametrize("headroom", (2, 3, 5))
    def test_macdonald_sum_is_from_terms(self, headroom):
        tuples = IDENTITIES["macdonald"].tuples
        for k in range(2, 8):
            order = identity_lowest_exponent("macdonald", k=k) + headroom
            assert tuples(order, k=k) == _summed(macdonald_terms(k, order),
                                                 order) \
                * _macdonald_prefactor(k), k

    @pytest.mark.parametrize("family,params", [
        ("macdonald", {"k": 2}), ("macdonald", {"k": 3}),
        ("denominator", {"s": 2, "t": 5}), ("denominator", {"s": 3, "t": 4})])
    def test_cancelling_terms_are_dropped(self, family, params):
        # no walked sum was seen to cancel at an exponent, so terms are
        # summed again with their signs flipped
        order = identity_lowest_exponent(family, **params) + 8
        if family == "macdonald":
            terms = macdonald_terms(params["k"], order)
        else:
            terms = general_terms(make_model(**params), order)
        flipped = [term._replace(weight=-term.weight) for term in terms]
        halved = terms + flipped[::2]
        assert identities._sum_terms(halved, order) == \
            _summed(halved, order) == _summed(terms[1::2], order)
        assert identities._sum_terms(terms + flipped, order) == \
            _summed(terms + flipped, order) == QSeries.zero(order)


class TestLatticeDeterminant:
    """The lattice sums as one Wronskian of chi-form numerators, against
    tuple enumeration, which stays the independent oracle."""

    @staticmethod
    def _force(monkeypatch, path):
        # a crossover of 0 sends every sum to the Wronskian, an unreachable
        # one sends every sum to the tuples
        monkeypatch.setattr(identities, "LATTICE_DETERMINANT_HEADROOM",
                            0 if path == "wronskian" else 10 ** 9)

    @pytest.mark.parametrize("headroom", (4, 17))
    def test_general_sum_matches_tuples_on_every_small_model(
            self, monkeypatch, headroom):
        for model in coprime_models(40):
            order = identity_lowest_exponent("denominator", s=model.s,
                                             t=model.t) + headroom
            expected = _summed(general_terms(model, order), order)
            for path in ("tuples", "wronskian"):
                self._force(monkeypatch, path)
                assert DENOMINATOR.rhs(order, s=model.s,
                                       t=model.t) == expected, (model, path)

    @pytest.mark.parametrize("headroom", (4, 17))
    def test_macdonald_sum_matches_its_own_lattice(self, monkeypatch,
                                                   headroom):
        for k in range(2, 7):
            order = identity_lowest_exponent("macdonald", k=k) + headroom
            expected = _summed(macdonald_terms(k, order), order) \
                * _macdonald_prefactor(k)
            for path in ("tuples", "wronskian"):
                self._force(monkeypatch, path)
                assert MACDONALD.rhs(order, k=k) == expected, (k, path)

    @pytest.mark.parametrize("side", (-1, 1))
    def test_macdonald_is_the_2_2k1_sum(self, side):
        # on the shipped crossover, one unit below it and one above
        for k in range(2, 6):
            order = (identity_lowest_exponent("macdonald", k=k)
                     + LATTICE_DETERMINANT_HEADROOM + side)
            assert MACDONALD.rhs(order, k=k) == \
                DENOMINATOR.rhs(order, s=2, t=2 * k + 1) \
                * _macdonald_prefactor(k)

    def test_headroom_selects_the_path(self, monkeypatch):
        calls = {"general_terms": 0, "macdonald_terms": 0, "wronskian": 0}

        def counted(name):
            inner = getattr(identities, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(identities, name, counted(name))

        def run(build, *args, **kwargs):
            for name in calls:
                calls[name] = 0
            build(*args, **kwargs)
            return dict(calls)

        base = identity_lowest_exponent("denominator", s=3, t=5)
        below = base + LATTICE_DETERMINANT_HEADROOM - rational("1/8")
        above = base + LATTICE_DETERMINANT_HEADROOM
        assert run(DENOMINATOR.rhs, below, s=3, t=5) == \
            {"general_terms": 1, "macdonald_terms": 0, "wronskian": 0}
        assert run(DENOMINATOR.rhs, above, s=3, t=5) == \
            {"general_terms": 0, "macdonald_terms": 0, "wronskian": 1}
        assert run(IDENTITIES["denominator"].tuples, above, s=3, t=5) == \
            {"general_terms": 1, "macdonald_terms": 0, "wronskian": 0}
        assert run(IDENTITIES["denominator"].determinant, below, s=3,
                   t=5) == \
            {"general_terms": 0, "macdonald_terms": 0, "wronskian": 1}
        base = identity_lowest_exponent("macdonald", k=3)
        below = base + LATTICE_DETERMINANT_HEADROOM - rational("1/8")
        above = base + LATTICE_DETERMINANT_HEADROOM
        assert run(MACDONALD.rhs, below, k=3) == \
            {"general_terms": 0, "macdonald_terms": 1, "wronskian": 0}
        assert run(MACDONALD.rhs, above, k=3) == \
            {"general_terms": 0, "macdonald_terms": 0, "wronskian": 1}
        assert run(IDENTITIES["macdonald"].tuples, above, k=3) == \
            {"general_terms": 0, "macdonald_terms": 1, "wronskian": 0}
        assert run(IDENTITIES["macdonald"].determinant, below, k=3) == \
            {"general_terms": 0, "macdonald_terms": 0, "wronskian": 1}

    def test_headroom_is_measured_from_the_numerator_leads(self):
        # the Wronskian of the chi-form numerators starts at the sum of
        # their leading exponents, which is the identity's (2k-1)k/24
        for model in coprime_models(100):
            leads = [chi_numerator(model, label,
                                   label.h_bar + 1).lowest_term()[0]
                     for label in distinct_weights(model)]
            assert sum(leads) == identity_lowest_exponent(
                "denominator", s=model.s, t=model.t), model

    def test_high_order_denominator(self):
        # order 60 is far above the crossover for (5,7); its constant must
        # be the one that tuple enumeration fixes at a low order
        low = verify_identity("denominator", s=5, t=7, order=15)
        high = verify_identity("denominator", s=5, t=7, order=60)
        assert low.match and high.match
        assert high.constant == low.constant

    def test_chi_numerator_is_the_tuple_support(self):
        model = make_model(3, 4)
        order = rational("61/2")
        top = isqrt(largest_int_below(order * 48))
        for label in distinct_weights(model):
            expected = QSeries.from_terms(
                ((Rational(v * v, 48), chi_indicator(model, label, v))
                 for v in range(top + 1)), order)
            assert chi_numerator(model, label, order) == expected


class TestWindows:
    """The residue-class windows give the very term lists, order included,
    of a leaf-weighing walk over the windows built as the sums are
    written."""

    def test_general_terms(self):
        for model in coprime_models(70):
            base = identity_lowest_exponent("denominator", s=model.s,
                                            t=model.t)
            for headroom in (Rational(1, 3), 1, Rational(5, 2), 4,
                             Rational(13, 2), 9):
                order = base + headroom
                terms = general_terms(model, order)
                assert terms and terms == walk_leaf_weights(
                    *general_walk_windows(model, order)), (model, headroom)

    def test_macdonald_terms(self):
        for k in range(2, 7):
            base = identity_lowest_exponent("macdonald", k=k)
            for headroom in (-1, 0, Rational(1, 3), 1, Rational(5, 2), 6, 11,
                             17):
                order = base + headroom
                if headroom <= 0:  # at or below the sum's leading exponent
                    with pytest.raises(ValueError, match="must exceed"):
                        macdonald_terms(k, order)
                    continue
                assert macdonald_terms(k, order) == walk_leaf_weights(
                    *macdonald_walk_windows(k, order)), (k, headroom)

    def test_macdonald_terms_are_the_2_2k1_model_terms(self):
        # |d_i| in reverse order is the (2,2k+1) tuple, at the same
        # exponent and with the same weight
        for k in range(2, 8):
            base = identity_lowest_exponent("macdonald", k=k)
            for headroom in (Rational(1, 3), 5, 11):
                order = base + headroom
                mapped = sorted(
                    (tuple(abs(2 * i - 1 + n * (4 * k + 2)) for i, n
                           in reversed(list(enumerate(term.n_vec, start=1)))),
                     term.exponent, term.weight)
                    for term in macdonald_terms(k, order))
                expected = general_terms(make_model(2, 2 * k + 1), order)
                assert mapped and mapped == sorted(map(tuple, expected)), \
                    (k, headroom)


class TestIntWeights:
    """The walk builds each weight as an int while it descends, and ends a
    subtree at the first repeated square; the terms are those of a walk
    that weighs each tuple at its leaf as a Fraction."""

    def test_general_weights(self):
        for model in coprime_models(40):
            base = identity_lowest_exponent("denominator", s=model.s,
                                            t=model.t)
            labels = distinct_weights(model)
            for headroom in (Rational(1, 3), 2, 5):
                order = base + headroom
                terms = general_terms(model, order)
                assert terms == walk_leaf_weights(
                    *general_walk_windows(model, order)), (model, headroom)
                for term in terms:
                    weight = vandermonde([v * v for v in term.n_vec])
                    for label, v in zip(labels, term.n_vec):
                        weight *= chi_indicator(model, label, v)
                    assert type(term.weight) is int
                    assert term.weight == weight

    def test_macdonald_weights(self):
        for k in range(2, 7):
            base = identity_lowest_exponent("macdonald", k=k)
            for headroom in (1, 6, 11):
                order = base + headroom
                terms = macdonald_terms(k, order)
                assert terms == walk_leaf_weights(
                    *macdonald_walk_windows(k, order)), (k, headroom)
                for term in terms:
                    sign = (-1) ** (sum(term.n_vec) % 2)
                    assert type(term.weight) is int
                    assert term.weight == sign * chi_d(k, term.n_vec)

    def test_a_shared_square_ends_its_subtree(self):
        reads = []

        class Window(list):
            def __iter__(self):
                reads.append(self[0][1])
                return super().__iter__()

        windows = [Window([(1, "a", 1), (4, "b", 1)]),
                   Window([(1, "c", 1), (4, "d", -1)]),
                   Window([(9, "e", 1)])]
        terms = identities._walk(windows, 14, 1, 1)
        assert terms == [(("a", "d", "e"), 14, -3 * 8 * 5),
                         (("b", "c", "e"), 14, -3 * 8 * 5)]
        # the third window is read under (a, d) and (b, c) only
        assert reads == ["a", "c", "e", "c", "e"]
        assert identities._walk(windows[:1] + windows[:1], 9, 1, 1) == [
            (("a", "b"), 5, 3), (("b", "a"), 5, -3)]

    def test_fraction_tripwire(self, monkeypatch):
        # a warm verification builds a Fraction only where a rational
        # leaves it: exponents, precision bounds, constants and the
        # coefficient views (Python 3.11 counts arithmetic results too)
        jobs = [{"identity": "wronskian_raw", "params": {"s": 3, "t": 4},
                 "order": "10"},
                {"identity": "wronskian_normalized",
                 "params": {"s": 2, "t": 7}, "order": "10"},
                {"identity": "denominator", "params": {"s": 4, "t": 5},
                 "order": "10"},
                {"identity": "macdonald", "params": {"k": 3},
                 "order": "12"}]
        for job in jobs:
            run_job(job)
        built = 0
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        reports = [run_job(job) for job in jobs]
        monkeypatch.undo()
        assert all(report.match for report in reports)
        assert built <= 200


class TestOneTheorem:
    """The per-model identities are one determinant reached three ways."""

    MODELS = [(2, 5), (3, 4), (3, 5)]

    def test_normalized_character_is_the_chi_numerator(self):
        labels = [(model, label) for model in coprime_models(28)
                  for label in distinct_weights(model)]
        assert len(labels) == 56
        for model, label in labels:
            order = label.h_bar + Rational(1, 24) + 10
            eta_chi = normalized_character(model, label, order)
            numerator = chi_numerator(model, label, order)
            assert eta_chi.equal_up_to(
                numerator, min(eta_chi.precision, numerator.precision))

    @staticmethod
    def _orders(model):
        raw_low = sum(label.h_bar for label in distinct_weights(model))
        return raw_low, raw_low + Rational(model.k, 24) + 8

    @pytest.mark.parametrize("s,t", MODELS)
    def test_normalized_wronskian_is_the_lattice_determinant(self, s, t):
        model = make_model(s, t)
        k = model.k
        _, order = self._orders(model)
        normalized = IDENTITIES["wronskian_normalized"].determinant(
            order, s=s, t=t)
        lattice = IDENTITIES["denominator"].determinant(order, s=s, t=t)
        assert not lattice.is_zero
        assert (normalized * (4 * s * t) ** (k * (k - 1) // 2)).equal_up_to(
            lattice, order)

    @pytest.mark.parametrize("s,t", MODELS)
    def test_eta_factors_out_of_the_wronskian(self, s, t):
        # W(eta * chi) = eta^k * W(chi)
        model = make_model(s, t)
        k = model.k
        raw_low, order = self._orders(model)
        raw = IDENTITIES["wronskian_raw"].determinant(
            order - Rational(k, 24), s=s, t=t)
        normalized = IDENTITIES["wronskian_normalized"].determinant(
            order, s=s, t=t)
        assert (eta_power(k, order - raw_low) * raw).equal_up_to(
            normalized, order)


class TestEmpiricalConstant:
    def test_identical_series(self):
        eta = eta_series(10)
        report = empirical_constant(eta, eta, 10)
        assert report.match and report.constant == 1
        assert report.first_mismatch is None

    def test_scaled_series(self):
        eta = eta_series(10)
        report = empirical_constant(eta, 3 * eta, 10)
        assert report.match and report.constant == 3

    def test_leading_exponent_mismatch(self):
        a = QSeries.monomial(1, 1, 10)
        b = QSeries.monomial(1, 2, 10)
        report = empirical_constant(a, b, 10)
        assert not report.match
        assert report.constant is None
        assert report.first_mismatch == 1

    def test_interior_mismatch_located(self):
        eta = eta_series(10)
        tweaked = 2 * eta + QSeries.monomial(5, rational("73/24"), 10)
        report = empirical_constant(eta, tweaked, 10)
        assert not report.match
        assert report.constant == 2
        assert report.first_mismatch == rational("73/24")

    def test_insufficient_precision(self):
        with pytest.raises(ValueError, match="insufficient precision"):
            empirical_constant(eta_series(5), eta_series(5), 6)

    def test_a_vanished_side_is_a_mismatch(self):
        eta = eta_series(10)
        zero = QSeries.zero(10)
        for lhs, rhs in ((eta, zero), (zero, eta)):
            report = empirical_constant(lhs, rhs, 10)
            assert (report.constant, report.match, report.first_mismatch,
                    report.terms_compared) == (None, False, Rational(1, 24),
                                               len(eta.terms()))

    def test_reports_are_labelled_by_the_verification(self):
        eta = eta_series(10)
        for report in (empirical_constant(eta, eta, 10),
                       empirical_constant(eta, QSeries.zero(10), 10)):
            assert (report.identity, report.params) == ("ratio", {})
        report = verify_identity("denominator", s=5, t=2, order=12)
        assert (report.identity, report.params) == (
            "denominator", {"s": 2, "t": 5})
        assert report.match

    def test_nothing_to_compare(self):
        with pytest.raises(ValueError, match="no comparable terms"):
            empirical_constant(eta_power(276, 10), eta_power(276, 10), 10)

    def test_agrees_with_the_term_list_oracle(self):
        # random pairs on mixed grids and denominators: unrelated, a
        # rational multiple, or a multiple with one term changed
        rng = random.Random(20)
        outcomes = set()
        for _ in range(600):
            lhs = random_series(rng, allow_zero=False)
            kind = rng.randrange(3)
            if kind == 0:
                rhs = random_series(rng, allow_zero=False)
            else:
                rhs = lhs * Rational(rng.choice((-3, 1, 2)), rng.choice((1, 5)))
            if kind == 2:
                e = lhs.lowest_term()[0] + Rational(rng.randint(0, 12), 6)
                if e < rhs.precision:
                    rhs = rhs + QSeries.monomial(rng.randint(1, 3), e,
                                                 rhs.precision)
            order = min(lhs.precision, rhs.precision) \
                - Rational(rng.randint(0, 3), 3)
            try:
                expected = empirical_constant_terms(lhs, rhs, order)
            except ValueError:
                with pytest.raises(ValueError, match="no comparable terms"):
                    empirical_constant(lhs, rhs, order)
                outcomes.add("empty")
                continue
            report = empirical_constant(lhs, rhs, order)
            got = (report.constant, report.first_mismatch,
                   report.terms_compared)
            assert got == expected, (lhs, rhs, order)
            assert report.match == (expected[0] is not None
                                    and expected[1] is None)
            outcomes.add((report.constant is not None, report.match))
        assert outcomes == {"empty", (False, False), (True, False),
                            (True, True)}


class TestVerifyIdentity:
    def test_euler(self):
        report = verify_identity("euler", order=100)
        assert report.match and report.constant == 1

    def test_jacobi(self):
        report = verify_identity("jacobi", order=60)
        assert report.match and report.constant == 1

    def test_macdonald_frozen_constants(self):
        for k, expected in MACDONALD_CONSTANTS.items():
            report = verify_identity("macdonald", k=k, order=10)
            assert report.match and report.constant == expected

    def test_macdonald_k1_redirects_to_euler(self):
        with pytest.raises(ValueError, match="euler"):
            verify_identity("macdonald", k=1, order=10)

    def test_weber_exact_ratio(self):
        report = verify_identity("weber", order=15)
        assert report.match and report.constant == Rational(7, 256)

    def test_wronskian_raw_lee_yang(self):
        report = verify_identity("wronskian_raw", s=2, t=5, order=20)
        assert report.match and report.constant != 0

    def test_wronskian_k1_degenerate_power(self):
        # single character, eta^0: the Wronskian is the character itself
        report = verify_identity("wronskian_raw", s=2, t=3, order=10)
        assert report.match and report.constant == 1

    def test_specialization_consistency(self):
        # the s=2 lattice sum equals the general one up to the closed-form
        # prefactor
        for k in (2, 3, 4):
            mac = verify_identity("macdonald", k=k, order=12)
            gen = verify_identity("denominator", s=2, t=2 * k + 1, order=12)
            prefactor = c_k_constant(k)
            if (k * (k - 1) // 2) % 2:
                prefactor = -prefactor
            assert mac.constant == prefactor * gen.constant

    def test_mu_models_share_one_eta_power(self):
        # the three models with (s-1)(t-1) = 18 all hit the same eta power
        from qetakit import mu_count
        count, solutions = mu_count(9)
        assert count == 3
        order = rational("17/2")
        for s, t in solutions:
            report = verify_identity("wronskian_normalized", s=s, t=t,
                                     order=order)
            assert make_model(s, t).k == 9
            assert report.match and report.constant != 0

    def test_insufficient_order_names_bound(self):
        with pytest.raises(ValueError, match="must exceed 5/8"):
            verify_identity("macdonald", k=3, order=rational("1/2"))

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity"):
            verify_identity("mystery", order=10)

    def test_invalid_model_propagates(self):
        with pytest.raises(ValueError, match="not a minimal model"):
            verify_identity("denominator", s=4, t=6, order=10)


class TestReportSerialization:
    def test_text_line(self):
        report = verify_identity("denominator", s=2, t=5, order=10)
        line = report.to_line()
        assert line == ("identity=denominator params=s=2,t=5 order=10 "
                        "constant=-8 match=true first_mismatch=- "
                        "terms_compared=8")

    def test_dict_fields(self):
        report = verify_identity("euler", order=30)
        doc = report.to_dict()
        assert doc == {"identity": "euler", "params": {}, "order": "30",
                       "constant": "1", "match": True, "first_mismatch": None,
                       "terms_compared": doc["terms_compared"]}
        assert isinstance(doc["terms_compared"], int)

    def test_pickle_round_trip(self):
        # a parallel suite passes reports between processes
        report = verify_identity("denominator", s=2, t=5, order=10)
        copy = pickle.loads(pickle.dumps(report))
        assert type(copy) is type(report) and copy == report
        assert copy.to_line() == report.to_line()

    def test_fields_are_read_only(self):
        report = verify_identity("euler", order=5)
        with pytest.raises(AttributeError):
            report.match = False

    def test_identity_lowest_exponents(self):
        assert identity_lowest_exponent("euler") == Rational(1, 24)
        assert identity_lowest_exponent("macdonald", k=2) == Rational(1, 4)
        assert identity_lowest_exponent("denominator", s=2, t=5) == \
            Rational(1, 4)
        assert identity_lowest_exponent("wronskian_raw", s=2, t=5) == \
            Rational(1, 6)
        assert identity_lowest_exponent("wronskian_normalized", s=2, t=5) == \
            Rational(1, 4)


#: One valid set of params per shape of an entry's ``params``.
SAMPLE_PARAMS = {(): {}, ("k",): {"k": 3}, ("s", "t"): {"s": 3, "t": 5}}


class TestPredictedConstants:
    """Each entry's constant, predicted from its params, is the empirical
    ratio of the leading coefficients."""

    @staticmethod
    def _empirical(name, **params):
        entry = IDENTITIES[name]
        order = identity_lowest_exponent(name, **params) + Rational(1, 2)
        lhs = eta_power(entry.power(**params), order)
        return empirical_constant(lhs, entry.rhs(order, **params),
                                  order).constant

    @pytest.mark.parametrize("name, max_st", [
        ("wronskian_raw", 70), ("wronskian_normalized", 70),
        ("denominator", 120)])
    def test_per_model(self, name, max_st):
        for model in coprime_models(max_st):
            params = {"s": model.s, "t": model.t}
            assert self._empirical(name, **params) == \
                IDENTITIES[name].predicted(**params), model

    def test_macdonald(self):
        for k in range(2, 11):
            assert self._empirical("macdonald", k=k) == \
                IDENTITIES["macdonald"].predicted(k=k) == \
                (-1) ** (k * (k - 1) // 2), k


def _weight_rule_cases():
    """(name, params) of every entry over the models with s*t <= 300 and
    Macdonald k = 2..40."""
    cases = [(name, {}) for name, entry in IDENTITIES.items()
             if not entry.params]
    cases += [(name, {"s": model.s, "t": model.t})
              for model in coprime_models(300)
              for name, entry in IDENTITIES.items()
              if entry.params == ("s", "t")]
    return cases + [("macdonald", {"k": k}) for k in range(2, 41)]


def _model_k(s, t):
    """The number of distinct weights of the (s, t) model."""
    return make_model(s, t).k


def _lattice_scale(s, t):
    """``(4st)^(k(k-1)/2)``."""
    k = _model_k(s, t)
    return (4 * s * t) ** (k * (k - 1) // 2)


def _weight_vandermonde(s, t):
    """The Vandermonde of the h_bar values of the (s, t) model, in
    ``distinct_weights`` order: as ``h_bar = (ns - mt)^2 / (4st) - 1/24``,
    the Vandermonde of the squares ``(ns - mt)^2`` over
    :func:`_lattice_scale`."""
    squares = [(label.n * s - label.m * t) ** 2
               for label in distinct_weights(make_model(s, t))]
    return Rational(vandermonde(squares), _lattice_scale(s, t))


class TestWeightRule:
    """Every power is twice the weight ``k w0 + k(k-1)`` of the entry's
    Wronskian, the Wronskian's leads are distinct and sum to ``power/24``,
    and every constant is ``scale`` times their Vandermonde; read from the
    labels, with no series built."""

    #: The powers as the table wrote them before they were derived.
    OLD_POWERS = {
        "euler": lambda: 1, "jacobi": lambda: 3, "weber": lambda: 12,
        "macdonald": lambda k: (2 * k - 1) * k,
        "denominator": lambda s, t: (2 * make_model(s, t).k - 1)
        * make_model(s, t).k,
        "wronskian_raw": lambda s, t: 2 * make_model(s, t).k
        * (make_model(s, t).k - 1),
        "wronskian_normalized": lambda s, t: (2 * make_model(s, t).k - 1)
        * make_model(s, t).k}

    #: The column counts as the table wrote them before they were derived.
    OLD_K = {"euler": lambda: 1, "jacobi": lambda: 1, "weber": lambda: 3,
             "macdonald": lambda k: k, "denominator": _model_k,
             "wronskian_raw": _model_k, "wronskian_normalized": _model_k}

    #: The constants as the table wrote them before they were derived.
    OLD_CONSTANTS = {
        "euler": lambda: 1, "jacobi": lambda: 1,
        "weber": lambda: Rational(7, 256),
        "macdonald": lambda k: (-1) ** (k * (k - 1) // 2),
        "denominator": lambda s, t: _weight_vandermonde(s, t)
        * _lattice_scale(s, t),
        "wronskian_raw": lambda s, t: _weight_vandermonde(s, t),
        "wronskian_normalized": lambda s, t: _weight_vandermonde(s, t)}

    def test_power_is_the_old_formula(self):
        cases = _weight_rule_cases()
        assert len(cases) == 3 + 3 * 340 + 39
        for name, params in cases:
            assert IDENTITIES[name].power(**params) == \
                self.OLD_POWERS[name](**params), (name, params)

    def test_column_leads_sum_to_the_leading_exponent(self):
        checks = 0
        for name, params in _weight_rule_cases():
            entry = IDENTITIES[name]
            leads = [lead for lead, _ in entry.columns(**params)]
            assert len(leads) == len(set(leads)) == \
                self.OLD_K[name](**params), (name, params)
            assert sum(leads) == Rational(entry.power(**params), 24), \
                (name, params)
            checks += 1
        assert checks == 3 + 3 * 340 + 39

    def test_predicted_is_the_old_constant(self):
        cases = [(name, params) for name, params in _weight_rule_cases()
                 if "s" not in params or params["s"] * params["t"] <= 160]
        assert len(cases) == 3 + 3 * 151 + 39
        for name, params in cases:
            assert IDENTITIES[name].predicted(**params) == \
                self.OLD_CONSTANTS[name](**params), (name, params)

    def test_a_proper_subset_of_labels_breaks_the_sum(self):
        # Ising without h = 1/16: two characters, whose Wronskian would
        # need leads summing to 2k(k-1)/24 = 1/6
        entry = IDENTITIES["wronskian_raw"]
        labels = distinct_weights(make_model(3, 4))
        columns = [column for column, label in zip(entry.columns(s=3, t=4),
                                                   labels)
                   if label.h != Rational(1, 16)]
        assert len(columns) == 2
        assert sum(lead for lead, _ in columns) == Rational(11, 24)
        pair = entry._replace(columns=lambda s, t: columns)
        assert Rational(pair.power(s=3, t=4), 24) == Rational(1, 6)

    def test_weber_leads_after_reduction(self):
        # (f - f1)/2 is f1 reduced against f, so the reduction leaves
        # Weber's columns as they are built
        entry = IDENTITIES["weber"]
        built = entry.built_columns(2)
        columns = _distinct_leading_exponents(built)
        assert columns == built
        leads = [column.lowest_term()[0] for column in columns]
        assert leads == [Rational(-1, 48), Rational(23, 48), Rational(1, 24)]
        assert sum(leads) == Rational(1, 2) == Rational(entry.power(), 24)

    @pytest.mark.parametrize("order", [4, 20, 60])
    def test_weber_scale_is_the_column_step(self, order):
        # W is multilinear: W(f, f1, f2) = -2 W(f, (f - f1)/2, f2)
        f, f1, f2 = (weber_series(which, order)
                     for which in ("f", "f1", "f2"))
        reduced = wronskian_bareiss([f, (f - f1) * Rational(1, 2), f2])
        w = wronskian_bareiss([f, f1, f2])
        assert -2 * reduced == w
        assert (-2 * reduced).precision == w.precision


class TestBuiltColumns:
    """Each column is built to its own leading exponent plus the headroom
    ``order`` minus the sum of the leads, which is what the Wronskian
    recursion reads of it."""

    @staticmethod
    def _cases():
        cases = [(name, {}) for name, entry in IDENTITIES.items()
                 if not entry.params]
        cases += [(name, {"s": model.s, "t": model.t})
                  for model in coprime_models(40)
                  for name, entry in IDENTITIES.items()
                  if entry.params == ("s", "t")]
        return cases + [("macdonald", {"k": k}) for k in range(2, 6)]

    @pytest.mark.parametrize("headroom", [Rational(1, 3), 5])
    def test_each_column_reaches_its_lead_plus_the_headroom(self, headroom):
        checks = 0
        for name, params in self._cases():
            entry = IDENTITIES[name]
            leads = [lead for lead, _ in entry.columns(**params)]
            order = Rational(entry.power(**params), 24) + headroom
            columns = entry.built_columns(order, **params)
            assert [column.precision for column in columns] == \
                [lead + order - sum(leads) for lead in leads], (name, params)
            # the recursion's bound sum(l) + min(P - l) is the order
            precision = entry.determinant(order, **params).precision
            assert precision == order, (name, params)
            checks += 1
        assert checks == 3 + 3 * 22 + 4

    def test_each_column_leads_at_its_declared_lead_with_1(self):
        # the hypothesis of the constant rule: W then leads with the
        # Vandermonde of the declared leads
        checks = 0
        for name, params in self._cases():
            entry = IDENTITIES[name]
            leads = [lead for lead, _ in entry.columns(**params)]
            order = Rational(entry.power(**params), 24) + 1
            columns = entry.built_columns(order, **params)
            assert [column.lowest_term() for column in columns] == \
                [(lead, 1) for lead in leads], (name, params)
            checks += 1
        assert checks == 3 + 3 * 22 + 4

    @pytest.mark.parametrize("s,t,headroom", [(4, 7, 4), (9, 10, 20)])
    def test_raw_columns_build_the_partition_series_once(self, s, t,
                                                         headroom):
        entry = IDENTITIES["wronskian_raw"]
        order = Rational(entry.power(s=s, t=t), 24) + headroom
        eta_module._euler_inverse_cached.cache_clear()
        entry.built_columns(order, s=s, t=t)
        assert eta_module._euler_inverse_cached.cache_info().misses == 1


class TestIdentityTable:
    @pytest.mark.parametrize("name", sorted(IDENTITIES))
    def test_leading_exponent_is_the_power_over_24(self, name):
        entry = IDENTITIES[name]
        params = SAMPLE_PARAMS[entry.params]
        base = identity_lowest_exponent(name, **params)
        assert base == Rational(entry.power(**params), 24)
        # and the rhs as built starts there
        rhs = entry.rhs(base + 2, **params)
        assert min(e for e, _ in rhs.terms()) == base

    def test_names_and_shapes(self):
        assert identities.Identity._fields == ("params", "twice_w0",
                                               "columns", "scale", "tuples")
        assert {name: entry.params for name, entry in IDENTITIES.items()} \
            == {"euler": (), "jacobi": (), "weber": (), "macdonald": ("k",),
                "denominator": ("s", "t"), "wronskian_raw": ("s", "t"),
                "wronskian_normalized": ("s", "t")}
        assert {name for name, entry in IDENTITIES.items()
                if entry.tuples is not None} == {"macdonald", "denominator"}
        assert all(callable(entry.determinant)
                   for entry in IDENTITIES.values())
        assert {name: entry.predicted() for name, entry in IDENTITIES.items()
                if not entry.params} == {
                    "euler": 1, "jacobi": 1, "weber": Rational(7, 256)}

    def test_params_are_checked_once_per_verification(self, monkeypatch):
        checked = []
        check = identities.identity_params
        monkeypatch.setattr(identities, "identity_params",
                            lambda name, params: checked.append(name)
                            or check(name, params))
        for name, params in (("denominator", {"s": 5, "t": 3}),
                             ("macdonald", {"k": 3}), ("weber", {})):
            checked.clear()
            assert verify_identity(name, order=10, **params).match
            assert checked == [name]

    def test_power_is_computed_once_per_verification(self, monkeypatch):
        # the lhs is built from the power that the order check computed;
        # a lattice sum's rhs computes it once more to pick its path
        calls = []
        power = identities.Identity.power
        monkeypatch.setattr(identities.Identity, "power",
                            lambda self, **params: calls.append(params)
                            or power(self, **params))
        for name, params, count in (("denominator", {"s": 5, "t": 3}, 2),
                                    ("macdonald", {"k": 3}, 2),
                                    ("wronskian_raw", {"s": 2, "t": 5}, 1),
                                    ("weber", {}, 1)):
            calls.clear()
            assert verify_identity(name, order=10, **params).match
            assert len(calls) == count

    def test_canonical_params(self):
        assert identity_params("denominator", {"s": 5, "t": 2}) == \
            {"s": 2, "t": 5}
        assert identity_params("macdonald", {"k": 2, "s": None}) == {"k": 2}
        assert identity_params("euler", {"k": None}) == {}
        report = verify_identity("denominator", s=5, t=2, order=10)
        assert report.params == {"s": 2, "t": 5}

    @pytest.mark.parametrize("name, params, message", [
        ("mystery", {}, "unknown identity"),
        (None, {}, "unknown identity"),
        ("euler", {"k": 3}, "unknown param 'k' for euler, which takes no "
                            "params"),
        ("macdonald", {"k": 3, "s": 2}, "unknown param 's'"),
        ("denominator", {"s": 2}, "denominator requires s and t"),
        ("macdonald", {}, "macdonald requires k"),
        ("macdonald", {"k": "3"}, "must be an integer"),
        ("macdonald", {"k": True}, "must be an integer"),
        ("macdonald", {"k": 1}, "verify euler"),
        ("macdonald", {"k": 0}, "requires k >= 2"),
        ("macdonald", {"k": -3}, "requires k >= 2"),
        ("wronskian_raw", {"s": 4, "t": 6}, "not a minimal model"),
    ])
    def test_identity_params_rejects(self, name, params, message):
        with pytest.raises(ValueError, match=message):
            identity_params(name, params)

    def test_verify_rejects_a_param_the_identity_does_not_take(self):
        with pytest.raises(ValueError, match="unknown param 'k'"):
            verify_identity("euler", k=3, order=10)
