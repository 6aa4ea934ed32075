"""Core series type: construction, ring operations, serialization."""

import ast
from pathlib import Path

import pytest

import qetakit
from qetakit import (NotInvertibleError, PrecisionError, QSeries, Rational,
                     eta_series, euler_inverse, rational)
from oracles import euler_factors_poly, partition_count


def geometric(prec):
    return QSeries.from_terms(((i, 1) for i in range(prec)), prec)


class TestMonomial:
    def test_identity_element(self):
        one = QSeries.monomial(1, 0, 10)
        assert one.terms() == [(Rational(0), Rational(1))]
        assert one.precision == 10

    def test_single_fractional_term(self):
        m = QSeries.monomial(1, rational("1/24"), 5)
        assert m.terms() == [(Rational(1, 24), Rational(1))]
        assert m.grid_denominator == 24
        with pytest.raises(TypeError, match="floating point"):
            QSeries.monomial(0.5, 0, 3)
        with pytest.raises(TypeError, match="cannot interpret None"):
            rational(None)

    def test_zero_coefficient_gives_zero_series(self):
        z = QSeries.monomial(0, 3, 5)
        assert z.is_zero and z.precision == 5

    def test_term_beyond_precision_rejected(self):
        with pytest.raises(PrecisionError, match="beyond precision"):
            QSeries.monomial(1, 10, 10)
        with pytest.raises(PrecisionError, match="beyond precision"):
            QSeries.monomial(2, 11, 10)
        with pytest.raises(PrecisionError, match="beyond precision"):
            QSeries(2, 1, {19: 1}, 10)


class TestAdd:
    def test_cancellation(self):
        x = QSeries.from_terms([(0, 1), (1, -1)], 10)
        y = QSeries.monomial(1, 1, 8)
        total = x + y
        assert total.terms() == [(Rational(0), Rational(1))]
        assert total.precision == 8

    def test_grid_merge(self):
        total = (QSeries.monomial(1, rational("1/2"), 5)
                 + QSeries.monomial(1, rational("1/3"), 5))
        assert total.grid_denominator == 6
        assert len(total.terms()) == 2

    def test_zero_is_identity_at_min_precision(self):
        x = QSeries.from_terms([(0, 2), (3, 5)], 9)
        total = x + QSeries.zero(6)
        assert total.precision == 6
        assert total.terms() == [(Rational(0), Rational(2)),
                                 (Rational(3), Rational(5))]

    def test_scalar_add(self):
        x = QSeries.monomial(1, 1, 7)
        assert (3 + x).coefficient(0) == 3
        assert (1 - x).terms() == [(0, 1), (1, -1)]
        with pytest.raises(TypeError):
            x + "a"


class TestMul:
    def test_geometric_inverse(self):
        x = QSeries.from_terms([(0, 1), (1, -1)], 10)
        assert (x * geometric(10)).equal_up_to(QSeries.one(10), 10)

    def test_exponent_addition(self):
        m = QSeries.monomial(1, rational("1/24"), 5)
        assert (m * m).lowest_term()[0] == Rational(1, 12)

    def test_first_ten_euler_factors_frozen(self):
        # oracle: naive integer polynomial expansion of the finite product
        expected = euler_factors_poly(10, 10)
        assert expected == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}
        acc = QSeries.one(10)
        for i in range(1, 11):
            acc = acc * QSeries.from_terms([(0, 1), (i, -1)], 20)
        got = {int(e): int(c) for e, c in acc.terms() if e < 10}
        assert got == expected

    def test_zero_factor_precision(self):
        x = QSeries.monomial(1, 2, 9)
        z = QSeries.zero(5)
        assert (x * z).is_zero
        assert (x * z).precision == 7  # 5 + lowexp(x)

    def test_scalar_mul(self):
        x = QSeries.from_terms([(0, 1), (2, 3)], 6)
        assert (2 * x).coefficient(2) == 6
        assert (x * rational("1/3")).coefficient(2) == 1
        assert (0 * x).is_zero
        with pytest.raises(TypeError):
            x * 0.5


class TestInvert:
    def test_geometric_series(self):
        x = QSeries.from_terms([(0, 1), (1, -1)], 10)
        assert x.invert().equal_up_to(geometric(10), 10)

    def test_monomial(self):
        y = QSeries.monomial(1, rational("1/24"), 5).invert()
        assert y.lowest_term() == (Rational(-1, 24), Rational(1))

    def test_partition_counts(self):
        # oracle: bounded-part partition recursion
        expected = [partition_count(n) for n in range(6)]
        assert expected == [1, 1, 2, 3, 5, 7]
        pgf = euler_inverse(6)
        assert [int(pgf.coefficient(n)) for n in range(6)] == expected

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError, match="not invertible"):
            QSeries.zero(5).invert()

    def test_roundtrip_precision(self):
        x = QSeries.from_terms([(2, 3), (3, 1), (5, -2)], 12)
        y = x.invert()
        assert y.lowest_term()[0] == -2
        assert y.precision == 12 - 4
        assert (x * y).equal_up_to(QSeries.one(10), 8)


class TestThetaDerive:
    def test_monomial_rule(self):
        x = QSeries.monomial(1, 3, 10)
        assert x.theta_derive().terms() == [(Rational(3), Rational(3))]

    def test_constant_killed(self):
        assert QSeries.one(10).theta_derive().is_zero

    def test_fractional_exponent(self):
        x = QSeries.monomial(1, rational("1/24"), 5)
        assert x.theta_derive().terms() == [(Rational(1, 24), Rational(1, 24))]

    def test_precision_unchanged(self):
        x = QSeries.from_terms([(0, 1), (2, 5)], rational("17/2"))
        assert x.theta_derive().precision == rational("17/2")


class TestPow:
    def test_power_zero(self):
        x = QSeries.from_terms([(1, 4)], 7)
        assert (x ** 0).equal_up_to(QSeries.one(7), 7)

    def test_square(self):
        x = QSeries.from_terms([(0, 1), (1, 1)], 10)
        assert [(int(e), int(c)) for e, c in (x ** 2).terms()] == \
            [(0, 1), (1, 2), (2, 1)]

    def test_eta_cube_low_terms(self):
        # independent expansion of the alternating odd-weight sum
        cube = eta_series(11) ** 3
        expected = {}
        m = 0
        while m * (m + 1) // 2 < 10:
            expected[Rational(1, 8) + m * (m + 1) // 2] = \
                (2 * m + 1) * (-1 if m % 2 else 1)
            m += 1
        got = {e: int(c) for e, c in cube.terms() if e < 10}
        assert got == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative power"):
            QSeries.one(5) ** -1


class TestEqualUpTo:
    def test_reflexive(self):
        x = QSeries.from_terms([(0, 1), (3, -2)], 9)
        assert x.equal_up_to(x, 9)
        assert (x == 3) is False

    def test_bound_sensitivity(self):
        one = QSeries.one(10)
        bumped = one + QSeries.monomial(1, 5, 10)
        assert one.equal_up_to(bumped, 5)
        assert not one.equal_up_to(bumped, 6)

    def test_insufficient_precision(self):
        with pytest.raises(PrecisionError, match="insufficient precision"):
            QSeries.one(5).equal_up_to(QSeries.one(10), 6)


class TestSerialization:
    def test_header_and_lines(self):
        eta = eta_series(3)
        assert eta.to_text() == "D=24 P=3\n1/24 1\n25/24 -1\n49/24 -1\n"

    def test_display(self):
        assert str(eta_series(3)) == ("q^(1/24) - q^(25/24) - q^(49/24) "
                                      "+ O(q^(3))")
        assert str(QSeries.zero(5)) == "0 + O(q^(5))"
        mixed = QSeries.from_terms(
            [(0, 3), (rational("1/2"), rational("-5/3")), (2, 1)],
            rational("7/2"))
        assert str(mixed) == "3 - 5/3*q^(1/2) + q^(2) + O(q^(7/2))"
        long = eta_series(200)
        assert str(long) == ("q^(1/24) - q^(25/24) - q^(49/24) + q^(121/24) "
                             "+ q^(169/24) - q^(289/24) - q^(361/24) "
                             "+ q^(529/24) + ... + O(q^(200))")
        assert repr(long) == ("QSeries(q^(1/24) - q^(25/24) - q^(49/24) "
                              "+ q^(121/24) + ... + O(q^(200)))")

    def test_roundtrip(self):
        for series in (eta_series(8), QSeries.zero(rational("5/2")),
                       QSeries.from_terms([(rational("-7/6"), rational("2/3")),
                                           (2, -5)], 4)):
            assert QSeries.from_text(series.to_text()) == series

    def test_bad_header(self):
        with pytest.raises(ValueError, match="bad series header"):
            QSeries.from_text("hello\n")
        with pytest.raises(ValueError, match="empty series text"):
            QSeries.from_text(" \n")

    def test_zero_grid_header_rejected(self):
        # QSeries(0, ...) raises, so the header D=0 names no grid
        with pytest.raises(ValueError, match="grid denominator"):
            QSeries(0, 0, {0: 1}, 3)
        for text in ("D=0 P=3\n0 1\n", "D=00 P=3\n", "D=0 P=3\n"):
            with pytest.raises(ValueError, match="bad series header"):
                QSeries.from_text(text)
        assert QSeries.from_text("D=1 P=3\n0 1\n") == QSeries.one(3)

    def test_off_grid_exponent(self):
        with pytest.raises(ValueError, match="off the declared grid"):
            QSeries.from_text("D=2 P=5\n1/3 1\n")


class TestPlumbing:
    def test_shift(self):
        x = QSeries.from_terms([(0, 1), (1, -1)], 10)
        shifted = x.shift(rational("1/24"))
        assert shifted.lowest_term()[0] == Rational(1, 24)
        assert shifted.precision == 10 + Rational(1, 24)

    def test_truncate(self):
        x = QSeries.from_terms([(0, 1), (4, 2)], 10)
        cut = x.truncate(3)
        assert cut.precision == 3
        assert len(cut.terms()) == 1
        assert x.truncate(12) is x

    def test_coefficient_access(self):
        x = QSeries.from_terms([(rational("1/2"), 7)], 4)
        assert x.coefficient(rational("1/2")) == 7
        assert x.coefficient(1) == 0
        with pytest.raises(PrecisionError):
            x.coefficient(4)

    def test_no_stored_zeros(self):
        x = QSeries.from_terms([(0, 1), (1, 1)], 10)
        y = QSeries.from_terms([(0, 1), (1, -1)], 10)
        for series in (x + (-x), x * y, y - y, x * y * y.invert()):
            assert all(c != 0 for c in series.coefficients.values())

    def test_coefficients_read_only(self):
        x = QSeries.one(5)
        with pytest.raises(TypeError):
            x.coefficients[0] = 2

    def test_division_operator(self):
        x = QSeries.from_terms([(0, 1), (1, 1)], 10)
        assert (x / x).equal_up_to(QSeries.one(10), 10)
        assert (x / 2).coefficient(0) == rational("1/2")
        with pytest.raises(TypeError):
            x / "a"


def test_only_the_series_module_reads_numerator_maps():
    # every other module reaches a series' numerators through
    # QSeries._on_grid or builds a series by QSeries._from_numerators
    source = Path(qetakit.__file__).parent
    readers = sorted(
        path.name for path in source.glob("*.py") if path.name != "series.py"
        and any(isinstance(node, ast.Attribute) and node.attr == "_num"
                for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == []
