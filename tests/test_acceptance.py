"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every comparison is exact (tolerance zero); identity
constants are determined empirically and checked against frozen values where
the criterion requires them to be recorded.

The shipped suite manifest is executed once (session fixture) and covers the
model-grid criteria; it includes every coprime pair with s*t <= 40.  For the
three k = 12 models the order-10 request is vacuous (the eta power has no
exponent below 11.5), so the suite raises those orders just past the leading
exponent, which makes the check strictly stronger than requested.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qetakit import (QSeries, Rational, abel_log_derivative_check,
                     c_k_constant, character_chi_form, character_double_sum,
                     character_product_2k1, characters_for_wronskian,
                     coprime_models, distinct_weights, eisenstein_g2,
                     eta_power, eta_series, euler_product,
                     jacobi_cube_series, make_model, mu_count,
                     pentagonal_sum_series, rational, strange_sum_2k1,
                     strange_sum_general, verify_identity, wronskian)
from qetakit.suite import load_manifest, run_suite

from oracles import (matrix_determinant, random_series, scale_by_matrix,
                     wronskian_vandermonde_expand)

MACDONALD_CONSTANTS = {2: Rational(-1), 3: Rational(-1), 4: Rational(1)}


def report_criterion(number, description, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {description}: {status} "
          f"({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="session")
def suite_reports():
    started = time.monotonic()
    manifest = load_manifest()
    reports = run_suite(manifest)
    elapsed = time.monotonic() - started
    print(f"\n[shipped manifest {manifest['version']}: {len(reports)} jobs "
          f"in {elapsed:.1f}s]")
    indexed = {}
    for report in reports:
        key = (report.identity, tuple(sorted(report.params.items())))
        indexed[key] = report
    return indexed, elapsed


def test_suite_text_matches_golden(suite_reports):
    # the text output of `qetakit verify suite`, byte for byte
    reports, _ = suite_reports
    text = f"manifest={load_manifest()['version']}\n" + "".join(
        report.to_line() + "\n" for report in reports.values())
    assert text == (Path(__file__).parent / "golden"
                    / "suite_1.txt").read_text()


def test_criterion_1_euler_identity():
    started = time.monotonic()
    order = rational(200) + Rational(1, 24)
    # eta is built as the pentagonal sum: compare it with the product
    product = euler_product(order - Rational(1, 24)).shift(Rational(1, 24))
    ok = (eta_series(order).equal_up_to(product, order)
          and pentagonal_sum_series(order).equal_up_to(product, order))
    report_criterion(1, "pentagonal identity below 200+1/24",
                     ok, time.monotonic() - started)


def test_criterion_2_jacobi_identity():
    started = time.monotonic()
    ok = eta_power(3, 100).equal_up_to(jacobi_cube_series(100), 100)
    report_criterion(2, "eta-cube identity below 100",
                     ok, time.monotonic() - started)


def test_criterion_3_macdonald_k234():
    started = time.monotonic()
    ok = True
    for k, expected in MACDONALD_CONSTANTS.items():
        base = Rational(2 * k * k - k, 24)
        low = verify_identity("macdonald", k=k, order=15 + base)
        high = verify_identity("macdonald", k=k, order=20)
        ok &= low.match and high.match
        ok &= low.constant == high.constant == expected
        ok &= low.constant is not None and low.constant != 0
    report_criterion(3, "k-fold lattice sums k=2,3,4 (constants stable)",
                     ok, time.monotonic() - started)


def test_criterion_4_general_sums_grid(suite_reports):
    reports, suite_elapsed = suite_reports
    started = time.monotonic()
    models = coprime_models(40)
    ok = len(models) == 22
    for model in models:
        report = reports[("denominator", (("s", model.s), ("t", model.t)))]
        ok &= report.match and report.constant not in (None, 0)
    report_criterion(4, f"per-model lattice sums, st<=40 "
                        f"(grid suite {suite_elapsed:.0f}s total)",
                     ok, time.monotonic() - started)


def test_criterion_5_wronskian_identities(suite_reports):
    reports, _ = suite_reports
    started = time.monotonic()
    ok = True
    for model in coprime_models(40):
        key = (("s", model.s), ("t", model.t))
        raw = reports[("wronskian_raw", key)]
        norm = reports[("wronskian_normalized", key)]
        ok &= raw.match and raw.constant not in (None, 0)
        ok &= norm.match and norm.constant not in (None, 0)
    report_criterion(5, "Wronskian eta-power identities, st<=40",
                     ok, time.monotonic() - started)


def test_criterion_6_weber_ratio(suite_reports):
    reports, _ = suite_reports
    started = time.monotonic()
    direct = verify_identity("weber", order=20)
    suite_report = reports[("weber", ())]
    ok = (direct.match and direct.constant == Rational(7, 256)
          and suite_report.match
          and suite_report.constant == Rational(7, 256))
    report_criterion(6, "Weber Wronskian ratio exactly 7/256 below 20",
                     ok, time.monotonic() - started)


def test_criterion_7_abel_first_coefficient():
    started = time.monotonic()
    ok = True
    order = 15
    models = [m for m in coprime_models(27) if m.k <= 4]
    assert {(m.s, m.t) for m in models} == {(2, 3), (2, 5), (2, 7), (3, 4),
                                            (2, 9), (3, 5)}
    for model in models:
        k = model.k
        g2 = eisenstein_g2(order)
        raw = characters_for_wronskian(model, order + 1)
        ok &= abel_log_derivative_check(raw, (k * (k - 1)) * g2, order)
        norm = characters_for_wronskian(model, order + 1, normalized=True)
        coeff = Rational(k * (k - 1)) + Rational(k, 2)
        ok &= abel_log_derivative_check(norm, coeff * g2, order)
    report_criterion(7, "first-coefficient reduction checks, k<=4, order 15",
                     ok, time.monotonic() - started)


def test_criterion_8_cross_formula_characters():
    started = time.monotonic()
    order = 40
    ok = True
    for model in coprime_models(60):
        for i, label in enumerate(distinct_weights(model), start=1):
            double = character_double_sum(model, label, order)
            chi = character_chi_form(model, label, order)
            ok &= double.equal_up_to(chi, order)
            if model.s == 2:
                prod = character_product_2k1(model.k, i, order)
                ok &= double.equal_up_to(prod, order)
    report_criterion(8, "three-way character agreement, st<=60, order 40",
                     ok, time.monotonic() - started)


def test_criterion_9_strange_formulas():
    started = time.monotonic()
    ok = True
    for k in range(1, 13):
        ok &= strange_sum_2k1(k) == Rational(2 * k * (k - 1), 24)
    for model in coprime_models(100):
        s, t = model.s, model.t
        value = strange_sum_general(s, t)
        ok &= value == Rational((s - 1) * (t - 1) * (s * t - s - t - 1), 48)
        a = model.k
        ok &= value == Rational(2 * a * (a - 1), 24)
    report_criterion(9, "weight-sum closed forms, k<=12 and st<=100",
                     ok, time.monotonic() - started)


def test_criterion_10_mu_and_randomized_wronskian_suite():
    started = time.monotonic()
    count, solutions = mu_count(9)
    ok = count == 3 and solutions == [(2, 19), (3, 10), (4, 7)]

    rng = random.Random(20260811)
    instances = 0
    # Wronskian vs the Vandermonde expansion oracle
    for _ in range(60):
        k = rng.randint(1, 3)
        vec = [random_series(rng, max_terms=5, allow_zero=False)
               for _ in range(k)]
        det = wronskian(vec)
        exp = wronskian_vandermonde_expand(vec)
        ok &= (det.precision >= exp.precision
               and det.equal_up_to(exp, exp.precision))
        instances += 1
    # determinant scaling under rational linear combinations
    for _ in range(60):
        k = rng.randint(1, 3)
        vec = [random_series(rng, max_terms=4, allow_zero=False)
               for _ in range(k)]
        matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                   for _ in range(k)] for _ in range(k)]
        lhs = wronskian(scale_by_matrix(matrix, vec))
        rhs = matrix_determinant(matrix) * wronskian(vec)
        bound = min(lhs.precision, rhs.precision)
        ok &= lhs.equal_up_to(rhs, bound)
        instances += 1
    ok &= instances >= 100
    report_criterion(10, "mu(9) and randomized determinant suite "
                         f"({instances} instances)",
                     ok, time.monotonic() - started)
