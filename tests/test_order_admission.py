"""The one order-admission rule, :func:`qetakit.rationals.order_above`.

Every builder and verifier whose series starts at a known leading exponent
rejects an order at or below it with the same message, and builds just
above it; no other code in the package raises such a message.  An integer
argument is admitted by :func:`operator.index` alone, so a float is never
truncated to one.
"""

import ast
import inspect
from pathlib import Path

import pytest

import qetakit
from qetakit import (IDENTITIES, QSeries, Rational, character_chi_form,
                     character_double_sum, character_product,
                     coprime_models, eisenstein_g2, eta_power, euler_inverse,
                     euler_product, general_terms, identity_lowest_exponent,
                     jacobi_cube_series, macdonald_terms, make_model,
                     named_series, normalized_character,
                     pentagonal_sum_series, verify_identity, weber_series,
                     weight_label)
from qetakit.rationals import largest_int_below, order_above, rational
from qetakit.suite import run_suite

ISING = make_model(3, 4)
#: Two jobs, so that any jobs count above 1 would ask for a worker pool.
TWO_JOBS = {"version": "t", "jobs": [
    {"identity": "euler", "order": "5"}, {"identity": "jacobi", "order": "5"}]}
SIGMA = weight_label(ISING, 1, 2)  # h_bar = 1/16 - 1/48 = 1/24
LEE_YANG = weight_label(make_model(2, 5), 1, 1)  # h_bar = 11/60

#: (entry point, its leading exponent): one for each call site of the rule.
ENTRY_POINTS = {
    "pentagonal_sum_series": (pentagonal_sum_series, Rational(1, 24)),
    "euler_product": (euler_product, 0),
    "euler_inverse": (euler_inverse, 0),
    "jacobi_cube_series": (jacobi_cube_series, Rational(1, 8)),
    "eisenstein_g2": (eisenstein_g2, 0),
    "weber_series": (lambda order: weber_series("f", order),
                     Rational(-1, 48)),
    "named_series eta^M": (lambda order: named_series("eta^3", order),
                           Rational(1, 8)),
    "character_double_sum": (
        lambda order: character_double_sum(ISING, SIGMA, order), SIGMA.h_bar),
    "character_chi_form": (
        lambda order: character_chi_form(ISING, SIGMA, order), SIGMA.h_bar),
    "character_product": (
        lambda order: character_product(make_model(2, 5), LEE_YANG, order),
        LEE_YANG.h_bar),
    "normalized_character": (
        lambda order: normalized_character(ISING, SIGMA, order),
        SIGMA.h_bar + Rational(1, 24)),
    # the sum of (ns - mt)^2 / 48 over Ising's labels: (1 + 4 + 25)/48
    "general_terms": (lambda order: general_terms(ISING, order),
                      Rational(5, 8)),
    "macdonald_terms": (lambda order: macdonald_terms(2, order),
                        Rational(1, 4)),
    "lattice rhs": (lambda order: IDENTITIES["macdonald"].rhs(order, k=2),
                    Rational(1, 4)),
    "verify_identity": (lambda order: verify_identity("weber", order=order),
                        Rational(1, 2)),
    "built_columns": (
        lambda order: IDENTITIES["wronskian_raw"].built_columns(
            order, s=2, t=5), Rational(1, 6)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_admits_orders_above_its_lead(name):
    build, lead = ENTRY_POINTS[name]
    with pytest.raises(ValueError) as caught:
        build(lead)
    assert str(caught.value) == (f"order {lead} is not above the leading "
                                 f"exponent {lead}; order must exceed {lead}")
    assert build(lead + Rational(1, 1000)) is not None


def test_order_above_returns_a_rational():
    assert order_above("7/2", 3) == Rational(7, 2)
    assert order_above(1, Rational(-1, 48)) == 1
    with pytest.raises(ValueError, match="order must exceed 0$"):
        order_above("-1/2", 0)
    with pytest.raises(TypeError, match="floating point"):
        order_above(0.5, 0)


def test_rational_returns_a_fraction_unchanged():
    value = Rational(7, 2)
    assert rational(value) is value
    for given, expected in ((3, Rational(3)), ("-5/10", Rational(-1, 2))):
        assert type(rational(given)) is Rational
        assert rational(given) == expected
    with pytest.raises(TypeError, match="floating point"):
        rational(0.5)


@pytest.mark.parametrize("x, expected", [
    (3, 2), (-3, -4), (Rational(7, 2), 3), (Rational(-7, 2), -4),
    (Rational(6, 2), 2)])
def test_largest_int_below(x, expected):
    assert largest_int_below(x) == expected
    assert type(largest_int_below(x)) is int


def test_lattice_walks_admit_above_the_entry_lead():
    # each walk's own lead is the entry's power/24, so a verification never
    # hands a walk an order it rejects
    for model in coprime_models(60):
        lead = identity_lowest_exponent("denominator", s=model.s, t=model.t)
        with pytest.raises(ValueError, match=f"must exceed {lead}$"):
            general_terms(model, lead)
        assert general_terms(model, lead + Rational(1, 1000)) is not None
    for k in range(2, 9):
        lead = identity_lowest_exponent("macdonald", k=k)
        with pytest.raises(ValueError, match=f"must exceed {lead}$"):
            macdonald_terms(k, lead)
        assert macdonald_terms(k, lead + Rational(1, 1000)) is not None


def test_order_above_is_the_one_order_admission_rule():
    # no other raise in the package builds a "must exceed" or "must be
    # positive" message, so an order bound is rejected in one place
    source = Path(qetakit.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                text = "".join(part.value for part in ast.walk(node)
                               if isinstance(part, ast.Constant)
                               and isinstance(part.value, str))
                if "must exceed" in text or "must be positive" in text:
                    found.append((path.name, node.lineno))
    lines, start = inspect.getsourcelines(order_above)
    assert [(name, start <= line < start + len(lines))
            for name, line in found] == [("rationals.py", True)]


#: Calls that read an integer argument, each given a float.
FLOAT_INTEGERS = {
    "QSeries key": lambda: QSeries(1, 0, {0.5: 1}, 5),
    "QSeries grid and offset": lambda: QSeries(2.9, 0.7, {1: 1}, 5),
    "QSeries power": lambda: QSeries.monomial(1, 1, 5) ** 2.5,
    "make_model": lambda: make_model(2.5, 5.9),
    "make_model integral": lambda: make_model(2.0, 5.0),
    "weight_label": lambda: weight_label(ISING, 1.9, 2.2),
    "weight_label integral": lambda: weight_label(ISING, 1.0, 2.0),
    "eta_power": lambda: eta_power(2.7, 5),
    "macdonald_terms": lambda: macdonald_terms(2.9, 5),
    "run_suite jobs integral": lambda: run_suite(TWO_JOBS, jobs=1.0),
    "run_suite jobs": lambda: run_suite(TWO_JOBS, jobs=2.5),
}


@pytest.mark.parametrize("name", FLOAT_INTEGERS)
def test_a_float_is_never_read_as_an_integer(name):
    with pytest.raises(TypeError):
        FLOAT_INTEGERS[name]()
    # the same call with the cached builders warmed by the integers that a
    # truncation would give: a cache keyed by value alone returns 2 for 2.0
    make_model(2, 5)
    weight_label(ISING, 1, 2)
    with pytest.raises(TypeError):
        FLOAT_INTEGERS[name]()


def test_operator_index_is_the_one_integer_admission_rule():
    # int() truncates a float; only a string parse and a report's param
    # serialisation may call it
    allowed = {("eta.py", "named_series"), ("series.py", "from_text"),
               ("identities.py", "to_dict")}
    stray = []
    for path in sorted(Path(qetakit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and (path.name, function.name) in allowed
                  for node in ast.walk(function)}
        stray += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "int" and id(node) not in inside]
    assert stray == []
