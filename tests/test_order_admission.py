"""The one order-admission rule, :func:`qetakit.rationals.order_above`.

Every builder and verifier whose series starts at a known leading exponent
rejects an order at or below it with the same message, and builds just
above it; no other code in the package raises such a message.
"""

import ast
import inspect
from pathlib import Path

import pytest

import qetakit
from qetakit import (Rational, character_chi_form, character_double_sum,
                     character_product_2k1, eisenstein_g2, general_terms,
                     jacobi_cube_series, macdonald_rhs, make_model,
                     named_series, normalized_character,
                     pentagonal_sum_series, verify_identity, weber_series,
                     weight_label, wronskian_entry_precision)
from qetakit.rationals import order_above

ISING = make_model(3, 4)
SIGMA = weight_label(ISING, 1, 2)  # h_bar = 1/16 - 1/48 = 1/24
LEE_YANG = weight_label(make_model(2, 5), 1, 1)  # h_bar = 11/60

#: (entry point, its leading exponent): one for each call site of the rule.
ENTRY_POINTS = {
    "pentagonal_sum_series": (pentagonal_sum_series, Rational(1, 24)),
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
    "character_product_2k1": (
        lambda order: character_product_2k1(2, 1, order), LEE_YANG.h_bar),
    "normalized_character": (
        lambda order: normalized_character(ISING, SIGMA, order),
        SIGMA.h_bar + Rational(1, 24)),
    "general_terms": (lambda order: general_terms(ISING, order), 0),
    "lattice rhs": (lambda order: macdonald_rhs(2, order), Rational(1, 4)),
    "verify_identity": (lambda order: verify_identity("weber", order=order),
                        Rational(1, 2)),
    "wronskian_entry_precision": (
        lambda order: wronskian_entry_precision(
            [Rational(1, 8), Rational(1, 3)], order), Rational(11, 24)),
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
