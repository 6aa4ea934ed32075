"""The command line's error contract, checked over generated input.

Every run exits 0, 1 or 2 and never shows a traceback; exit 1 means that a
report said ``match=false``; exit 2 comes with exactly one line on stderr.
Arguments and manifests are drawn from small pools that mix good tokens
with malformed ones (``1/0``, ``0.5``, ``abc``, ``-3``, empty model grids,
``--jobs`` below 1, options that do not apply, stray or out-of-domain
params), and every order
is at most 12, so each example runs in milliseconds.
"""

import ast
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qetakit
from qetakit import QSeries, Rational, eta_power
from qetakit.cli import main
from qetakit.identities import IDENTITIES, Identity
from qetakit.rationals import rat_str, rational

GOOD_ORDERS = ["3", "7/2", "10", "35/4", "12"]
BAD_ORDERS = ["1/0", "2/0", "0.5", "1e2", "abc", "", "-3", "0", "1/24",
              "-7/3"]
ORDERS = st.one_of(st.sampled_from(GOOD_ORDERS), st.sampled_from(BAD_ORDERS))
BAD_INTS = ["-3", "0", "1", "abc"]
GOOD_PARAMS = {(): [[]], ("k",): [["--k", k] for k in ("2", "3", "4")],
               ("s", "t"): [["--s", s, "--t", t] for s, t in
                            (("2", "3"), ("2", "5"), ("3", "4"), ("5", "2"))]}
MAX_ST = st.one_of(st.sampled_from(["6", "10"]),
                   st.sampled_from(["0", "5", "-5", "abc"]))
IDENTITY_NAMES = list(IDENTITIES) + ["nope"]
SERIES_NAMES = ["eta", "eta^3", "g2", "pentagonal_sum", "jacobi_cube_sum",
                "weber_f", "weber_f1", "weber_f2", "eta^0", "eta^x", "zeta"]
RARELY = st.sampled_from([False, False, False, True])


def run(argv):
    """``main(argv)`` as a process would end: its exit status, stdout and
    stderr, with an escaping exception turned into a traceback and
    status 1, as the interpreter reports it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        except Exception:  # noqa: BLE001 - this is what the test looks for
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    mismatched = any("match=false" in line for line in out.splitlines())
    assert (code == 1) == mismatched, (argv, code, out)
    if code == 2:
        assert err.startswith("qetakit: error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)


@st.composite
def verify_argv(draw, name):
    argv = ["verify", name, "--order", draw(ORDERS)]
    shape = IDENTITIES[name].params if name in IDENTITIES else ()
    if draw(RARELY):  # any params, good or bad, fitting or not
        for flag in ("--k", "--s", "--t"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(BAD_INTS + ["2", "5"]))]
    else:
        argv += draw(st.sampled_from(GOOD_PARAMS[shape]))
    if name == "suite" or draw(RARELY):
        # a suite always gets a grid: the shipped manifest would run
        argv += ["--max-st", draw(MAX_ST)]
    if draw(RARELY):  # --jobs 1 runs no worker process
        argv += ["--jobs", draw(st.sampled_from(["1", "0", "-1", "abc"]))]
    if draw(RARELY):
        argv.append("--window-audit")
    if draw(RARELY):
        argv += ["--format", "structured"]
    return argv


@st.composite
def series_or_char_argv(draw):
    order = ["--order", draw(ORDERS)]
    if draw(st.booleans()):
        return ["series", draw(st.sampled_from(SERIES_NAMES))] + order
    model = draw(st.sampled_from([("2", "5"), ("3", "4"), ("5", "2")]))
    label = draw(st.sampled_from([("1", "1"), ("1", "2"), ("2", "1")]))
    if draw(RARELY):
        model, label = draw(st.sampled_from([
            (("4", "6"), label), (model, ("0", "1")), (model, ("1", "abc")),
            (("-3", "5"), label)]))
    argv = ["char", "--s", model[0], "--t", model[1],
            "--m", label[0], "--n", label[1]]
    if draw(st.booleans()):
        argv += ["--form", draw(st.sampled_from(
            ["double", "chi", "product", "bogus"]))]
    return argv + order


JSON_VALUES = [-3, 0, 1, 2, 3, 5, True, 2.0, "3", None]
JSON_ORDERS = GOOD_ORDERS + BAD_ORDERS + [3, 12, -3, 0.5, True, None]

GOOD_JOB_PARAMS = {(): [{}], ("k",): [{"k": 2}, {"k": 3}],
                   ("s", "t"): [{"s": 2, "t": 5}, {"s": 4, "t": 3}]}

good_jobs = st.sampled_from(list(IDENTITIES)).flatmap(
    lambda name: st.fixed_dictionaries({
        "identity": st.just(name),
        "params": st.sampled_from(GOOD_JOB_PARAMS[IDENTITIES[name].params]),
        "order": st.sampled_from(GOOD_ORDERS + [3, 12])}))

any_jobs = st.one_of(
    st.fixed_dictionaries(
        {"identity": st.sampled_from(IDENTITY_NAMES + [3, None]),
         "order": st.sampled_from(JSON_ORDERS)},
        optional={"params": st.one_of(
            st.none(), st.just([]),
            st.dictionaries(st.sampled_from(["k", "s", "t", "x"]),
                            st.sampled_from(JSON_VALUES), max_size=3)),
            "oder": st.sampled_from(JSON_ORDERS)}),
    st.sampled_from(["euler", {"identity": "euler"}, {"order": "3"}]),
)

manifests = st.one_of(
    st.lists(good_jobs, max_size=3),
    st.lists(st.one_of(good_jobs, any_jobs), max_size=3),
).map(lambda entries: json.dumps({"version": "t", "jobs": entries})) | \
    st.sampled_from(['{"jobs": []}', '{"version": "t", "jobs": {}}', "[]",
                     '"text"', "{", "", '{"version": 3, "jobs": []}'])


@pytest.mark.parametrize("name", IDENTITY_NAMES + ["suite"])
def test_verify_arguments_keep_the_contract(name):
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(verify_argv(name))
    def check(argv):
        assert_contract(argv)

    check()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_or_char_argv())
def test_series_and_char_arguments_keep_the_contract(argv):
    assert_contract(argv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(manifests, st.sampled_from(["suite", "euler"]))
def test_manifests_keep_the_contract(text, name):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "manifest.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        assert_contract(["verify", name, "--manifest", path])


def test_a_mismatch_is_exit_1(monkeypatch):
    # the one way to exit 1: a report that says match=false; here the
    # product side of `verify euler` is wrong (the partition series)
    import qetakit.identities as identities
    from qetakit.eta import euler_inverse
    monkeypatch.setattr(identities, "euler_product", euler_inverse)
    code, out, err = run(["verify", "euler", "--order", "12"])
    assert code == 1 and "match=false" in out and err == ""
    assert_contract(["verify", "euler", "--order", "12"])


def test_a_mismatch_on_the_eta_side_is_exit_1(monkeypatch):
    # the eta side of `verify euler` is the pentagonal sum; a wrong one
    # must fail the report as well
    import qetakit.eta as eta
    monkeypatch.setattr(eta, "pentagonal_sum_series",
                        lambda order: eta.jacobi_cube_series(order))
    code, out, err = run(["verify", "euler", "--order", "12"])
    assert code == 1 and "match=false" in out and err == ""
    assert_contract(["verify", "euler", "--order", "12"])


def test_a_wrong_constant_on_jacobi_is_exit_1(monkeypatch):
    # jacobi's constant is 1: twice the cube sum is proportional to eta^3
    # but does not match, even at an order that compares one term
    import qetakit.identities as identities
    from qetakit.eta import jacobi_cube_series
    monkeypatch.setattr(identities, "jacobi_cube_series",
                        lambda order: jacobi_cube_series(order) * 2)
    for order in ("1/7", "12"):
        code, out, err = run(["verify", "jacobi", "--order", order])
        assert code == 1 and "constant=2 match=false" in out and err == ""


def test_a_wrong_constant_on_euler_is_exit_1(monkeypatch):
    # euler's constant is 1: the product scaled by -1 does not match
    import qetakit.identities as identities
    from qetakit.eta import euler_product
    monkeypatch.setattr(identities, "euler_product",
                        lambda order: euler_product(order) * -1)
    code, out, err = run(["verify", "euler", "--order", "12"])
    assert code == 1 and "constant=-1 match=false" in out and err == ""


@pytest.mark.parametrize("name, params", [
    ("euler", []), ("jacobi", []), ("weber", []), ("macdonald", ["--k", "3"]),
    ("denominator", ["--s", "3", "--t", "4"]),
    ("wronskian_raw", ["--s", "2", "--t", "5"]),
    ("wronskian_normalized", ["--s", "3", "--t", "4"])])
def test_a_sign_flipped_prediction_is_exit_1(monkeypatch, name, params):
    # every entry predicts its constant; with the prediction's sign flipped
    # the same report, constant included, says match=false
    argv = ["verify", name, *params, "--order", "12"]
    code, out, err = run(argv)
    assert code == 0 and "match=true" in out and err == ""
    predicted = Identity.predicted
    monkeypatch.setattr(Identity, "predicted",
                        lambda self, **values: -predicted(self, **values))
    assert run(argv) == (1, out.replace("match=true", "match=false"), "")


def test_a_vanished_rhs_is_exit_1(monkeypatch):
    # a builder that returns zero fails the report; it is not bad input
    import qetakit.identities as identities
    from qetakit import QSeries
    monkeypatch.setattr(identities, "jacobi_cube_series", QSeries.zero)
    assert run(["verify", "jacobi", "--order", "12"]) == (
        1, "identity=jacobi params=- order=12 constant=- match=false "
        "first_mismatch=1/8 terms_compared=5\n", "")


HUGE_ORDER = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["verify", "euler", "--order", HUGE_ORDER],
    ["series", "g2", "--order", HUGE_ORDER],
    ["series", "weber_f", "--order", HUGE_ORDER],
    "manifest"])
def test_an_order_too_large_to_build_is_exit_2(argv, tmp_path):
    # a list or range of that size overflows; that is bad input, not a
    # traceback with exit 1
    if argv == "manifest":
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": "t", "jobs": [
            {"identity": "euler", "order": HUGE_ORDER}]}), encoding="utf-8")
        argv = ["verify", "suite", "--manifest", str(path)]
    assert_contract(argv)
    code, _, err = run(argv)
    assert code == 2 and "order too large" in err


@pytest.mark.parametrize("argv", [["series", "g2", "--order", "12"],
                                  ["verify", "euler", "--order", "12"]])
def test_running_out_of_memory_is_exit_2(argv, monkeypatch):
    # an order that allocates but cannot be held ends in MemoryError, whose
    # text is usually empty; the builders raise it here without allocating
    import qetakit.eta as eta
    import qetakit.identities as identities

    def exhausted(order):
        raise MemoryError

    monkeypatch.setitem(eta._NAMED_BUILDERS, "g2", exhausted)
    monkeypatch.setattr(identities, "euler_product", exhausted)
    assert_contract(argv)
    assert run(argv) == (2, "", "qetakit: error: order too large: out of "
                                "memory\n")


@pytest.mark.parametrize("argv, code", [
    (["series", "weber_f", "--order", "-1/96"], 0),
    (["char", "--s", "2", "--t", "5", "--m", "1", "--n", "2", "--order",
      "-1/120"], 0),
    (["verify", "weber", "--order", "-1/2"], 2)])
def test_a_negative_order_is_read_as_an_order(argv, code):
    # -p/q after --order is a value for the order rule to judge, not an
    # unknown option
    assert_contract(argv)
    result = run(argv)
    assert result[0] == code and "expected one argument" not in result[2]


def test_a_non_integer_eta_power_is_named():
    # the power is ASCII digits, as in an order: int() alone reads all but
    # the first of these
    for name in ["eta^x", "eta^1_2", "eta^ 3", "eta^+3", "eta^\u0663"]:
        code, out, err = run(["series", name, "--order", "3"])
        assert (code, out) == (2, ""), name
        assert err == ("qetakit: error: eta power must be an integer "
                       "(eta^M)\n"), name


def full_decimal(n):
    """``str(n)`` with the interpreter's int-to-str digit limit lifted for
    the one call."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(n)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


WIDE_JOB = ["--s", "10", "--t", "13", "--order", "1043/4"]


@pytest.mark.parametrize("form", ["text", "structured", "manifest"])
def test_a_constant_of_more_than_4300_digits_is_printed(form, tmp_path):
    # str() refuses such an int, but a matched verification is no bad input
    argv = ["verify", "denominator", *WIDE_JOB]
    if form == "structured":
        argv += ["--format", "structured"]
    elif form == "manifest":
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": "t", "jobs": [
            {"identity": "denominator", "params": {"s": 10, "t": 13},
             "order": "1043/4"}]}), encoding="utf-8")
        argv = ["verify", "suite", "--manifest", str(path)]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    if form == "structured":
        report, = json.loads(out)["reports"]
        assert report["match"] is True
        printed = report["constant"]
    else:
        line = out.splitlines()[-1]
        assert "match=true" in line.split()
        printed = line.split("constant=")[1].split()[0]
    expected = IDENTITIES["denominator"].predicted(s=10, t=13)
    assert len(printed) > 4300
    assert printed == full_decimal(expected)


def test_a_coefficient_of_more_than_4300_digits_is_printed():
    # the last coefficient of eta^(10^30) below q^(10^30/24 + 200) has
    # 5598 digits; the text format prints it in full and reads it back
    m = 10 ** 30
    order = Rational(m, 24) + 200
    code, out, err = run(["series", f"eta^{m}", "--order", rat_str(order)])
    assert (code, err) == (0, "")
    expected = eta_power(m, order)
    exponent, coefficient = expected.terms()[-1]
    printed = out.splitlines()[-1].split()
    assert printed == [rat_str(exponent), full_decimal(coefficient.numerator)]
    assert len(printed[1]) > 4300
    assert QSeries.from_text(out) == expected


@pytest.mark.parametrize("value", [
    10 ** 8000, -(10 ** 8000) + 1, 7 * 10 ** 4000 + 3, 10 ** 4000,
    10 ** 4000 - 1, -(2 ** 20000) // 3], ids=[
    "10^8000", "-(10^8000)+1", "7*10^4000+3", "10^4000", "10^4000-1",
    "-(2^20000)//3"])
def test_wide_ints_print_in_full(value):
    # at and around one chunk of 4000 digits, which keeps its leading
    # zeros; both parts of a fraction are converted
    assert rat_str(value) == full_decimal(value)
    fraction = rational(value) / (3 ** 9000)
    assert rat_str(fraction) == (f"{full_decimal(fraction.numerator)}/"
                                 f"{full_decimal(fraction.denominator)}")


def test_no_check_in_the_package_is_a_bare_assert():
    # python -O strips assert statements; an exactness check must raise
    stray = []
    for path in sorted(Path(qetakit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        stray += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert stray == []
