"""Command-line front end: output formats, exit codes, determinism."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qetakit
from qetakit import (QSeries, VerificationReport, character_double_sum,
                     make_model, rational, weight_label)
from qetakit.cli import build_parser, main
from qetakit.identities import IDENTITIES
from qetakit.suite import (load_manifest, model_grid_jobs, run_suite,
                           validate_job)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(result, *fragments):
    """Exit 2, nothing on stdout, and one line on stderr naming the fault."""
    code, out, err = result
    assert code == 2 and out == ""
    assert err.startswith("qetakit: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


class TestSeriesCommand:
    def test_eta_golden(self, capsys):
        code, out, _ = run_cli(capsys, "series", "eta", "--order", "3")
        assert code == 0
        assert out == "D=24 P=3\n1/24 1\n25/24 -1\n49/24 -1\n"

    def test_deterministic_bytes(self, capsys):
        first = run_cli(capsys, "series", "eta^6", "--order", "9/2")
        second = run_cli(capsys, "series", "eta^6", "--order", "9/2")
        assert first == second

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "series", "zeta", "--order", "5")
        assert code == 2
        assert "unknown series name" in err

    def test_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "series", "eta", "--order", "abc")
        assert code == 2 and "bad order" in err

    @pytest.mark.parametrize("name, order, lead", [
        ("eta", "0", "1/24"), ("eta^1", "0", "1/24"),
        ("eta^2", "1/12", "1/12")])
    def test_vacuous_eta_power_order(self, capsys, name, order, lead):
        assert_usage_error(run_cli(capsys, "series", name, "--order", order),
                           f"order must exceed {lead}")


class TestCharCommand:
    def test_forms_agree(self, capsys):
        args = ("--s", "3", "--t", "4", "--m", "1", "--n", "2",
                "--order", "10")
        _, out_double, _ = run_cli(capsys, "char", *args, "--form", "double")
        _, out_chi, _ = run_cli(capsys, "char", *args, "--form", "chi")
        d = QSeries.from_text(out_double)
        c = QSeries.from_text(out_chi)
        assert d.equal_up_to(c, 10)

    def test_emitted_series_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "char", "--s", "2", "--t", "5", "--m", "1",
                            "--n", "1", "--order", "8")
        model = make_model(2, 5)
        label = weight_label(model, 1, 1)
        assert out == character_double_sum(model, label, 8).to_text()

    def test_product_form_requires_s2(self, capsys):
        code, _, err = run_cli(capsys, "char", "--s", "3", "--t", "4",
                               "--m", "1", "--n", "2", "--form", "product")
        assert code == 2 and "product" in err

    def test_product_form_s2(self, capsys):
        args = ("--s", "2", "--t", "7", "--m", "1", "--n", "2", "--order", "9")
        _, out_prod, _ = run_cli(capsys, "char", *args, "--form", "product")
        _, out_chi, _ = run_cli(capsys, "char", *args, "--form", "chi")
        assert QSeries.from_text(out_prod).equal_up_to(
            QSeries.from_text(out_chi), 9)

    def test_product_form_takes_the_mirror_label(self, capsys):
        # (1, 3) and (1, 2) of the (2, 5) model are one module: the product
        # form accepts both, as the double and chi forms do
        args = ("--s", "2", "--t", "5", "--m", "1", "--order", "9")
        outs = {(n, form): run_cli(capsys, "char", *args, "--n", n,
                                   "--form", form)
                for n in ("2", "3") for form in ("product", "double", "chi")}
        assert {code for code, _, _ in outs.values()} == {0}
        series = {key: QSeries.from_text(out)
                  for key, (_, out, _) in outs.items()}
        assert series["3", "product"] == series["2", "product"]
        for key in series:
            assert series[key].equal_up_to(series["2", "product"], 9)

    def test_invalid_model(self, capsys):
        code, _, err = run_cli(capsys, "char", "--s", "4", "--t", "6",
                               "--m", "1", "--n", "1")
        assert code == 2 and "not a minimal model" in err


class TestVerifyCommand:
    def test_euler_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "euler", "--order", "100")
        assert code == 0
        assert out == ("identity=euler params=- order=100 constant=1 "
                       "match=true first_mismatch=- terms_compared=16\n")

    def test_weber_structured(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "weber", "--order", "15",
                               "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest_version"] is None
        assert doc["reports"][0]["constant"] == "7/256"
        assert doc["reports"][0]["match"] is True
        assert "runtime_seconds" in doc

    def test_macdonald_k1_guides_to_euler(self, capsys):
        code, _, err = run_cli(capsys, "verify", "macdonald", "--k", "1")
        assert code == 2 and "euler" in err

    def test_macdonald_without_k_is_one_line_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "macdonald", "--order", "10")
        assert code == 2 and out == ""
        assert err == "qetakit: error: macdonald requires k\n"

    def test_invalid_model_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "denominator", "--s", "4",
                               "--t", "6")
        assert code == 2 and "not a minimal model" in err

    def test_insufficient_order_names_bound(self, capsys):
        code, _, err = run_cli(capsys, "verify", "macdonald", "--k", "3",
                               "--order", "1/2")
        assert code == 2 and "must exceed 5/8" in err

    def test_window_audit_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "macdonald", "--k", "2",
                               "--order", "12", "--window-audit")
        assert code == 0 and "match=true" in out
        code, out, _ = run_cli(capsys, "verify", "denominator", "--s", "2",
                               "--t", "5", "--order", "10", "--window-audit")
        assert code == 0 and "match=true" in out

    def test_window_audit_checks_the_determinant_path(self, capsys,
                                                      monkeypatch):
        # order 20 puts both sums above the crossover, where they are built
        # as Wronskians; the audit compares them with their tuple sums
        import qetakit.identities as identities
        for argv in (("macdonald", "--k", "3"),
                     ("denominator", "--s", "3", "--t", "4")):
            code, out, _ = run_cli(capsys, "verify", *argv, "--order", "20",
                                   "--window-audit")
            assert code == 0 and "match=true" in out
        build = identities._lattice_determinant
        monkeypatch.setattr(identities, "_lattice_determinant",
                            lambda model, order: build(model, order) * 2)
        code, _, err = run_cli(capsys, "verify", "denominator", "--s", "3",
                               "--t", "4", "--order", "20", "--window-audit")
        assert code == 2 and "window audit failed" in err

    def test_window_audit_checks_below_the_crossover(self, capsys,
                                                    monkeypatch):
        # order 5 puts both sums below the crossover, where the verification
        # enumerates tuples; the audit still builds the Wronskian form
        import qetakit.identities as identities
        build = identities._lattice_determinant
        monkeypatch.setattr(identities, "_lattice_determinant",
                            lambda model, order: build(model, order) * 2)
        for argv in (("macdonald", "--k", "3"),
                     ("denominator", "--s", "3", "--t", "4")):
            code, out, _ = run_cli(capsys, "verify", *argv, "--order", "5")
            assert code == 0 and "match=true" in out
            code, _, err = run_cli(capsys, "verify", *argv, "--order", "5",
                                   "--window-audit")
            assert code == 2 and "window audit failed" in err

    def test_window_audit_checks_the_tuple_side(self, capsys, monkeypatch):
        # a tuple walk that loses a term must fail the audit too
        import qetakit.identities as identities
        walk = identities.general_terms
        monkeypatch.setattr(identities, "general_terms",
                            lambda model, order: walk(model, order)[1:])
        code, _, err = run_cli(capsys, "verify", "denominator", "--s", "3",
                               "--t", "4", "--order", "20", "--window-audit")
        assert code == 2 and "window audit failed" in err

    def test_window_audit_builds_each_path_once(self, capsys, monkeypatch):
        # the verification compares the sum the audit built, on either side
        # of the crossover, instead of building it again
        import qetakit.identities as identities
        calls = {}

        def counted(name):
            inner = getattr(identities, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            return wrapper

        for name in ("general_terms", "macdonald_terms", "wronskian"):
            monkeypatch.setattr(identities, name, counted(name))
        for walk, argv in (("macdonald_terms", ("macdonald", "--k", "3")),
                           ("general_terms",
                            ("denominator", "--s", "3", "--t", "4"))):
            for order in ("5", "20"):
                calls.clear()
                code, out, _ = run_cli(capsys, "verify", *argv, "--order",
                                       order, "--window-audit")
                assert code == 0 and "match=true" in out
                assert calls == {walk: 1, "wronskian": 1}, (argv, order)

    def test_window_audit_wrong_identity(self, capsys):
        code, _, err = run_cli(capsys, "verify", "euler", "--order", "40",
                               "--window-audit")
        assert code == 2 and "lattice-sum" in err

    def test_param_the_identity_does_not_take(self, capsys):
        assert_usage_error(run_cli(capsys, "verify", "euler", "--k", "3"),
                           "unknown param 'k' for euler")
        assert_usage_error(run_cli(capsys, "verify", "macdonald", "--k", "3",
                                   "--s", "2"), "unknown param 's'")

    @pytest.mark.parametrize("argv", [("--max-st", "10"), ("--jobs", "2")])
    def test_suite_options_do_not_apply(self, capsys, argv):
        assert_usage_error(run_cli(capsys, "verify", "euler", "--order", "10",
                                   *argv), "apply to verify suite only")

    @pytest.mark.parametrize(
        "name", [name for name, entry in IDENTITIES.items()
                 if entry.tuples is None])
    def test_window_audit_refused_off_the_lattice_sums(self, capsys, name):
        params = {(): (), ("s", "t"): ("--s", "2", "--t", "5")}
        assert_usage_error(
            run_cli(capsys, "verify", name, *params[IDENTITIES[name].params],
                    "--order", "10", "--window-audit"),
            "--window-audit applies to the lattice-sum identities "
            "(macdonald, denominator)")

    def test_identity_choices_come_from_the_table(self):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        identity = next(action for action
                        in commands.choices["verify"]._actions
                        if action.dest == "identity")
        assert list(identity.choices) == list(IDENTITIES) + ["suite"]

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        import qetakit.cli as cli_module
        failed = VerificationReport("euler", {}, rational(10), None, False,
                                    rational(1), 3)
        monkeypatch.setattr(cli_module, "verify_identity",
                            lambda *a, **kw: failed)
        code, out, _ = run_cli(capsys, "verify", "euler", "--order", "10")
        assert code == 1
        assert "match=false" in out


class TestSuiteCommand:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "suite", "--max-st", "12",
                               "--order", "8")
        assert code == 0
        lines = out.strip().splitlines()
        # a manifest header, then models (2,3), (2,5), (3,4) x three families
        assert lines[0] == "manifest=adhoc-maxst12-order8"
        assert len(lines) == 10
        assert all("match=true" in line for line in lines[1:])
        assert lines[1].startswith("identity=denominator params=s=2,t=3")

    def test_deterministic_text(self, capsys):
        first = run_cli(capsys, "verify", "suite", "--max-st", "10",
                        "--order", "8")
        second = run_cli(capsys, "verify", "suite", "--max-st", "10",
                         "--order", "8")
        assert first == second

    def test_structured_document(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "suite", "--max-st", "10",
                               "--order", "8", "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest_version"] == "adhoc-maxst10-order8"
        assert len(doc["reports"]) == 6
        for report in doc["reports"]:
            assert report["match"] is True
            assert set(report) == {"identity", "params", "order", "constant",
                                   "match", "first_mismatch",
                                   "terms_compared"}

    def test_parallel_jobs_same_reports(self, capsys):
        _, seq, _ = run_cli(capsys, "verify", "suite", "--max-st", "10",
                            "--order", "8")
        _, par, _ = run_cli(capsys, "verify", "suite", "--max-st", "10",
                            "--order", "8", "--jobs", "2")
        assert seq == par

    def test_jobs_below_one_is_refused_before_any_job_runs(self, capsys,
                                                          monkeypatch):
        import qetakit.suite as suite
        monkeypatch.setattr(suite, "run_job", lambda job: 1 / 0)
        assert_usage_error(run_cli(capsys, "verify", "suite", "--max-st",
                                   "10", "--order", "8", "--jobs", "-2"),
                           "jobs must be at least 1, got -2")

    def test_workers_are_capped_by_the_job_count(self, monkeypatch):
        # a fake pool records the worker count and runs the jobs in this
        # process, so no worker is ever started
        import concurrent.futures
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        manifest = {"version": "t", "jobs": [
            {"identity": "euler", "params": {}, "order": "10"}] * 3}
        assert len(run_suite(manifest, jobs=10 ** 6)) == 3
        assert len(run_suite(manifest, jobs=2)) == 3
        assert requested == [3, 2]

    def test_manifest_file(self, capsys, tmp_path):
        manifest = {"version": "test-1",
                    "jobs": [{"identity": "euler", "params": {},
                              "order": "40"},
                             {"identity": "denominator",
                              "params": {"s": 2, "t": 5}, "order": "9"}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, out, _ = run_cli(capsys, "verify", "suite", "--manifest",
                               str(path), "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest_version"] == "test-1"
        assert [r["identity"] for r in doc["reports"]] == ["euler",
                                                           "denominator"]

    def test_vacuous_order_is_raised(self, capsys, tmp_path):
        # (5,7) has k=12: eta^276 starts at 11.5, so order 8 must be lifted
        manifest = {"version": "t", "jobs": [
            {"identity": "denominator", "params": {"s": 5, "t": 7},
             "order": "8"}]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        code, out, _ = run_cli(capsys, "verify", "suite", "--manifest",
                               str(path))
        assert code == 0
        assert "order=27/2" in out and "match=true" in out

    @pytest.mark.parametrize("max_st", ["0", "5", "-5"])
    def test_empty_model_grid_is_a_usage_error(self, capsys, max_st):
        assert_usage_error(run_cli(capsys, "verify", "suite", "--max-st",
                                   max_st, "--order", "8"),
                           f"no minimal model has s*t <= {max_st}")

    def test_least_model_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "suite", "--max-st", "6",
                               "--order", "8")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "manifest=adhoc-maxst6-order8"
        assert [line.split()[:2] for line in lines[1:]] == [
            [f"identity={name}", "params=s=2,t=3"]
            for name in ("denominator", "wronskian_raw",
                         "wronskian_normalized")]

    def test_model_grid_runs_the_model_entries(self):
        names = [job["identity"] for job in model_grid_jobs(10, 8)]
        model_entries = [name for name, entry in IDENTITIES.items()
                         if entry.params == ("s", "t")]
        assert names == model_entries * 2  # models (2,3) and (2,5)

    @pytest.mark.parametrize("argv", [
        ("--window-audit",),
        ("--max-st", "10", "--window-audit"),
        ("--max-st", "10", "--k", "3"),
        ("--max-st", "10", "--s", "2", "--t", "5"),
    ])
    def test_single_identity_options_do_not_apply(self, capsys, argv):
        assert_usage_error(run_cli(capsys, "verify", "suite", *argv),
                           "apply to a single identity, not to a suite")

    @pytest.mark.parametrize("manifest", [False, True])
    def test_order_does_not_apply_to_a_manifest_suite(self, capsys,
                                                      tmp_path, manifest):
        # each manifest job carries its own order, so an --order would be
        # silently ignored; the shipped manifest is never run
        path = tmp_path / "m.json"
        path.write_text('{"version": "t", "jobs": []}')
        argv = ("--manifest", str(path)) if manifest else ()
        assert_usage_error(
            run_cli(capsys, "verify", "suite", *argv, "--order", "50"),
            "--order applies to a single identity or to --max-st")

    def test_order_defaults_to_20(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "suite", "--max-st", "6")
        assert out.startswith("manifest=adhoc-maxst6-order20\n")
        assert run_cli(capsys, "verify", "euler")[1] == run_cli(
            capsys, "verify", "euler", "--order", "20")[1]

    def test_manifest_file_with_a_single_identity(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"version": "t", "jobs": [
            {"identity": "jacobi", "params": {}, "order": "10"}]}))
        assert_usage_error(run_cli(capsys, "verify", "euler", "--manifest",
                                   str(path)), "apply to verify suite only")

    def test_default_manifest_loads(self):
        manifest = load_manifest()
        assert manifest["version"] == "qetakit-suite-1"
        assert {job["identity"] for job in manifest["jobs"]} >= {
            "euler", "jacobi", "weber", "macdonald", "denominator",
            "wronskian_raw", "wronskian_normalized"}

    def test_manifest_and_max_st_conflict(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"version": "x", "jobs": []}')
        code, _, err = run_cli(capsys, "verify", "suite", "--manifest",
                               str(path), "--max-st", "10")
        assert code == 2 and "either" in err

    def test_malformed_manifest(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"jobs": []}')
        code, _, err = run_cli(capsys, "verify", "suite", "--manifest",
                               str(path))
        assert code == 2 and "manifest" in err

    @pytest.mark.parametrize("bad_job, message", [
        ({"identity": "euler", "params": {"x": 1}, "order": "10"},
         "unknown param 'x'"),
        ({"identity": "euler", "params": {}, "order": 0.5},
         "order must be an integer or a 'p/q' string"),
        ({"identity": "euler", "params": {"k": 3}, "order": "10"},
         "unknown param 'k' for euler"),
        ({"identity": "macdonald", "params": {"k": 1}, "order": "10"},
         "requires k >= 2"),
    ])
    def test_invalid_job_exits_2_before_any_job_runs(self, capsys, tmp_path,
                                                     monkeypatch, bad_job,
                                                     message):
        ran = []
        monkeypatch.setattr("qetakit.suite.run_job", ran.append)
        manifest = {"version": "t", "jobs": [
            {"identity": "jacobi", "params": {}, "order": "10"}, bad_job]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        code, out, err = run_cli(capsys, "verify", "suite", "--manifest",
                                 str(path))
        assert code == 2 and out == "" and ran == []
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("qetakit: error: manifest job") and message in err

    @pytest.mark.parametrize("bad_job", [
        "euler",
        {"identity": "euler"},
        {"identity": "nope", "order": "10"},
        {"identity": "euler", "params": [], "order": "10"},
        {"identity": "macdonald", "params": {"k": True}, "order": "10"},
        {"identity": "macdonald", "params": {"k": 2.0}, "order": "10"},
        {"identity": "macdonald", "params": {}, "order": "10"},
        {"identity": "denominator", "params": {"s": 4, "t": 6}, "order": "9"},
        {"identity": "euler", "order": True},
        {"identity": "euler", "order": "0.5"},
        {"identity": "euler", "order": "1/0"},
        {"identity": "euler", "order": None},
        {"identity": "macdonald", "params": {"k": 1}, "order": "10"},
        {"identity": "macdonald", "params": {"k": 0}, "order": "10"},
        {"identity": "euler", "params": {"k": 3}, "order": "10"},
    ])
    def test_validate_job_rejects(self, bad_job):
        with pytest.raises(ValueError, match="manifest job"):
            validate_job(bad_job)

    def test_validate_job_accepts(self):
        for job in load_manifest()["jobs"]:
            validate_job(job)
        validate_job({"identity": "euler", "order": 12})
        validate_job({"identity": "weber", "params": None, "order": "-7/3"})


class TestOrderGrammar:
    """The command line reads orders as manifests do: an int or ``p/q``."""

    SUBCOMMANDS = [
        ("series", "eta"),
        ("char", "--s", "2", "--t", "5", "--m", "1", "--n", "1"),
        ("verify", "euler"),
    ]

    @pytest.mark.parametrize("argv", SUBCOMMANDS)
    @pytest.mark.parametrize("order", ["1/0", "0.5", "1e2", "3/-2", " 3",
                                       "abc", ""])
    def test_bad_order_is_one_line_usage_error(self, capsys, argv, order):
        assert_usage_error(run_cli(capsys, *argv, "--order", order),
                           f"bad order {order!r}")

    @pytest.mark.parametrize("argv", SUBCOMMANDS)
    def test_good_orders(self, capsys, argv):
        for order in ("7", "7/2", "14/02", "007"):
            code, out, _ = run_cli(capsys, *argv, "--order", order)
            assert code == 0 and out

    @pytest.mark.parametrize("argv, text", [
        (("series", "weber_f", "--order", "-1/96"),
         "D=48 P=-1/96\n-1/48 1\n"),
        (("char", "--s", "2", "--t", "5", "--m", "1", "--n", "2", "--order",
          "-1/120"), "D=60 P=-1/120\n-1/60 1\n"),
    ])
    def test_negative_orders_are_values(self, capsys, argv, text):
        # -p/q after --order is the order, as in --order=-p/q
        assert run_cli(capsys, *argv) == (0, text, "")
        joined = (*argv[:-2], f"--order={argv[-1]}")
        assert run_cli(capsys, *joined) == (0, text, "")

    def test_negative_order_at_or_below_the_lead(self, capsys):
        assert_usage_error(
            run_cli(capsys, "verify", "weber", "--order", "-1/2"),
            "order -1/2 is not above the leading exponent 1/2")

    @pytest.mark.parametrize("argv", [
        ("verify", "nope"),
        ("verify", "euler", "--k", "abc"),
        ("verify",),
        ("series",),
        ("frobnicate",),
        ("verify", "euler", "--bogus"),
        ("verify", "suite", "--max-st", "10", "--jobs", "0"),
        ("verify", "suite", "--max-st", "10", "--jobs", "-1"),
    ])
    def test_argument_errors_are_one_line(self, capsys, argv):
        assert_usage_error(run_cli(capsys, *argv))


class TestOutputHandling:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "eta.txt"
        code, out, _ = run_cli(capsys, "series", "eta", "--order", "3",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "D=24 P=3\n1/24 1\n25/24 -1\n49/24 -1\n"

    def test_output_dir_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QETAKIT_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "series", "eta", "--order", "2",
                             "--output", "relative.txt")
        assert code == 0
        assert (tmp_path / "relative.txt").exists()


def _readme_commands():
    """The argv of each ``qetakit`` line in the README's "Command line"
    block, without its comment; the one that reads ``my.json``, a file the
    reader writes, is left out."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme,
                      re.DOTALL).group(1)
    return [shlex.split(line.split("#")[0])[1:]
            for line in block.splitlines()
            if line.startswith("qetakit ") and "my.json" not in line]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_examples(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    if "structured" in argv:
        assert all(report["match"] for report in json.loads(out)["reports"])
    else:
        assert all(" match=true " in line for line in out.splitlines()
                   if line.startswith("identity="))


def test_console_entry_point():
    # the child finds the package where this process imported it from, so
    # the test also runs without an install or PYTHONPATH
    package_root = os.path.dirname(os.path.dirname(qetakit.__file__))
    path = os.pathsep.join(filter(None, (package_root,
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qetakit.cli", "verify", "euler",
         "--order", "60"],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "match=true" in proc.stdout


def _loaded_by_import(module):
    """Whether ``import qetakit`` in a fresh interpreter loads ``module``."""
    package_root = os.path.dirname(os.path.dirname(qetakit.__file__))
    path = os.pathsep.join(filter(None, (package_root,
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import qetakit, sys; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_dataclasses_out():
    # every record is a NamedTuple, so a plain import does not pay for
    # dataclasses (and the inspect, ast and dis modules it loads)
    assert not _loaded_by_import("dataclasses")


def test_import_leaves_the_process_pool_out():
    # run_suite imports the pool only for a parallel suite, so plain
    # imports and serial runs do not pay for multiprocessing
    assert not _loaded_by_import("concurrent.futures.process")
