"""Self-tests of the benchmark: tracer wiring, output gate and run contract.

They use the ``smoke`` workload, which calls every traced function, and run
in a few seconds:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for entry in (str(BENCH_DIR), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = json.loads((BENCH_DIR / "expected_lines.json").read_text(encoding="utf-8"))


def _run_smoke(trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name == "qetakit" or name.startswith("qetakit."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_every_wrapped_name_records_calls_on_smoke():
    from qetakit import suite

    _clear_package_caches()  # cold caches, as in a benchmark pass
    lines = {}
    tracer = tracing.Tracer()
    with tracer:
        for index, job in enumerate(workloads.jobs("smoke", 0)):
            tracer.job_id = index
            lines[workloads.job_key(job)] = suite.run_job(job).to_line()
    calls = tracer.calls_by_name()
    names = {tracing._span_name(module, attribute)
             for module, attribute in tracing.TARGETS
             if attribute != "QSeries.__mul__"}
    names |= {tracing.MUL_DENSE, tracing.MUL_SPARSE}
    assert sorted(name for name in names if not calls.get(name)) == []
    assert lines == {key: EXPECTED[key] for key in lines}
    metrics = tracer.summary(1.0)
    assert set(metrics) == set(tracing.METRIC_UNITS) - {"trace.overhead_s"}
    assert metrics["trace.spans"] == sum(calls.values())


def test_every_import_site_is_patched_and_restored():
    import qetakit
    from qetakit.series import QSeries

    wronskian_module = sys.modules["qetakit.wronskian"]
    original = wronskian_module.wronskian
    assert qetakit.wronskian is original  # the re-export shadows the module
    tracer = tracing.Tracer().install()
    try:
        sites = set(tracer.patched_sites())
        for name in ("wronskian", "eta_power", "weber_series",
                     "character_double_sum", "normalized_character"):
            assert ("qetakit.identities", name) in sites
        for name in ("euler_inverse", "eta_series"):
            assert ("qetakit.minimal_models", name) in sites
        assert ("qetakit.wronskian", "wronskian") in sites
        assert ("qetakit", "wronskian") in sites
        assert ("QSeries", "__add__") in sites and ("QSeries", "__radd__") in sites
        assert QSeries.__radd__ is QSeries.__add__
        assert getattr(QSeries.__add__, tracing.MARKER)
        assert tracing.installed_wrappers() == len(sites)
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == 0
    assert wronskian_module.wronskian is original and qetakit.wronskian is original
    assert sys.modules["qetakit.identities"].wronskian is original


def test_untraced_run_reports_end_to_end_metrics_without_wrappers():
    proc = _run_smoke(0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    record = json.loads((ROOT / ".bench_out" / "result-smoke-seed3-trace0.json")
                        .read_text(encoding="utf-8"))
    assert record["passes"] and all(p["wrappers"] == 0 for p in record["passes"])


def test_traced_run_reports_every_per_layer_metric():
    proc = _run_smoke(1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_smoke(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
