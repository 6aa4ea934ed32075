"""Layered benchmark of qetakit: end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the package is imported from ``src/``).
Each pass runs the workload's jobs serially in a fresh interpreter
(``bench/worker.py``), so the package's caches start cold as they do for
every ``qetakit verify`` call.  Passes repeat until the next one would end
after ``--seconds``; at least one pass always runs.  Every job's report
line is compared with the line recorded in ``bench/expected_lines.json``.

Every timing is scaled by the host speed probes taken around it
(``bench/speed.py``), so that times from a shared host whose speed drifts
can be compared; the raw times are printed too and kept in the result file.

With ``--trace 0`` the run also times interpreter starts up to the first
job being ready, a few before each pass, and reports the medians of set-up
time, pass wall time, slowest job and peak memory.  With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
``bench/tracing.py``; ``trace.overhead_s`` is the traced minus the untraced
median wall time.  Spans are written under ``.bench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 when every job's line matched, 1 when one
did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
EXPECTED = BENCH_DIR / "expected_lines.json"
BASELINE = BENCH_DIR / "baseline.json"
OUT_DIR = ROOT / ".bench_out"

#: Interpreter starts timed for ``setup_s`` (one start varies by about 30%):
#: ``SETUP_PER_PASS`` before each untraced pass, topped up to ``SETUP_STARTS``.
SETUP_PER_PASS = 3
SETUP_STARTS = 15
#: Every run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def _worker(workload, seed, *extra):
    return subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc, timeout):
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{err.strip().splitlines()[-1:] or ''}")
    return out


def time_setup(workload, seed, timeout):
    """(raw seconds, speed factor) from starting an interpreter to the job
    list being ready, between two host speed probes."""
    before = speed.probe()
    started = time.perf_counter()
    proc = _worker(workload, seed, "--setup-only")
    first = proc.stdout.readline()
    ready = time.perf_counter() - started
    _finish(proc, timeout)
    if first.strip() != "ready":
        raise BenchError("worker did not report ready")
    return ready, speed.factor(before, speed.probe())


def run_pass(workload, seed, timeout, spans=None):
    """One serial pass in a fresh interpreter; the worker's JSON report with
    the pass's raw and scaled wall time and scaled slowest job added.

    Each job is scaled by the probes around it.  The slowest job is scaled by
    the whole pass's factor instead: two probes are a poor estimate of the
    host speed over one long job, and the pass's many probes a better one."""
    extra = ("--trace", str(spans)) if spans else ()
    out = _finish(_worker(workload, seed, *extra), timeout)
    report = json.loads(out.strip().splitlines()[-1])
    raw = [job["seconds"] for job in report["jobs"]]
    report["raw_wall_s"] = sum(raw)
    report["wall_s"] = sum(job["seconds"] * speed.factor(job["probe_before"],
                                                         job["probe_after"])
                           for job in report["jobs"])
    report["slowest_job_s"] = max(raw) * report["wall_s"] / report["raw_wall_s"]
    return report


def check_lines(report, expected):
    """Failed jobs of one pass: raised, unrecorded, or a different line."""
    failures = []
    for job in report["jobs"]:
        if job["error"]:
            failures.append(f"{job['key']}: raised {job['error']}")
        elif job["key"] not in expected:
            failures.append(f"{job['key']}: no recorded line")
        elif job["line"] != expected[job["key"]]:
            failures.append(f"{job['key']}: got {job['line']!r}")
    return failures


def _source_digest():
    digest = hashlib.sha256()
    package = ROOT / "src" / "qetakit"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, report):
    """Run metadata, and whether it is comparable with the recorded baseline."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": report["python"],
           "backend": report["backend"], "cpu": _cpu_model(), "nproc": nproc,
           "commit": _commit(), "source_sha256": _source_digest()}
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))["environment"]
    reasons = [f"{key} {env[key]} differs from the baseline's {baseline[key]}"
               for key in ("backend", "python") if env[key] != baseline[key]]
    env["comparable"] = not reasons
    env["not_comparable_because"] = reasons
    return env


def _describe(values):
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def _scaled_trace(report):
    """A traced pass's per-layer metrics with its times put on the probe's scale."""
    factor = report["wall_s"] / report["raw_wall_s"]
    out = {}
    for name, value in report["trace"].items():
        unit = tracing.METRIC_UNITS[name]
        out[name] = value * factor if unit == "s" else (
            value / factor if unit == "1/s" else value)
    return out


def measure(args, expected):
    """Run the passes of one run and reduce them to its metrics."""
    started = time.perf_counter()

    def left():
        return HARD_LIMIT_S - (time.perf_counter() - started)

    setup = []
    if not args.trace:
        time_setup(args.workload, args.seed, left())  # fills the bytecode cache
    OUT_DIR.mkdir(exist_ok=True)
    plain, traced = [], []
    failures, attempted, longest = [], 0, 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        enough = plain and (traced or not args.trace)
        elapsed = time.perf_counter() - started
        if enough and elapsed + longest > args.seconds:
            break
        pass_start = time.perf_counter()
        if want_trace:
            spans = OUT_DIR / (f"spans-{args.workload}-seed{args.seed}-"
                               f"pass{len(traced)}.tsv.gz")
            report = run_pass(args.workload, args.seed, left(), spans)
            if report["wrappers"] == 0 or report["wrappers_after"] != 0:
                raise BenchError("tracer did not install or did not uninstall")
            traced.append(report)
        else:
            if not args.trace:
                setup.extend(time_setup(args.workload, args.seed, left())
                             for _ in range(SETUP_PER_PASS))
            report = run_pass(args.workload, args.seed, left())
            if report["wrappers"] != 0:
                raise BenchError("an untraced pass ran with wrappers installed")
            plain.append(report)
        longest = max(longest, time.perf_counter() - pass_start)
        attempted += len(report["jobs"])
        failures.extend(check_lines(report, expected))
    while not args.trace and len(setup) < SETUP_STARTS:
        setup.append(time_setup(args.workload, args.seed, left()))

    walls = [r["wall_s"] for r in plain]
    raw = {"raw wall_s": [r["raw_wall_s"] for r in plain]}
    if args.trace:
        units = tracing.METRIC_UNITS
        layers = [_scaled_trace(r) for r in traced]
        values = {name: statistics.median(m[name] for m in layers)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(walls))
        detail = {"untraced wall_s": _describe(walls),
                  "traced wall_s": _describe([r["wall_s"] for r in traced])}
        raw["raw traced wall_s"] = [r["raw_wall_s"] for r in traced]
    else:
        units = END_TO_END_UNITS
        samples = {
            "setup_s": [ready * factor for ready, factor in setup],
            "wall_s": walls,
            "slowest_job_s": [r["slowest_job_s"] for r in plain],
            "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in plain],
        }
        values = {name: statistics.median(v) for name, v in samples.items()}
        detail = {name: _describe(v) for name, v in samples.items()}
        raw["raw setup_s"] = [ready for ready, _ in setup]
    detail.update((name, _describe(v)) for name, v in raw.items())
    return {
        "setup_samples": [{"raw_s": ready, "factor": factor} for ready, factor in setup],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "detail": detail,
        "attempted": attempted,
        "failures": failures,
        "passes": plain + traced,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qetakit" / "__init__.py").is_file():
        print(f"error: no qetakit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        run = measure(args, expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, failures, attempted = run["metrics"], run["failures"], run["attempted"]
    env = environment(args, run["passes"][-1])
    print(" ".join(f"{key}={value}" for key, value in env.items()
                   if key != "not_comparable_because"))
    for reason in env["not_comparable_because"]:
        print(f"warning: not comparable with the baseline: {reason}", file=sys.stderr)
    detail = run["detail"]
    for name, metric in metrics.items():
        extra = f"  ({detail[name]})" if name in detail else ""
        print(f"{name:<40} {metric['value']:>14.6g} {metric['unit']}{extra}")
    for name, text in detail.items():
        if name not in metrics:
            print(f"{name:<40} {text}")
    print(f"{'failure_ratio':<40} {len(failures) / attempted:>14.6g} ratio  "
          f"({len(failures)} of {attempted} jobs)")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    record = {"environment": env, **run}
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
