"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--setup-only] [--trace SPANS]

Imports ``qetakit`` from the checkout's ``src/``, builds the workload's job
list and prints ``ready``; that moment ends the set-up the parent times.
Unless ``--setup-only`` is given it then runs every job serially through
``qetakit.suite.run_job``, with the package's caches cold at the start and
shared between jobs as in ``run_suite``, and prints one JSON line with each
job's report line, its time and the host speed probes taken just before and
after it (see ``speed.py``), the peak resident memory and, with ``--trace``,
the per-layer summary (spans go to the file SPANS).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC_DIR))
    import qetakit
    from qetakit import suite
    from qetakit.rationals import Rational

    if Path(qetakit.__file__).resolve().parent != SRC_DIR / "qetakit":
        sys.exit(f"imported qetakit from {qetakit.__file__}, not from {SRC_DIR}")
    import speed
    import tracing
    import workloads

    jobs = workloads.jobs(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer().install() if args.trace else None
    wrappers = tracing.installed_wrappers()
    results = []
    probe = speed.probe()
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job_id = index
        started = time.perf_counter()
        line = error = None
        try:
            line = suite.run_job(job).to_line()
        except Exception as exc:  # a failed job is counted; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        after = speed.probe()
        results.append({"key": workloads.job_key(job), "line": line, "error": error,
                        "seconds": seconds, "probe_before": probe, "probe_after": after})
        probe = after
    report = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wrappers": wrappers,
        "backend": f"{Rational.__module__}.{Rational.__qualname__}",
        "python": sys.version.split()[0],
        "jobs": results,
    }
    if tracer:
        tracer.uninstall()
        report["wrappers_after"] = tracing.installed_wrappers()
        report["trace"] = tracer.summary(sum(job["seconds"] for job in results))
        tracer.write_spans(args.trace)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
