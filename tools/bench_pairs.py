"""Compare two revisions on one benchmark workload in alternating pairs.

Each side is a clean ``git archive`` export in a temporary directory, so
neither runs on bytecode left in a checkout's ``__pycache__`` (which lowers
``setup_s`` and ``peak_rss_mb``).  Pair i runs ``bench/run.py`` once on
each side with seed ``SEED + i``; the side that runs first alternates from
pair to pair, and every run lasts the benchmark's ``run_seconds`` from
``BENCHMARK.json``.  Printed per end-to-end metric: every pair's two
values, each side's median and quartiles, and in how many pairs the change
was better.  With ``--jobs``, each job's time (scaled like
``slowest_job_s``, median over a run's passes) is printed as the median
over the pairs of each side.  The exports are deleted at the end.

Usage (from the repository root):

    python tools/bench_pairs.py --workload manifest-core --pairs 10 \\
        [--seed 41] [--parent REV] [--change REV] [--jobs]

``--parent`` defaults to ``HEAD``.  ``--change`` defaults to the working
tree's tracked files (``git stash create``, which leaves the tree as it is;
``git add`` new files first), or ``HEAD`` when nothing is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Extract the tree of ``rev`` into the new directory ``into``."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    _git("archive", "--format=tar", "-o", str(archive), rev)
    with tarfile.open(archive) as tar:
        tar.extractall(into)
    archive.unlink()


def run_once(tree, workload, seed, seconds):
    """(end-to-end metric -> value, job -> scaled seconds) of one run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree.name} "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    result = tree / ".bench_out" / (f"result-{workload}-seed{seed}"
                                    f"-trace0.json")
    passes = json.loads(result.read_text(encoding="utf-8"))["passes"]
    jobs = {}
    for report in passes:
        factor = report["wall_s"] / report["raw_wall_s"]
        for job in report["jobs"]:
            jobs.setdefault(job["key"], []).append(job["seconds"] * factor)
    return ({name: metric["value"] for name, metric in metrics.items()},
            {key: statistics.median(times) for key, times in jobs.items()})


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(runs, show_jobs):
    lower = {m["name"]: m["better"] == "lower"
             for m in BENCHMARK["end_to_end"]}
    pairs = len(runs["parent"])
    for name in runs["parent"][0][0]:
        values = {side: [metrics[name] for metrics, _ in runs[side]]
                  for side in SIDES}
        print(f"{name}:")
        for i, (p, c) in enumerate(zip(values["parent"], values["change"])):
            print(f"  pair {i}: parent {p:.6g}  change {c:.6g}")
        for side in SIDES:
            q1, q3 = _quartiles(values[side])
            print(f"  {side:<6} median {statistics.median(values[side]):.6g}"
                  f"  quartiles {q1:.6g} .. {q3:.6g}")
        better = lower.get(name, True)
        won = sum((c < p) if better else (c > p)
                  for p, c in zip(values["parent"], values["change"]))
        print(f"  change better in {won} of {pairs} pairs")
    if show_jobs:
        print("per job, s (median over pairs): parent  change")
        for key in sorted(runs["parent"][0][1]):
            medians = [statistics.median(jobs[key] for _, jobs in runs[side])
                       for side in SIDES]
            print(f"  {key:<48} {medians[0]:.6f}  {medians[1]:.6f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change")
    parser.add_argument("--jobs", action="store_true")
    args = parser.parse_args(argv)
    revs = {"parent": args.parent,
            "change": args.change or _git("stash", "create") or "HEAD"}
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
            print(f"{side}: {revs[side]}", flush=True)
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(trees[side], args.workload,
                                           args.seed + i,
                                           BENCHMARK["run_seconds"]))
            print(f"pair {i} done: wall_s parent "
                  f"{runs['parent'][-1][0]['wall_s']:.4f} change "
                  f"{runs['change'][-1][0]['wall_s']:.4f}", flush=True)
    report(runs, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
