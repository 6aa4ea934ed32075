"""Record the expected report line of every benchmark job.

    python3 bench/record.py

Runs each job of every workload once, in one process, and adds the lines of
jobs not yet in ``bench/expected_lines.json``.  A recorded line is never
replaced: when a job's line differs from the recorded one the script prints
both and exits 1, because the benchmark's output gate is that comparison.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected_lines.json"


def main():
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from qetakit.suite import run_job

    import workloads

    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    mismatches = 0
    for name in workloads.WORKLOADS:
        for job in workloads.base_jobs(name):
            key = workloads.job_key(job)
            line = run_job(job).to_line()
            if key not in expected:
                expected[key] = line
                print(f"recorded {key}")
            elif expected[key] != line:
                mismatches += 1
                print(f"MISMATCH {key}\n  recorded {expected[key]}\n  now      {line}")
    EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=1) + "\n",
                        encoding="utf-8")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
