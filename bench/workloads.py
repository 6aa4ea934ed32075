"""The benchmark's workloads: named lists of manifest-style jobs.

Every job is a ``{"identity", "params", "order"}`` dict that
``qetakit.suite.run_job`` accepts, and is identified by :func:`job_key`.
The seed only permutes the job order; the jobs themselves are fixed, so the
same seed always gives the same inputs.

Why these three (sizes are chosen so that one serial pass takes 2.5-7 s on
a shared 2-vCPU Intel Xeon host with the ``Fraction`` backend, which leaves
room for several passes in one timed run):

* ``manifest-core``: the shipped ``qetakit-suite-1`` manifest in file order,
  minus its Wronskian jobs with k > ``MANIFEST_MAX_K``.  This is the traffic
  users run; ``wronskian`` spans cover almost all of it through
  k * 2^(k-1) products of short series.
* ``dense-series``: few, large operands.  The coefficient kernel in
  ``series`` does nearly all the work (sparse x dense in the Euler and Weber
  products, dense x dense, ``invert``); the determinant stays at k <= 3 and
  there is no lattice work.
* ``lattice-sums``: per-model lattice sums of rank 9 to 14 plus two
  Macdonald sums.  Tuple enumeration in ``identities`` dominates; neither
  the series kernel nor the Wronskian does much.

``smoke`` is a tiny workload that calls every traced function once or more;
the benchmark's own tests use it.
"""

from __future__ import annotations

import random

#: Wronskian jobs of the shipped manifest with k above this are left out of
#: ``manifest-core``: serially they take about 740 s of the manifest's 745 s
#: (the k >= 12 jobs alone about 715 s), far more than one timed run allows.
#: ``bench/baseline.json`` lists them with their measured times.
MANIFEST_MAX_K = 8

WRONSKIAN_IDENTITIES = ("wronskian_raw", "wronskian_normalized")


def _job(identity, order, **params):
    return {"identity": identity, "params": params, "order": str(order)}


DENSE_SERIES = (
    _job("euler", 450),
    _job("jacobi", 670),
    _job("weber", 110),
    _job("wronskian_raw", 220, s=2, t=5),
    _job("wronskian_normalized", 140, s=2, t=7),
)

LATTICE_SUMS = (
    _job("denominator", 35, s=5, t=7),
    _job("denominator", 35, s=4, t=9),
    _job("denominator", 35, s=3, t=13),
    _job("denominator", 35, s=5, t=8),
    _job("denominator", 38, s=4, t=7),
    _job("macdonald", 65, k=6),
    _job("macdonald", 90, k=5),
)

SMOKE = (
    _job("euler", 12),
    _job("jacobi", 12),
    _job("weber", 4),
    _job("macdonald", 6, k=2),
    _job("denominator", 6, s=2, t=5),
    _job("wronskian_raw", 6, s=2, t=5),
    _job("wronskian_normalized", 6, s=2, t=5),
)

#: Workloads named in ``BENCHMARK.json``, in the order they are listed there.
BENCHMARK_WORKLOADS = ("manifest-core", "dense-series", "lattice-sums")
WORKLOADS = BENCHMARK_WORKLOADS + ("smoke",)


def job_key(job):
    """Stable identifier of a job: identity, sorted params and order."""
    params = ",".join(f"{k}={v}" for k, v in sorted((job.get("params") or {}).items()))
    return f"{job['identity']} {params or '-'} order={job['order']}"


def _wronskian_k(job):
    """k of a Wronskian job's model; 0 for every other job."""
    from qetakit.minimal_models import make_model

    if job["identity"] not in WRONSKIAN_IDENTITIES:
        return 0
    params = job["params"]
    return make_model(int(params["s"]), int(params["t"])).k


def manifest_core_jobs():
    """The shipped manifest's jobs, in file order, minus its Wronskian jobs
    with k > ``MANIFEST_MAX_K``."""
    from qetakit.suite import load_manifest

    jobs = [{"identity": job["identity"], "params": dict(job.get("params") or {}),
             "order": job["order"]} for job in load_manifest()["jobs"]]
    return [job for job in jobs if _wronskian_k(job) <= MANIFEST_MAX_K]


def base_jobs(name):
    """A workload's jobs in their defining order (needs ``qetakit`` importable)."""
    if name == "manifest-core":
        return manifest_core_jobs()
    if name == "dense-series":
        return [dict(job) for job in DENSE_SERIES]
    if name == "lattice-sums":
        return [dict(job) for job in LATTICE_SUMS]
    if name == "smoke":
        return [dict(job) for job in SMOKE]
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def jobs(name, seed):
    """The workload's jobs in the order given by ``seed``."""
    out = base_jobs(name)
    random.Random(int(seed)).shuffle(out)
    return out
