"""Batch verification suites driven by versioned manifests.

A manifest is a JSON document ``{"version": ..., "jobs": [...]}`` where each
job names an identity, its integer parameters and a truncation order.  Orders
that would leave nothing to compare (the request does not exceed the
identity's leading exponent) are raised to two units past that exponent, so
every report in a suite is a non-vacuous check; the report records the order
actually used.
"""

from __future__ import annotations

import json
import os

from .identities import IDENTITIES, identity_lowest_exponent, \
    identity_params, verify_identity
from .minimal_models import coprime_models
from .rationals import parse_order, rat_str, rational


def adjusted_order(name, order, **params):
    """The requested order, raised when it would make the check vacuous."""
    order = rational(order)
    base = identity_lowest_exponent(name, **params)
    if order > base:
        return order
    return base + 2


def model_grid_jobs(max_st, order):
    """One job per model per identity that takes (s, t), over the
    s*t <= max_st grid; ValueError when the grid holds no model."""
    models = coprime_models(max_st)
    if not models:
        raise ValueError(f"no minimal model has s*t <= {max_st}; the "
                         "least, (2,3), needs a bound of at least 6")
    names = [name for name, entry in IDENTITIES.items()
             if entry.params == ("s", "t")]
    jobs = []
    for model in models:
        for name in names:
            used = adjusted_order(name, order, s=model.s, t=model.t)
            jobs.append({"identity": name,
                         "params": {"s": model.s, "t": model.t},
                         "order": rat_str(used)})
    return jobs


def adhoc_manifest(max_st, order):
    """Manifest for the model-grid families generated from CLI arguments."""
    return {"version": f"adhoc-maxst{int(max_st)}-order{rat_str(rational(order))}",
            "jobs": model_grid_jobs(int(max_st), order)}


def default_manifest_text():
    """The manifest shipped with the package, as raw JSON text."""
    path = os.path.join(os.path.dirname(__file__), "data",
                        "suite_manifest.json")
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def load_manifest(path=None):
    """Load and validate a manifest from ``path`` (or the shipped default)."""
    if path is None:
        text = default_manifest_text()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    doc = json.loads(text)
    if (not isinstance(doc, dict) or "version" not in doc
            or not isinstance(doc.get("jobs"), list)):
        raise ValueError("manifest must be an object with 'version' and a "
                         "'jobs' list")
    for job in doc["jobs"]:
        validate_job(job)
    return doc


def validate_job(job):
    """Raise ValueError unless ``job`` is an object naming an identity, the
    params it takes (:func:`~qetakit.identities.identity_params`) and an
    order in the grammar of :func:`~qetakit.rationals.parse_order`."""
    if not isinstance(job, dict) or "identity" not in job or "order" not in job:
        raise ValueError(f"malformed manifest job: {job!r}")
    params = job.get("params")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"manifest job {job!r}: params must be an object")
    try:
        identity_params(job["identity"], params or {})
        parse_order(job["order"])
    except ValueError as exc:
        raise ValueError(f"manifest job {job!r}: {exc}") from None


def run_job(job):
    """Run a single manifest job and return its report."""
    params = job.get("params") or {}
    order = adjusted_order(job["identity"], parse_order(job["order"]),
                           **params)
    return verify_identity(job["identity"], order=order, **params)


def run_suite(manifest, jobs=1):
    """Run every job of a manifest, in manifest order.

    Verifications are independent pure computations; with ``jobs > 1`` they
    run in at most ``jobs`` worker processes, one per job at most, with the
    output order still following the manifest.  ``jobs`` below 1 is a
    ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    entries = manifest["jobs"]
    if jobs == 1 or len(entries) <= 1:
        return [run_job(job) for job in entries]
    # imported here: the pool pulls in multiprocessing, which would add
    # about a quarter to the import time of every serial run
    from concurrent.futures import ProcessPoolExecutor

    # the fork start method launches every worker up front
    with ProcessPoolExecutor(max_workers=min(jobs, len(entries))) as pool:
        return list(pool.map(run_job, entries))
