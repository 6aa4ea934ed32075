"""Span tracing of qetakit's layers from outside the package.

:class:`Tracer` replaces public functions of the package modules with
wrappers that record one span per call: name, start, end, parent span and
job id.  Nothing inside ``src/`` is changed; a function imported by name
into another module (``identities`` takes ``wronskian``, ``eta_power``,
``weber_series`` and the character builders that way, ``minimal_models``
takes ``euler_inverse`` and ``eta_series``) is patched at every site where
the same object is bound, and so is a class attribute aliasing a method
(``QSeries.__radd__ = __add__``).  Modules are found through
``sys.modules`` because the package re-exports ``wronskian`` the function
under the name of its module.  :meth:`Tracer.uninstall` puts every original
back.

Spans are kept in flat arrays while the pass runs and are reduced to the
per-layer metrics by :meth:`Tracer.summary`; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

#: Marker attribute carried by every installed wrapper.
MARKER = "__qetakit_bench_span__"

#: (module, attribute) of every traced function; the span name is the short
#: module name plus the function name without underscores, except for
#: ``QSeries.__mul__``, whose spans are named by operand shape (see
#: ``_classify_mul``).
TARGETS = (
    ("qetakit.series", "QSeries.__mul__"),
    ("qetakit.series", "QSeries.__add__"),
    ("qetakit.series", "QSeries.invert"),
    ("qetakit.series", "QSeries.theta_derive"),
    ("qetakit.eta", "euler_product"),
    ("qetakit.eta", "euler_inverse"),
    ("qetakit.eta", "eta_series"),
    ("qetakit.eta", "eta_power"),
    ("qetakit.eta", "weber_series"),
    ("qetakit.eta", "pentagonal_sum_series"),
    ("qetakit.eta", "jacobi_cube_series"),
    ("qetakit.minimal_models", "character_double_sum"),
    ("qetakit.minimal_models", "normalized_character"),
    ("qetakit.wronskian", "wronskian"),
    ("qetakit.identities", "general_terms"),
    ("qetakit.identities", "macdonald_terms"),
    ("qetakit.identities", "empirical_constant"),
    ("qetakit.identities", "verify_identity"),
    ("qetakit.suite", "run_job"),
)

LAYERS = ("series", "eta", "minimal_models", "wronskian", "identities", "suite")

MUL_DENSE = "series.mul_dense"
MUL_SPARSE = "series.mul_sparse"
MUL_SCALAR = "series.mul_scalar"
#: An operand with at most this many terms makes a product "sparse": the
#: binomial factors of ``euler_product`` and ``weber_series``.
SPARSE_TERMS = 2

CHARACTER_SPANS = ("minimal_models.character_double_sum",
                   "minimal_models.normalized_character")
LATTICE_SPANS = ("identities.general_terms", "identities.macdonald_terms")

#: Per-layer metrics reported by a traced run, with their units.
METRIC_UNITS = {
    "series.mul_dense.calls": "count",
    "series.mul_dense.self_s": "s",
    "series.mul_sparse.calls": "count",
    "series.mul_sparse.self_s": "s",
    "series.mul.term_pairs": "count",
    "series.mul.terms_out": "count",
    "series.invert.calls": "count",
    "series.invert.self_s": "s",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.theta_derive.calls": "count",
    "series.theta_derive.self_s": "s",
    "eta.euler_product.calls": "count",
    "eta.euler_product.builds": "count",
    "eta.euler_product.cache_hit_ratio": "ratio",
    "eta.euler_product.incl_s": "s",
    "eta.eta_power.incl_s": "s",
    "eta.weber_series.incl_s": "s",
    "minimal_models.character.calls": "count",
    "minimal_models.character.incl_s": "s",
    "wronskian.calls": "count",
    "wronskian.incl_s": "s",
    "wronskian.self_s": "s",
    "wronskian.products": "count",
    "wronskian.useful_ratio": "ratio",
    "identities.lattice.tuples": "count",
    "identities.lattice.self_s": "s",
    "identities.lattice.tuples_per_s": "1/s",
    "identities.compare.terms": "count",
    "identities.compare.self_s": "s",
    "identities.verify.self_s": "s",
    "suite.run_job.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "share.wronskian.incl": "ratio",
    "share.series.self": "ratio",
    "share.identities.lattice.self": "ratio",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _span_name(module_name, attribute):
    function = attribute.rsplit(".", 1)[-1].strip("_")
    return module_name.rsplit(".", 1)[-1] + "." + function


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "qetakit" or name.startswith("qetakit."))]


def _resolve(module_name, attribute):
    """(namespace, name, function) of a target; methods live in the class."""
    namespace = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    if owner_name:
        namespace = getattr(namespace, owner_name)
    return namespace, name, vars(namespace)[name]


def installed_wrappers():
    """Number of bindings in the package that currently hold a wrapper."""
    count = 0
    for module in _package_modules():
        spaces = [vars(module)]
        spaces.extend(vars(value) for value in vars(module).values()
                      if isinstance(value, type)
                      and value.__module__ == module.__name__)
        for space in spaces:
            count += sum(1 for value in space.values()
                         if getattr(value, MARKER, False))
    return count


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.job_id = -1
        self._current = -1
        self._names = []
        self._name_ids = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._work = array("q")
        self._out = array("q")
        self._orders_seen = set()
        self._patches = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self):
        """Wrap every target at every binding of the same function object."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from qetakit.rationals import rational
        from qetakit.series import QSeries

        self._series_type = QSeries
        self._rational = rational
        special = {
            "QSeries.__mul__": (self._classify_mul, self._count_terms),
            "euler_product": (None, self._note_euler_order),
            "general_terms": (None, self._count_len),
            "macdonald_terms": (None, self._count_len),
            "empirical_constant": (None, self._count_compared),
        }
        modules = _package_modules()
        for module_name, attribute in TARGETS:
            namespace, name, original = _resolve(module_name, attribute)
            classify, measure = special.get(attribute, (None, None))
            wrapper = self._wrap(original, _span_name(module_name, attribute),
                                 classify, measure)
            if isinstance(namespace, type):
                sites = [namespace]
            else:
                sites = modules
            for site in sites:
                for bound_name, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, bound_name, original))
                        setattr(site, bound_name, wrapper)
        return self

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    def patched_sites(self):
        """(site name, bound name) of every binding replaced by a wrapper."""
        return [(getattr(site, "__name__", repr(site)), name)
                for site, name, _ in self._patches]

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _wrap(self, fn, name, classify, measure):
        tracer = self
        clock = time.perf_counter
        starts, ends, names = self._start, self._end, self._name
        parents, jobs, work, out = self._parent, self._job, self._work, self._out
        fixed = self._intern(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            nid, units = classify(args) if classify else (fixed, 0)
            idx = len(starts)
            parents.append(tracer._current)
            jobs.append(tracer.job_id)
            names.append(nid)
            work.append(units)
            out.append(0)
            ends.append(0.0)
            tracer._current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer._current = parents[idx]
            if measure:
                out[idx] = measure(args, kwargs, result)
            return result

        setattr(traced, MARKER, True)
        return traced

    def _classify_mul(self, args):
        x, y = args[0], args[1]
        nx = len(x.coefficients)
        if not isinstance(y, self._series_type):
            return self._intern(MUL_SCALAR), nx
        ny = len(y.coefficients)
        name = MUL_SPARSE if min(nx, ny) <= SPARSE_TERMS else MUL_DENSE
        return self._intern(name), nx * ny

    def _count_terms(self, args, kwargs, result):
        if isinstance(result, self._series_type):
            return len(result.coefficients)
        return 0

    def _note_euler_order(self, args, kwargs, result):
        order = self._rational(args[0] if args else kwargs["order"])
        if order in self._orders_seen:
            return 0
        self._orders_seen.add(order)
        return 1

    @staticmethod
    def _count_len(args, kwargs, result):
        return len(result)

    @staticmethod
    def _count_compared(args, kwargs, result):
        return result.terms_compared

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def calls_by_name(self):
        """Number of recorded spans per span name."""
        counts = dict.fromkeys(self._names, 0)
        for nid in self._name:
            counts[self._names[nid]] += 1
        return counts

    def _flag_descendants(self, names):
        """flag[i] is true when some ancestor of span i has a name in ``names``."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        flags = bytearray(len(self._start))
        name, parent = self._name, self._parent
        for i in range(len(flags)):
            p = parent[i]
            if p >= 0 and (flags[p] or name[p] in ids):
                flags[i] = 1
        return flags

    def summary(self, wall_s):
        """Per-layer metrics of everything recorded, for a pass of ``wall_s``."""
        n = len(self._start)
        names = self._names
        start, end, name, parent = self._start, self._end, self._name, self._parent
        duration = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += duration[i]
        calls, work, out = defaultdict(int), defaultdict(int), defaultdict(int)
        incl, self_s = defaultdict(float), defaultdict(float)
        for i in range(n):
            key = names[name[i]]
            calls[key] += 1
            incl[key] += duration[i]
            self_s[key] += duration[i] - child[i]
            work[key] += self._work[i]
            out[key] += self._out[i]

        in_wronskian = self._flag_descendants(["wronskian.wronskian"])
        in_character = self._flag_descendants(CHARACTER_SPANS)
        mul_ids = {self._name_ids[m] for m in (MUL_DENSE, MUL_SPARSE)
                   if m in self._name_ids}
        wr_id = self._name_ids.get("wronskian.wronskian")
        char_ids = {self._name_ids[c] for c in CHARACTER_SPANS if c in self._name_ids}
        products = 0
        wronskian_jobs = set()
        character_incl = 0.0
        for i in range(n):
            if name[i] in mul_ids and in_wronskian[i]:
                products += 1
            elif name[i] == wr_id:
                wronskian_jobs.add(self._job[i])
            elif name[i] in char_ids and not in_character[i]:
                character_incl += duration[i]

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, value in self_s.items():
            layer_self[key.split(".", 1)[0]] += value
        mul_names = (MUL_DENSE, MUL_SPARSE)
        euler_calls = calls["eta.euler_product"]
        euler_builds = out["eta.euler_product"]
        wr_calls = calls["wronskian.wronskian"]
        tuples = sum(out[s] for s in LATTICE_SPANS)
        lattice_self = sum(self_s[s] for s in LATTICE_SPANS)
        metrics = {
            "series.mul_dense.calls": calls[MUL_DENSE],
            "series.mul_dense.self_s": self_s[MUL_DENSE],
            "series.mul_sparse.calls": calls[MUL_SPARSE],
            "series.mul_sparse.self_s": self_s[MUL_SPARSE],
            "series.mul.term_pairs": sum(work[m] for m in mul_names),
            "series.mul.terms_out": sum(out[m] for m in mul_names),
            "series.invert.calls": calls["series.invert"],
            "series.invert.self_s": self_s["series.invert"],
            "series.add.calls": calls["series.add"],
            "series.add.self_s": self_s["series.add"],
            "series.theta_derive.calls": calls["series.theta_derive"],
            "series.theta_derive.self_s": self_s["series.theta_derive"],
            "eta.euler_product.calls": euler_calls,
            "eta.euler_product.builds": euler_builds,
            "eta.euler_product.cache_hit_ratio": ratio(euler_calls - euler_builds,
                                                       euler_calls),
            "eta.euler_product.incl_s": incl["eta.euler_product"],
            "eta.eta_power.incl_s": incl["eta.eta_power"],
            "eta.weber_series.incl_s": incl["eta.weber_series"],
            "minimal_models.character.calls": sum(calls[c] for c in CHARACTER_SPANS),
            "minimal_models.character.incl_s": character_incl,
            "wronskian.calls": wr_calls,
            "wronskian.incl_s": incl["wronskian.wronskian"],
            "wronskian.self_s": self_s["wronskian.wronskian"],
            "wronskian.products": products,
            "wronskian.useful_ratio": ratio(len(wronskian_jobs), wr_calls),
            "identities.lattice.tuples": tuples,
            "identities.lattice.self_s": lattice_self,
            "identities.lattice.tuples_per_s": ratio(tuples, lattice_self),
            "identities.compare.terms": out["identities.empirical_constant"],
            "identities.compare.self_s": self_s["identities.empirical_constant"],
            "identities.verify.self_s": self_s["identities.verify_identity"],
            "suite.run_job.self_s": self_s["suite.run_job"],
            **{f"layer.{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "share.wronskian.incl": ratio(incl["wronskian.wronskian"], wall_s),
            "share.series.self": ratio(layer_self["series"], wall_s),
            "share.identities.lattice.self": ratio(lattice_self, wall_s),
            "trace.wall_s": wall_s,
            "trace.spans": n,
        }
        return metrics

    def write_spans(self, path):
        """Write every span as gzip-compressed TSV, times from the first span."""
        origin = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            names = self._names
            for i in range(len(self._start)):
                handle.write(f"{i}\t{self._parent[i]}\t{self._job[i]}\t"
                             f"{names[self._name[i]]}\t{self._start[i] - origin:.9f}\t"
                             f"{self._end[i] - origin:.9f}\n")
