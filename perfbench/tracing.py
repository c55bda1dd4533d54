"""Span tracing of loopsoup's public functions, installed from outside `src/`.

`Tracer.install` replaces each traced function by a wrapper that records one
span (name, start, end, parent span) per call.  The wrapper is bound on the
defining module and on every loopsoup module that imported the name, since
`from .soups import sample_oriented_soup` copies the reference at import
time.  Methods are wrapped on their class.  `Tracer.restore` puts every
original back.

Spans live in memory in flat arrays until the traced run ends; `metrics`
folds them into per-function calls, busy time and self time, and `save`
writes the span table once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter

# The traced functions, as "<module>.<name>" under the loopsoup package.  A
# class name stands for its constructor.
TRACED = (
    "graph.Domain", "graph.green_function",
    "loops.enumerate_loops", "loops.LoopCatalog.export_jsonl",
    "soups.sample_oriented_soup", "soups.sample_unoriented_soup",
    "soups.FieldSampler.sample",
    "excursions.decompose_counts", "excursions.extract_crossings_counts",
    "excursions.record_edge_jumps_counts",
    "excursions.oriented_hookup_orbit_key",
    "excursions.unoriented_hookup_orbit_key",
    "exact.conditional_multiset_law", "exact.side_orbit_key",
    "exact.side_bridge_law", "exact.unordered_bridge_law",
    "exact.z_bridge_law", "exact.occupation_law",
    "bridges.sample_bridge", "bridges.sample_unordered_bridge",
    "bridges.sample_z_bridge", "bridges.enumerate_bridges",
    "wilson.wilson_ust", "wilson.pop_cycles",
    "stats.chi2_gof", "stats.empirical_tv",
    "verify.verify_prop1", "verify.verify_prop2", "verify.verify_prop5",
    "verify.verify_prop1bis_3bis", "verify.verify_occupation_markov",
    "verify.verify_wilson",
    "config.build_workspace", "cli.run_job", "cli.run",
)

SOUP_DRAWS = ("soups.sample_oriented_soup", "soups.sample_unoriented_soup")
CUTS = ("excursions.decompose_counts", "excursions.extract_crossings_counts",
        "excursions.record_edge_jumps_counts")

# Counters read at a span boundary, from the call's arguments and result:
# traced function -> (counter, amount).
COUNTERS = {
    "loops.enumerate_loops": ("loops.classes", lambda a, kw, r: len(r)),
    "loops.LoopCatalog.export_jsonl": (
        "loops.export_bytes",
        lambda a, kw, r: os.path.getsize(a[1] if len(a) > 1 else kw["path"])),
    "exact.occupation_law": ("exact.occupation_law.terms",
                             lambda a, kw, r: len(r.weights)),
    "bridges.sample_bridge": ("bridges.steps", lambda a, kw, r: r.n),
}


def _loopsoup_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "loopsoup"
                                  or name.startswith("loopsoup."))]


class Tracer:
    """Records spans of the functions in TRACED while installed."""

    def __init__(self):
        self.names = list(TRACED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {name: 0 for name, _ in COUNTERS.values()}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set = set()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name_id: int, fn):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack = self.span_parent, self._stack
        counter = COUNTERS.get(self.names[name_id])
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        functools.update_wrapper(traced, fn)
        self._wrappers.add(traced)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        # import every module first: one imported mid-install would copy a
        # wrapper that restore() does not know about
        owners = [importlib.import_module("loopsoup." + q.partition(".")[0])
                  for q in self.names]
        modules = _loopsoup_modules()
        for name_id, (qualname, mod) in enumerate(zip(self.names, owners)):
            path = qualname.partition(".")[2]
            owner_name, _, method = path.rpartition(".")
            if owner_name:                       # Class.method
                owner = getattr(mod, owner_name)
                self._patch(owner, method,
                            self._wrap(name_id, owner.__dict__[method]))
                continue
            original = getattr(mod, path)
            if isinstance(original, type):       # a class: trace construction
                self._patch(original, "__init__",
                            self._wrap(name_id, original.__dict__["__init__"]))
                continue
            wrapper = self._wrap(name_id, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to a wrapper; empty after a correct restore."""
        found = []
        for m in _loopsoup_modules():
            for attr, value in vars(m).items():
                holders = [value]
                if isinstance(value, type):
                    holders += vars(value).values()
                if any(h in self._wrappers for h in holders
                       if callable(h) and h.__hash__ is not None):
                    found.append(f"{m.__name__}.{attr}")
        return found

    # -- aggregation ------------------------------------------------------------

    def metrics(self, run_s: float) -> dict[str, float]:
        """Per-function calls, busy time and self time, plus derived ratios.

        Busy time counts a span only when no ancestor has the same name, so
        recursion is not counted twice.  Self time is a span's duration minus
        the durations of its direct children.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        busy = [0.0] * n_names
        child = array("d", bytes(8 * len(self.span_start)))
        verify_ids = {i for i, q in enumerate(self.names)
                      if q.startswith("verify.verify_")}
        soup_ids = {self.names.index(q) for q in SOUP_DRAWS}
        cut_ids = {self.names.index(q) for q in CUTS}
        # per span: index of the nearest enclosing verify_* span (its job), or -1
        job_of = array("i")
        # soups drawn and cuts made per job; a job that drew a soup is MC
        job_soups: dict[int, int] = {}
        job_cuts: dict[int, int] = {}
        covered = 0.0
        for i, nid in enumerate(self.span_name):
            parent = self.span_parent[i]
            duration = self.span_end[i] - self.span_start[i]
            calls[nid] += 1
            # ancestors of span i: rebuild the name path from the parent chain
            depth_names = []
            p = parent
            while p >= 0:
                depth_names.append(self.span_name[p])
                p = self.span_parent[p]
            if nid not in depth_names:
                busy[nid] += duration
            if parent >= 0:
                child[parent] += duration
                job = job_of[parent]
            else:
                covered += duration
                job = -1
            if nid in verify_ids:
                job = i
            job_of.append(job)
            if job >= 0:
                if nid in soup_ids:
                    job_soups[job] = job_soups.get(job, 0) + 1
                elif nid in cut_ids:
                    job_cuts[job] = job_cuts.get(job, 0) + 1
        self_time = [0.0] * n_names
        for i, nid in enumerate(self.span_name):
            self_time[nid] += (self.span_end[i] - self.span_start[i]) - child[i]
        out: dict[str, float] = {}
        for nid, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = calls[nid]
            out[f"{qualname}.s"] = busy[nid]
            out[f"{qualname}.self_s"] = self_time[nid]
        out.update(self.counters)
        soups = sum(job_soups.values())
        cuts = sum(job_cuts.get(j, 0) for j in job_soups)
        out["excursions.cut_ratio"] = cuts / soups if soups else 0.0
        out["trace.coverage"] = covered / run_s if run_s > 0 else 0.0
        return out

    def save(self, path: str) -> None:
        """Write the span table: a JSON header line, then the raw arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "arrays": ["name:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
