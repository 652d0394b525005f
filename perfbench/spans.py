"""Span tracer that wraps cmpoly's public functions from outside the program.

`Tracer.install()` replaces each listed function at every module that binds
its name (so `polytope.affine_dimension` and `rational_la.affine_dimension`
are both wrapped) and the listed `Inequality` methods on the class.
`Tracer.restore()` puts the original objects back.  Spans are kept in
memory as (name, start, end, parent span, instance id) and written out by
`write_spans`; hot tiny functions are counted only.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Functions that get a span, per cmpoly module.
SPANNED = {
    "cli": ("run",),
    "graph_core": ("parse_graph",),
    "matchings": ("enumerate_cm_sets", "exists_cm_superset"),
    "rational_la": ("affine_dimension", "rank"),
    "inequality": ("parse_hrep_file", "format_hrep_file", "Inequality.canonical"),
    "facet_family": ("generate_family", "lambda_set", "check_validity_hypothesis"),
    "polytope": ("hrep", "classify", "verify_valid", "face_dimension", "vrep"),
    "msi": ("separate_fractional", "lazy_cut_for_disconnected"),
    "solver": ("branch_and_cut", "build_base_lp", "solve_lp_exact"),
}
# Hot tiny functions: a span would cost more than the call, so count only.
COUNTED = {
    "graph_core": ("is_connected_induced", "line_distance"),
    "inequality": ("Inequality.evaluate",),
}


def _observe_enumerate(counts, args, result):
    counts["matchings.enumerate_cm_sets.out"] += len(result)


def _observe_hrep(counts, args, result):
    counts["polytope.hrep.points_in"] += len(args[0].points)
    counts["polytope.hrep.facets_out"] += len(result.facets)


def _observe_family(counts, args, result):
    counts["facet_family.generate_family.rows"] += len(result)


def _observe_verify(counts, args, result):
    counts["polytope.verify_valid.invalid"] += bool(result)


def _observe_separate(counts, args, result):
    counts["msi.separate_fractional.cuts_out"] += len(result)
    counts["msi.separate_fractional.productive"] += bool(result)


def _observe_lp(counts, args, result):
    counts["solver.solve_lp_exact.infeasible"] += result[0] is None


def _observe_solve(counts, args, result):
    stats = result.stats
    counts["solver.nodes"] += stats["nodes"]
    counts["solver.lp_pivots"] += stats["lp_pivots"]
    counts["solver.cuts_msi"] += stats["cuts"]["msi"]
    counts["solver.cuts_lazy"] += stats["cuts"]["lazy"]
    counts["solver.family_rows"] += stats["family_rows"]


OBSERVERS = {
    "matchings.enumerate_cm_sets": _observe_enumerate,
    "polytope.hrep": _observe_hrep,
    "facet_family.generate_family": _observe_family,
    "polytope.verify_valid": _observe_verify,
    "msi.separate_fractional": _observe_separate,
    "solver.solve_lp_exact": _observe_lp,
    "solver.branch_and_cut": _observe_solve,
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, instance)
        self.counts = defaultdict(int)
        self.instance = ""
        self._stack = []
        self._patches = []       # (owner, attribute, original) while installed
        self.bindings = []       # every binding the last install() wrapped

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if observe is not None:
                observe(counts, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "cmpoly" or key.startswith("cmpoly.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for modname, quals in table.items():
                home = importlib.import_module(f"cmpoly.{modname}")
                for qual in quals:
                    name = f"{modname}.{qual.split('.')[-1]}"
                    if "." in qual:
                        cls_name, meth = qual.split(".")
                        cls = getattr(home, cls_name)
                        original = cls.__dict__[meth]
                        self._patch(cls, meth, original, make(name, original))
                        continue
                    original = getattr(home, qual)
                    wrapper = make(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, original, wrapper)

        self.bindings = list(self._patches)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct child spans
        cover; the program is single-threaded, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tinstance\n")
            for name, start, end, parent, inst in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{inst}\n")
