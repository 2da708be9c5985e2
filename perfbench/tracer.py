"""Opt-in layer tracing for the benchmark, kept entirely outside the library.

`Tracer.install()` rebinds each traced function, in every `liecolour`
module that holds it by name, to a wrapper that records a span
(name, start, end, parent) in memory; `uninstall()` puts the original
objects back.  Scalar arithmetic on `CycloNum` is counted, not spanned.
Nothing here is imported by an untraced measured run except `TARGETS`,
which that run uses to check by identity that no wrapper is installed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute path, span name); attribute paths with a dot are methods.
TARGETS = (
    ("liecolour.linalg", "nullspace", "linalg.nullspace"),
    ("liecolour.linalg", "RowBasis.add", "linalg.RowBasis.add"),
    ("liecolour.linalg", "mat_mul", "linalg.mat_mul"),
    ("liecolour.linalg", "mat_vec", "linalg.mat_vec"),
    ("liecolour.linalg", "invert", "linalg.invert"),
    ("liecolour.modp", "closure_rank", "modp.closure_rank"),
    ("liecolour.modp", "fp_rank", "modp.fp_rank"),
    ("liecolour.gmodule", "GradedModule.validate", "gmodule.validate"),
    ("liecolour.gmodule", "intertwiners", "gmodule.intertwiners"),
    ("liecolour.gmodule", "spin", "gmodule.spin"),
    ("liecolour.gmodule", "is_graded_irreducible", "gmodule.is_graded_irreducible"),
    ("liecolour.gmodule", "is_isomorphic", "gmodule.is_isomorphic"),
    ("liecolour.gmodule", "decompose", "gmodule.decompose"),
    ("liecolour.gmodule", "submodule_to_module", "gmodule.submodule_to_module"),
    ("liecolour.loopfunctor", "loop", "loopfunctor.loop"),
    ("liecolour.loopfunctor", "iterate_lift", "loopfunctor.iterate_lift"),
    ("liecolour.loopfunctor", "iso_classes_of_module", "loopfunctor.iso_classes_of_module"),
    ("liecolour.workbench", "classify_lambda", "workbench.classify_lambda"),
    ("liecolour.colouralg", "ColourAlgebra.__init__", "colouralg.ColourAlgebra"),
    ("liecolour.jsonio", "load_file", "jsonio.load_file"),
    ("liecolour.jsonio", "dump", "jsonio.dump"),
    ("liecolour.cli", "main", "cli.main"),
)

# CycloNum methods counted per call, grouped under one counter each.
COUNTED = {
    "__mul__": "cyclotomic.mul",
    "__rmul__": "cyclotomic.mul",
    "__add__": "cyclotomic.addsub",
    "__radd__": "cyclotomic.addsub",
    "__sub__": "cyclotomic.addsub",
    "__rsub__": "cyclotomic.addsub",
    "inverse": "cyclotomic.inverse",
    "is_zero": "cyclotomic.is_zero",
}

ROOT = "workload"


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def target_bindings():
    """Every (owner, attribute, object, name) a traced run rebinds.

    Functions imported by name are bound in several modules; each binding
    is listed, so a check by identity covers all of them.
    """
    out = []
    modules = [
        m for n, m in sorted(sys.modules.items()) if n == "liecolour" or n.startswith("liecolour.")
    ]
    for module_name, path, name in TARGETS:
        owner, attr = _resolve(module_name, path)
        obj = owner.__dict__[attr]
        out.append((owner, attr, obj, name))
        if "." not in path:
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is obj:
                    out.append((mod, attr, obj, name))
    cyclo = importlib.import_module("liecolour.cyclotomic").CycloNum
    for attr, name in COUNTED.items():
        out.append((cyclo, attr, cyclo.__dict__[attr], name))
    return out


def is_wrapper(obj):
    return getattr(obj, "__perfbench_wrapper__", False)


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self):
        self.names = []  # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.raised = []  # exception class name or None, per span
        self.value = []  # result, for spans whose result is inspected
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- recording --------------------------------------------------------------

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(None)
        self.value.append(None)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[idx] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if keep:
                self.value[idx] = keep(args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        keep = {
            # closure_rank(mats, p, dim): a hit is the full rank dim^2
            "modp.closure_rank": lambda args, r: r == args[2] * args[2],
            # fp_rank(rows, p): full column rank means zero nullity
            "modp.fp_rank": lambda args, r: len(args[0]) > 0 and r == args[0].shape[1],
        }
        counted = set(COUNTED.values())
        wrapped = {}
        for owner, attr, obj, name in target_bindings():
            if id(obj) not in wrapped:
                if name in counted:
                    wrapped[id(obj)] = self._count_wrapper(name, obj)
                else:
                    wrapped[id(obj)] = self._span_wrapper(name, obj, keep.get(name))
            self._patches.append((owner, attr, obj))
            setattr(owner, attr, wrapped[id(obj)])

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches = []

    # -- analysis ---------------------------------------------------------------

    def self_times(self):
        """Per-span duration minus the duration of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def tree_problems(self):
        """Checks that the spans form a tree whose self times add up to the
        root spans; returns a list of problems (empty when sound)."""
        problems = []
        for idx, par in enumerate(self.parent):
            if self.end[idx] < self.start[idx]:
                problems.append(f"span {idx} ({self.names[idx]}) ends before it starts")
            if par >= 0 and not (
                self.start[par] <= self.start[idx] and self.end[idx] <= self.end[par]
            ):
                problems.append(f"span {idx} ({self.names[idx]}) leaves its parent")
        roots = [i for i, p in enumerate(self.parent) if p < 0]
        total = sum(self.end[i] - self.start[i] for i in roots)
        gap = abs(sum(self.self_times()) - total)
        if gap > 1e-6 * max(total, 1.0):
            problems.append(f"self times miss the root spans by {gap:.3g} s")
        return problems

    def metrics(self):
        """Per-layer figures: calls, self_s and total_s per span name, plus
        the ratios and counts derived from span results."""
        own = self.self_times()
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for idx, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += own[idx]
            # total_s counts the outermost span of a name only
            par = self.parent[idx]
            while par >= 0 and self.names[par] != name:
                par = self.parent[par]
            if par < 0:
                total_s[name] += self.end[idx] - self.start[idx]
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        hits = Counter(n for n, v in zip(self.names, self.value) if v)
        for name, label in (("modp.closure_rank", "hit_ratio"), ("modp.fp_rank", "nullity0_ratio")):
            if calls[name]:
                out[f"{name}.{label}"] = hits[name] / calls[name]
        # an irreducibility verdict not certified mod p has no hitting
        # closure_rank among its direct children
        certified = {
            self.parent[i] for i, n in enumerate(self.names)
            if n == "modp.closure_rank" and self.value[i]
        }
        irr = [i for i, n in enumerate(self.names) if n == "gmodule.is_graded_irreducible"]
        out["gmodule.is_graded_irreducible.fallback_calls"] = sum(i not in certified for i in irr)
        out["gmodule.inconclusive.count"] = sum(
            self.raised[i] == "InconclusiveIrreducibility" for i in irr
        )
        return out

    def dump_spans(self):
        return {
            "fields": ["name", "start", "end", "parent", "raised"],
            "spans": [
                [n, s, e, p, r]
                for n, s, e, p, r in zip(self.names, self.start, self.end, self.parent, self.raised)
            ],
        }
