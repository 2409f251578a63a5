"""Spans and counters around the library's public functions.

Only the traced pass installs wrappers. A wrapper replaces the function at
every place the library binds it: the module that defines it and each
gradalg module that imported it by name (methods are replaced on their
class). uninstall puts every original back.

Spans live in memory as (name, start, end, parent, job) tuples, job -1
meaning set-up, and are written out once when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (metric name, module, attribute path); one metric may wrap several functions
SPANS = (
    ("modlin.add_matrix", "gradalg.modlin", "RowReducer.add_matrix"),
    ("modlin.snf_mod", "gradalg.modlin", "snf_mod"),
    ("modlin.kernel_mod", "gradalg.modlin", "kernel_mod"),
    ("modlin.solver_init", "gradalg.modlin", "ModularSolver.__init__"),
    ("modlin.solve", "gradalg.modlin", "ModularSolver.solve"),
    ("cocycles.cocycle_kernel", "gradalg.cocycles", "cocycle_kernel"),
    ("cocycles.h2_over_Fstar", "gradalg.cocycles", "h2_over_Fstar"),
    ("cocycles.extend_class", "gradalg.cocycles", "extend_class"),
    ("cocycles.classes_equivalent", "gradalg.cocycles", "classes_equivalent"),
    ("cocycles.is_cocycle", "gradalg.cocycles", "is_cocycle"),
    ("embed.decide", "gradalg.embed", "twisted_embed"),
    ("embed.decide", "gradalg.embed", "twisted_iso"),
    ("embed.decide", "gradalg.embed", "matrix_embed"),
    ("embed.decide", "gradalg.embed", "matrix_iso"),
    ("embed.verify", "gradalg.embed", "verify_graded_monomorphism"),
    ("matalg.regrade_iso", "gradalg.matalg", "regrade_iso"),
    ("groups.normalizer", "gradalg.groups", "normalizer"),
    ("groups.enumerate_subgroups", "gradalg.groups", "enumerate_subgroups"),
    ("identities.identity_space", "gradalg.identities", "identity_space"),
    ("identities.multilinear_containment", "gradalg.identities", "multilinear_containment"),
    ("fieldlin.rref", "gradalg.fieldlin", "rref"),
    ("fieldlin.kernel_basis", "gradalg.fieldlin", "kernel_basis"),
)

# methods too hot for spans: call counts only
COUNTS = (
    ("cyclo.mul", "gradalg.cyclo", "CycloNumber.__mul__"),
    ("cyclo.mul", "gradalg.cyclo", "CycloNumber.__rmul__"),
    ("cyclo.add", "gradalg.cyclo", "CycloNumber.__add__"),
    ("cyclo.add", "gradalg.cyclo", "CycloNumber.__radd__"),
    ("cyclo.inv", "gradalg.cyclo", "CycloNumber.inv"),
    ("graded.mul", "gradalg.graded", "GradedElement.__mul__"),
)

LAYERS = ("modlin", "cocycles", "embed", "matalg", "groups", "identities", "fieldlin")


def _rows(args):
    mat = args[1]
    shape = getattr(mat, "shape", None)
    if shape is not None:
        return shape[0] if len(shape) > 1 else 1
    return len(mat)


class Tracer:
    """Collects spans, counts and per-function extras while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.counts = Counter()
        self.extra = defaultdict(float)
        self.job = -1
        self._stack = []
        self._kernel_keys = set()
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, n=name: self._span(n, fn))
        for name, module, path in COUNTS:
            self._patch(module, path, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, module, path, make):
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(mod, path)
        wrapper = make(original)
        for other in list(sys.modules.values()):
            other_name = getattr(other, "__name__", "")
            if (other_name == "gradalg" or other_name.startswith("gradalg.")) \
                    and getattr(other, path, None) is original:
                self._patches.append((other, path, original))
                setattr(other, path, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack
        on_call = _ON_CALL.get(name)
        on_result = _ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if on_call is not None:
                on_call(self, args)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if on_result is not None:
                on_result(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """[(name, job, self seconds)] for every span."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(self.names[nid], job, end - start - child[i])
                for i, (nid, start, end, parent, job) in enumerate(self.spans)]

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _note_kernel(tracer, args):
    G, modulus = args[0], int(args[1])
    key = (G.mul_table, modulus)
    tracer.counts["cocycles.cocycle_kernel.calls_seen"] += 1
    if key in tracer._kernel_keys:
        tracer.counts["cocycles.cocycle_kernel.repeats"] += 1
    tracer._kernel_keys.add(key)


def _note_none(name):
    def note(tracer, result):
        tracer.counts[name + ".results"] += 1
        if result is None:
            tracer.counts[name + ".none"] += 1
    return note


def _note_decision(tracer, report):
    tracer.counts["embed.decide.results"] += 1
    if report.verdict:
        tracer.counts["embed.decide.yes"] += 1


def _note_verify(tracer, args):
    tracer.extra["embed.verify.basis_pairs"] += args[1].dim ** 2


def _note_add_matrix(tracer, args):
    tracer.extra["modlin.add_matrix.rows"] += _rows(args)


def _note_rref(tracer, args):
    tracer.extra["fieldlin.rref.rows"] += len(args[0])


def _note_containment(tracer, report):
    tracer.extra["identities.multilinear_containment.assignments"] += len(report.verdicts)
    tracer.extra["identities.multilinear_containment.skipped"] += len(report.skipped)


_ON_CALL = {
    "cocycles.cocycle_kernel": _note_kernel,
    "embed.verify": _note_verify,
    "modlin.add_matrix": _note_add_matrix,
    "fieldlin.rref": _note_rref,
}

_ON_RESULT = {
    "modlin.solve": _note_none("modlin.solve"),
    "cocycles.extend_class": _note_none("cocycles.extend_class"),
    "embed.decide": _note_decision,
    "identities.multilinear_containment": _note_containment,
}


def per_layer_metrics(tracer, passes, job_wall_traced, job_wall_untraced):
    """Per-layer metrics averaged over the traced passes."""
    k = max(passes, 1)
    calls = Counter()
    self_s = defaultdict(float)
    job_layer = defaultdict(float)
    setup_layer = defaultdict(float)
    for name, job, t in tracer.self_times():
        calls[name] += 1
        self_s[name] += t
        layer = name.split(".")[0]
        (setup_layer if job < 0 else job_layer)[layer] += t
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {}
    for name in dict.fromkeys(n for n, _, _ in SPANS):
        out[name + ".calls"] = (calls[name] / k, "count", "lower")
        out[name + ".self_s"] = (self_s[name] / k, "s", "lower")
    out["modlin.add_matrix.rows"] = (tracer.extra["modlin.add_matrix.rows"] / k, "count", "lower")
    out["modlin.solve.none_ratio"] = (ratio("modlin.solve.none", "modlin.solve.results"), "ratio", "lower")
    out["cocycles.cocycle_kernel.repeat_share"] = (
        ratio("cocycles.cocycle_kernel.repeats", "cocycles.cocycle_kernel.calls_seen"), "ratio", "higher")
    out["cocycles.extend_class.none_ratio"] = (
        ratio("cocycles.extend_class.none", "cocycles.extend_class.results"), "ratio", "lower")
    out["embed.verify.basis_pairs"] = (tracer.extra["embed.verify.basis_pairs"] / k, "count", "lower")
    out["embed.yes_ratio"] = (ratio("embed.decide.yes", "embed.decide.results"), "ratio", "higher")
    out["identities.multilinear_containment.assignments"] = (
        tracer.extra["identities.multilinear_containment.assignments"] / k, "count", "higher")
    out["identities.multilinear_containment.skipped"] = (
        tracer.extra["identities.multilinear_containment.skipped"] / k, "count", "lower")
    out["fieldlin.rref.rows"] = (tracer.extra["fieldlin.rref.rows"] / k, "count", "lower")
    for name in dict.fromkeys(n for n, _, _ in COUNTS):
        out[name + ".calls"] = (c[name] / k, "count", "lower")
    for layer in LAYERS:
        out[f"job.{layer}.self_s"] = (job_layer[layer] / k, "s", "lower")
        out[f"setup.{layer}.self_s"] = (setup_layer[layer] / k, "s", "lower")
    out["trace.wall_s"] = (job_wall_traced, "s", "lower")
    out["trace.overhead_s"] = (job_wall_traced - job_wall_untraced, "s", "lower")
    return out
