"""Spans and counts at the boundaries of the qtree modules.

The tracer wraps public functions and methods of each module from the
outside (the library itself is not changed), records one span per call --
operation id, parent span, name, start and end -- and writes the spans to a
file when the traced run ends.  Self time is a span's duration minus the
durations of its direct children, computed back from that file.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter_ns

# layer.name -> the callables it covers, as (module, "attr" or "Class.attr").
# Missing attributes are skipped, so a later refactor that merges or moves a
# function keeps its metric as long as one of the names survives.
SPANS = {
    "points.pointset_new": [("points", "SymbolicPointSet.__post_init__")],
    "points.is_antichain": [("points", "is_antichain"), ("points", "SymbolicPointSet.is_antichain")],
    "points.minimal_points": [("points", "SymbolicPointSet.minimal_points")],
    "ideals.basepointset_new": [("ideals", "BasePointSet.__post_init__")],
    "ideals.child_labels": [("ideals", "BasePointSet.child_labels")],
    "ideals.terminals": [("ideals", "BasePointSet.terminals")],
    "ideals.saturate": [("ideals", "CompleteIdeal.saturate")],
    "ideals.base_points": [("ideals", "CompleteIdeal.base_points")],
    "models.closed_points": [("models", "NonsingularModel.closed_points")],
    "models.minimal_model_containing": [("models", "minimal_model_containing")],
    "models.minimal_incomparable_set": [("models", "minimal_incomparable_set")],
    "models.join": [("models", "NonsingularModel.join")],
    "intersections.classify": [("intersections", "classify")],
    "intersections.is_complete_representation": [("intersections", "is_complete_representation")],
    "intersections.descriptor_new": [("intersections", "IntersectionDescriptor.__post_init__")],
    "monomial.ideal_new": [("monomial", "MonomialIdeal.__post_init__")],
    "monomial.integral_closure": [("monomial", "MonomialIdeal.integral_closure")],
    "monomial.quadratic_transform": [("monomial", "MonomialIdeal.quadratic_transform")],
    "monomial.base_points": [("monomial", "base_points")],
    "monomial.generators_for_ideal": [("monomial", "generators_for_ideal")],
    "monomial.factorize": [("monomial", "factorize")],
    "cli.main": [("cli", "main")],
    "render.model_to_dot": [("render", "model_to_dot")],
    "truncation.points": [("truncation", "TruncatedTree.points")],
}
# Point construction is too frequent for a span per call: counted only.
COUNTS = {"points.point_new": [("points", "Point.__post_init__")]}
# Every encoder and decoder of the serialize module, found by name.
SERIALIZE_GROUPS = {"serialize.encode": "_to_json", "serialize.decode": "_from_json"}


class Tracer:
    def __init__(self, qtree):
        self.q = qtree
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self.op = 0
        self.patched = []

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.op, parent, name, t0, t1)

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def targets(self):
        groups = {}
        for table, kind in ((SPANS, "span"), (COUNTS, "count")):
            for name, targets in table.items():
                groups[name] = (kind, [(getattr(self.q, m), attr) for m, attr in targets])
        for name, suffix in SERIALIZE_GROUPS.items():
            mod = self.q.serialize
            attrs = [a for a in vars(mod) if a.endswith(suffix) and callable(getattr(mod, a))]
            groups[name] = ("span", [(mod, a) for a in attrs])
        return groups

    def install(self):
        modules = [self.q] + [m for m in vars(self.q).values() if type(m) is type(self.q)]
        for name, (kind, targets) in self.targets().items():
            wrap = self.span if kind == "span" else self.counter
            for mod, attr in targets:
                owner_name, _, attr_name = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if owner is None or attr_name not in vars(owner):
                    continue
                original = vars(owner)[attr_name]
                if owner_name:
                    self.patch_method(owner, attr_name, original, wrap(name, getattr(original, "func", original)))
                else:
                    wrapped = wrap(name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self.patched.append((module, key, original))
                                setattr(module, key, wrapped)

    def patch_method(self, cls, attr, original, wrapped):
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(wrapped)
            wrapped.__set_name__(cls, attr)
        self.patched.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def end_op(self):
        """Drop what a failed operation left on the stack and start a new one."""
        del self.stack[1:]
        self.op += 1


def write_spans(path, workload, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("workload\top\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for idx, s in enumerate(spans):
            if s is not None:
                op, parent, name, t0, t1 = s
                fh.write(f"{workload}\t{op}\t{idx}\t{parent}\t{name}\t{t0}\t{t1}\n")


def self_times(path):
    """{name: (self ms, calls)} from a span file."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, _, idx, parent, name, t0, t1 = line.rstrip("\n").split("\t")
            spans.append((int(idx), int(parent), name, int(t1) - int(t0)))
    child = Counter()
    for _, parent, _, dur in spans:
        if parent >= 0:
            child[parent] += dur
    agg = defaultdict(lambda: [0.0, 0])
    for idx, _, name, dur in spans:
        agg[name][0] += (dur - child[idx]) / 1e6
        agg[name][1] += 1
    return {k: tuple(v) for k, v in agg.items()}
