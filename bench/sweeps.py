"""Size sweeps over the known cost cliffs.

Each sweep times one operation at three sizes and fits the slope of
log(ms) against log(size), which shows how the cost grows where a single
timing cannot.  Sizes are chosen so that no point takes much more than a
second on a 2-core machine at the time the benchmark was written.
"""

from __future__ import annotations

import math
import random
from time import perf_counter_ns

import workloads as wl


def _time(fn, reps=2):
    best = None
    for _ in range(reps):
        t0 = perf_counter_ns()
        fn()
        dt = (perf_counter_ns() - t0) / 1e6
        best = dt if best is None else min(best, dt)
    return best


def growth(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-6)) for t in times]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweeps(q, seed):
    """{name: builder}; ``builder(size)`` returns the call to time."""
    rng = random.Random(f"sweep/{seed}")
    Point = q.points.Point
    mono = q.monomial

    def model(n):
        pts = frozenset(Point(p) for p in wl.random_tree(rng, n, wl.LABELS5, 0.3))
        return q.models.NonsingularModel(q.ideals.BasePointSet(pts))

    def closed_points(n):
        m = model(n)
        return m.closed_points

    def terminals(n):
        m = model(n)
        return m.base.terminals

    def saturate(level):
        ideal = q.ideals.CompleteIdeal.simple(Point(wl.random_path(rng, level, wl.LABELS5)))
        return ideal.saturate

    def generators(mult):
        ideal = q.ideals.CompleteIdeal.simple(Point(("X", "Y", "X")), mult)
        return lambda: mono.generators_for_ideal(ideal)

    def closure(n):
        ideal = mono.MonomialIdeal(((n, 0), (0, n)))
        return ideal.integral_closure

    def base_points(n):
        ideal = mono.MonomialIdeal(((n, 0), (0, 1)))
        return lambda: mono.base_points(ideal)

    return {
        "closed_points": closed_points,
        "terminals": terminals,
        "saturate": saturate,
        "generators_for_ideal": generators,
        "integral_closure": closure,
        "monomial.base_points": base_points,
    }


SIZES = {
    "closed_points": (100, 200, 400),
    "terminals": (200, 400, 800),
    "saturate": (250, 500, 1000),
    "generators_for_ideal": (8, 16, 32),
    "integral_closure": (250, 500, 1000),
    "monomial.base_points": (100, 200, 400),
}


def metric_names():
    """(name, unit) of every sweep metric."""
    for name, sizes in SIZES.items():
        for n in sizes:
            yield f"sweep.{name}.n{n}.ms", "ms"
        yield f"sweep.{name}.growth", "exponent"


def run_sweeps(q, seed):
    """Metrics ``sweep.<op>.n<size>.ms`` and ``sweep.<op>.growth``."""
    out = {}
    for name, build in sweeps(q, seed).items():
        sizes = SIZES[name]
        times = [_time(build(n)) for n in sizes]
        for n, t in zip(sizes, times):
            out[f"sweep.{name}.n{n}.ms"] = t
        out[f"sweep.{name}.growth"] = growth(sizes, times)
    return out
