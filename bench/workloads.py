"""The three benchmark workloads: seeded inputs, timed operations, answer checks.

Every workload is a closed loop with one client: it cycles through a seeded
schedule of operations and sends the next one only when the previous one has
returned.  An operation receives plain data (label paths, exponent pairs,
JSON text) and builds the library values itself, so construction and
validation are part of what is timed.  ``run`` is the timed part; ``check``
compares its result with :mod:`reference` and runs outside the clock.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from itertools import product

import reference as ref

LABELS4 = ("X", "Y", "t1", "t2")
LABELS5 = ("X", "Y", "t1", "t2", "t3")


class WrongAnswer(Exception):
    """The library's answer disagrees with the reference."""


def expect(condition, message):
    if not condition:
        raise WrongAnswer(message)


def spread(lo, hi, n, log=False):
    """``n`` sizes at the midpoints of ``n`` equal strata of [lo, hi] (of
    log-size when ``log``) in reversed bit-reversed order: for ``n`` a power
    of two the largest comes first and every prefix of the list covers the
    range evenly and holds the costliest inputs.  A run that ends partway through a cycle then still
    sees the same tail.  Sizes do not depend on the seed; only the shapes
    built at each size do, which keeps runs with different seeds comparable."""
    bits = max(1, (n - 1).bit_length())
    order = sorted(range(n), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    out = []
    for i in reversed(order):
        u = (i + 0.5) / n
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    return out


def random_tree(rng, n, labels, deep):
    """A rooted downward-closed set of ``n`` paths.  With probability
    ``deep`` a new point grows from one of the last few points added, which
    makes long branches; otherwise from any point, which makes bushy ones."""
    pts = [ref.ROOT]
    seen = {ref.ROOT}
    while len(pts) < n:
        if rng.random() < deep:
            base = pts[-1 - rng.randrange(min(len(pts), 4))]
        else:
            base = rng.choice(pts)
        child = base + (rng.choice(labels),)
        if child not in seen:
            seen.add(child)
            pts.append(child)
    return pts


def random_path(rng, level, labels):
    return tuple(rng.choice(labels) for _ in range(level))


def spawn(argv, env, workdir, stdin):
    """Run a child with stdout and stderr in files under ``workdir`` and wait
    for it; returns (exit code, stdout, stderr, peak RSS of the child in kB)."""
    out = os.path.join(workdir, "stdout")
    err = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    with open(out, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err, encoding="utf-8") as fh:
        stderr = fh.read()
    return os.waitstatus_to_exitcode(status), stdout, stderr, usage.ru_maxrss


def tree_points(labels, max_level):
    out = [ref.ROOT]
    for level in range(1, max_level + 1):
        out.extend(product(labels, repeat=level))
    return out


def pointset_plain(js):
    """A point set as the serializer encodes it, decoded into plain data."""
    singles = {tuple(p["path"]) for p in js["singles"]}
    fans = {tuple(f["base"]["path"]): set(f["excluded"]) for f in js["cofinite"]}
    return singles, fans


def check_membership(js, points, truth, what):
    singles, fans = pointset_plain(js)
    for q in points:
        expect(
            ref.symbolic_member(q, singles, fans) == truth(q),
            f"{what}: membership of {ref.point_str(q)} disagrees with the reference",
        )


def truncated_members(js, labels, max_level):
    """The points of a decoded point set that lie in the truncation: paths
    over ``labels`` of level at most ``max_level``."""
    singles, fans = pointset_plain(js)
    inside = lambda p: len(p) <= max_level and all(l in labels for l in p)
    out = {p for p in singles if inside(p)}
    for base, excluded in fans.items():
        out |= {base + (l,) for l in labels if l not in excluded and inside(base + (l,))}
    return out


def check_canonical(paths, what):
    expect(
        list(paths) == sorted(paths, key=ref.point_key),
        f"{what}: points are not in canonical order",
    )


class Workload:
    """Base class: ``ops`` is the schedule of (kind, payload) pairs."""

    name = ""
    modules = ()

    def __init__(self, qtree, seed):
        self.q = qtree
        self.rng = random.Random(f"{self.name}/{seed}")
        self.ops = self.schedule()

    def schedule(self):
        raise NotImplementedError

    def run(self, op):
        kind, payload = op
        return getattr(self, "op_" + kind)(payload)

    def ok(self, result):
        """False when the operation failed without raising (a CLI crash)."""
        return True

    def check(self, op, result):
        kind, payload = op
        getattr(self, "check_" + kind)(payload, result)

    # a bundle is one query of several kinds: {kind: payload}
    def op_bundle(self, bundle):
        return {k: getattr(self, "op_" + k)(payload) for k, payload in bundle.items()}

    def check_bundle(self, bundle, result):
        for k, payload in bundle.items():
            getattr(self, "check_" + k)(payload, result[k])

    # helpers that build library values from plain data
    def points(self, paths):
        Point = self.q.points.Point
        return [Point(tuple(p)) for p in paths]

    def model(self, paths):
        q = self.q
        return q.models.NonsingularModel(
            q.ideals.BasePointSet(frozenset(self.points(paths)))
        )

    def ideal(self, factors):
        Point = self.q.points.Point
        return self.q.ideals.CompleteIdeal(tuple((Point(p), m) for p, m in factors))


# --------------------------------------------------------------- tree-large


class TreeLarge(Workload):
    name = "tree-large"
    modules = ("qtree.points", "qtree.ideals", "qtree.models", "qtree.intersections")
    KINDS = (
        "closed_points",
        "terminals",
        "minimal_model",
        "min_incomparable",
        "classify",
        "join",
        "ideal",
    )
    BUNDLES = 21

    def schedule(self):
        """Each operation is a bundle of one query of every kind, so the
        median does not fall between kinds of very different cost.  The
        base sets of a bundle share one size stratum and the ideal takes the
        level stratum at the other end of its range: the ideal costs most,
        and pairing its large levels with small base sets keeps the bundles
        within about a factor of two of each other.  A bundle takes over a
        second, so a run is the 21 operations the tail needs, and with 21
        bundles every run times each of them once."""
        n = self.BUNDLES
        sizes = spread(150, 400, n)
        deeps = spread(0.0, 0.9, n)[::-1]
        levels = spread(200, 1500, n)
        by_size = sorted(range(n), key=lambda i: sizes[i])
        level_of = dict(zip(by_size, sorted(levels, reverse=True)))
        return [
            ("bundle", {k: self.make(k, int(sizes[i]), deeps[i], int(level_of[i])) for k in self.KINDS})
            for i in range(n)
        ]

    def make(self, kind, n, deep, level):
        rng = self.rng
        if kind == "ideal":
            # two factors at the same level whose chains part halfway up
            first = random_path(rng, level, LABELS5)
            second = first[: level // 2] + random_path(rng, level - level // 2, LABELS5)
            return [(first, rng.randint(1, 3)), (second, rng.randint(1, 3))]
        base = random_tree(rng, n, LABELS5, deep)
        if kind == "join":
            return (base, random_tree(rng, n, LABELS5, 0.9 - deep))
        if kind in ("minimal_model", "min_incomparable"):
            return sorted(ref.terminals(set(base)), key=ref.point_key)
        if kind == "classify":
            bset = set(base)
            fans = {b: sorted(c[-1] for c in bset if c and c[:-1] == b) for b in base}
            return base, fans
        return base

    def op_closed_points(self, base):
        return self.model(base).closed_points()

    def check_closed_points(self, base, result):
        bset = set(base)
        js = self.q.serialize.pointset_to_json(result)
        sample = ref.sample_points(bset, LABELS5, self.rng)
        check_membership(js, sample, lambda p: ref.is_closed_point(p, bset), "closed_points")

    def op_terminals(self, base):
        return self.model(base).base.terminals()

    def check_terminals(self, base, result):
        got = [p.path for p in result]
        expect(set(got) == ref.terminals(set(base)), "terminals differ from the reference")
        check_canonical(got, "terminals")

    def op_minimal_model(self, targets):
        return self.q.models.minimal_model_containing(self.points(targets))

    def check_minimal_model(self, targets, result):
        got = {p.path for p in result.base}
        expect(got == ref.parent_chains(targets), "minimal model differs from the reference")

    def op_min_incomparable(self, targets):
        return self.q.models.minimal_incomparable_set(self.points(targets))

    def check_min_incomparable(self, targets, result):
        js = self.q.serialize.pointset_to_json(result)
        sample = ref.sample_points(ref.parent_chains(targets), LABELS5, self.rng)
        sample |= set(targets)
        check_membership(
            js, sample, lambda p: ref.is_min_incomparable(p, targets), "min_incomparable"
        )

    def op_classify(self, payload):
        q = self.q
        base, fans = payload
        Point = q.points.Point
        model = self.model(base)
        closed = q.points.SymbolicPointSet(
            fans=tuple(q.points.CofiniteFan(Point(b), tuple(ex)) for b, ex in fans.items())
        )
        d = q.intersections.IntersectionDescriptor(model, closed)
        return (
            closed,
            q.intersections.classify(d),
            closed.minimal_points(),
            q.intersections.is_complete_representation(d),
        )

    def check_classify(self, payload, result):
        closed, verdict, minimal, complete = result
        js = self.q.serialize.classification_to_json(verdict)
        # the closed points of a model are an infinite antichain that
        # intersects down to the root ring
        expect(js["maximalIdealCount"] == "INFINITE", "classify: count is not INFINITE")
        expect(js["irredundant"] != "NO", "classify: an antichain judged redundant")
        expect(complete.value == "YES", "closed points judged not a complete representation")
        expect(minimal == closed, "minimal points of an antichain changed it")

    def op_join(self, pair):
        return self.model(pair[0]).join(self.model(pair[1]))

    def check_join(self, pair, result):
        got = {p.path for p in result.base}
        expect(got == set(pair[0]) | set(pair[1]), "join differs from the base-set union")

    def op_ideal(self, factors):
        ideal = self.ideal(factors)
        return ideal.saturate(), ideal.base_points(), ideal.terminal_base_points()

    def check_ideal(self, factors, result):
        saturated, base, terms = result
        want = ref.union_of_chains(p for p, _ in factors)
        expect(
            {p.path: m for p, m in saturated.factors} == dict.fromkeys(want, 1),
            "saturation is not the union of the factor chains",
        )
        expect({p.path for p in base} == want, "base points are not the union of chains")
        expect({p.path for p in terms} == ref.terminals(want), "terminal base points differ")


# --------------------------------------------------------------------- toric


class Toric(Workload):
    name = "toric"
    modules = ("qtree.monomial",)
    KINDS = ("generators", "closure", "roundtrip", "base_points", "valuations")
    BUNDLES = 15

    def schedule(self):
        """Each operation is a bundle of one query of every kind at the same
        size stratum, so the median and the tail fall on whole strata rather
        than between kinds of very different cost.  The strata are far apart
        (the closure's exponent grows by about a third from one to the
        next), so the count is odd: over whole cycles the median then falls
        inside the middle bundle's times rather than in the gap between two.
        A cycle is short enough that the costliest bundle runs more than ten
        times in a run, so the tail percentile falls inside it."""
        n = self.BUNDLES
        per_kind = {
            "generators": [self.toric_factors(int(m)) for m in spread(5, 26, n)],
            "roundtrip": [self.toric_factors(int(m)) for m in spread(5, 16, n)],
            "closure": [self.staircase(int(e)) for e in spread(8, 1500, n, log=True)],
            "base_points": [
                [(int(e), 0), (0, 1 + i % 3)] for i, e in enumerate(spread(40, 300, n))
            ],
            "valuations": [self.coprime_weights() for _ in range(n)],
        }
        return [("bundle", {k: per_kind[k][i] for k in self.KINDS}) for i in range(n)]

    def deep_chain(self):
        """``base_points((x^d, y))`` with ``d`` beyond the recursion limit,
        outside any timed loop: the number of errors it raises (0 or 1) and
        the message of a wrong answer, or None.  The workload's operations
        must not fail, so this known ``RecursionError`` is a per-layer
        metric of the traced run rather than a failed operation."""
        gens = [(max(1100, sys.getrecursionlimit() + 100), 0), (0, 1)]
        try:
            result = self.op_base_points(gens)
        except Exception:  # the error is what is counted
            return 1, None
        try:
            self.check_base_points(gens, result)
        except Exception as exc:  # any check that cannot confirm the answer
            return 0, f"deep chain base_points: {type(exc).__name__}: {exc}"
        return 0, None

    def toric_factors(self, total):
        """Two toric factors, at levels 2 and 3, sharing the multiplicity."""
        rng = self.rng
        half = total // 2
        return [(random_path(rng, 2, "XY"), half), (random_path(rng, 3, "XY"), total - half)]

    def staircase(self, e):
        """(x^e, y^e) with one seeded corner near (e/3, e/3) and a few
        redundant generators: the Newton polygon has two edges whose shape,
        and so the cost of the closure, hardly depends on the seed."""
        rng = self.rng
        jitter = max(1, e // 20)
        corner = (e // 3 + rng.randrange(jitter), e // 3 + rng.randrange(jitter))
        gens = [(e, 0), (0, e), corner]
        for _ in range(rng.randint(0, 3)):
            a = rng.randrange(1, e)
            gens.append((a, e - a + rng.randrange(jitter)))
        return gens

    def coprime_weights(self):
        rng = self.rng
        out = []
        while len(out) < 40:
            p, q = rng.randint(1, 300), rng.randint(1, 300)
            if ref.math.gcd(p, q) == 1:
                out.append((p, q))
        return out

    def op_generators(self, factors):
        return self.q.monomial.generators_for_ideal(self.ideal(factors))

    def check_generators(self, factors, result):
        want = ref.toric_generators(factors)
        expect(list(result.gens) == want, "generators differ from the reference product")

    def op_closure(self, gens):
        return self.q.monomial.MonomialIdeal(tuple(gens)).integral_closure()

    def check_closure(self, gens, result):
        got = list(result.gens)
        expect(got == ref.closure(gens), "integral closure differs from the reference hull")
        if max(max(g) for g in gens) <= 24:
            kmax = max(max(g) for g in gens)
            for a, b in got:
                expect(ref.power_member((a, b), gens, kmax), "closure generator fails the power test")
                if b:
                    expect(
                        not ref.power_member((a, b - 1), gens, kmax),
                        "a point below the closure passes the power test",
                    )

    def op_roundtrip(self, factors):
        return self.q.monomial.factorize(
            self.q.monomial.generators_for_ideal(self.ideal(factors))
        )

    def check_roundtrip(self, factors, result):
        want = {}
        for p, m in factors:
            want[p] = want.get(p, 0) + m
        expect({p.path: m for p, m in result.factors} == want, "factorize does not invert generators")

    def op_base_points(self, gens):
        return self.q.monomial.base_points(self.q.monomial.MonomialIdeal(tuple(gens)))

    def check_base_points(self, gens, result):
        want = ref.union_of_chains(ref.toric_factors(ref.closure(gens)))
        expect({p.path for p in result} == want, "monomial base points differ from the factor chains")

    def op_valuations(self, grid):
        m = self.q.monomial
        pts = [m.point_for_valuation(m.MonomialValuation(p, q)) for p, q in grid]
        return pts, [m.valuation_for_point(pt) for pt in pts]

    def check_valuations(self, grid, result):
        pts, vals = result
        for (p, q), pt, v in zip(grid, pts, vals):
            expect(pt.path == ref.path_for_weights(p, q), f"point of v({p},{q}) differs")
            expect((v.p, v.q) == (p, q), f"valuation round trip of v({p},{q}) differs")


# ----------------------------------------------------------------- cli-verbs


class CliVerbs(Workload):
    """``python -m qtree`` subprocesses over a seeded mix of every verb.

    ``run`` spawns the interpreter and returns (exit code, stdout, stderr,
    peak RSS in kB); the traced run calls ``cli.main`` in-process instead
    (see :meth:`run_in_process`).
    """

    name = "cli-verbs"
    modules = ("qtree.cli",)
    CYCLES = 3
    # (verb, flags) for well-formed calls; every verb and flag appears
    TEMPLATES = (
        ("saturate", ()), ("saturate", ("--pretty",)), ("saturate", ("--generators",)),
        ("base-points", ()), ("base-points", ("--pretty",)),
        ("rees", ()), ("rees", ("--pretty",)),
        ("closed-points", ()),
        ("desingularize", ()), ("desingularize", ("--dot",)), ("desingularize", ("--pretty",)),
        ("join", ()), ("join", ("--dot",)),
        ("minimal-model", ()), ("minimal-model", ("--pretty",)),
        ("min-incomparable", ()),
        ("classify", ()), ("classify", ("--henselian",)), ("classify", ("--pretty",)),
        ("factorize", ()), ("factorize", ("--pretty",)),
        ("closure", ()), ("closure", ("--pretty",)),
        ("transform", ("--dir",)), ("transform", ("--dir", "--pretty")),
        ("point-of-valuation", ()), ("point-of-valuation", ("--pretty",)),
        ("generators", ()), ("generators", ("--pretty",)),
        ("emit-dot", ()),
    )
    TRUNCATE_LEVEL = 6
    MALFORMED = (
        ("closed-points", '{"base": [{"path": []}'),
        ("emit-dot", '{"base": [{"path": ["X"]}]}'),
        ("point-of-valuation", '{"p": 4, "q": 6}'),
        ("generators", '{"factors": [{"point": {"path": ["t1"]}, "mult": 1}]}'),
        ("closure", "x^3 y^2"),
        ("minimal-model", '{"points": [{"path": ["X"]}, {"path": ["X", "Y"]}]}'),
        ("join", '{"models": [{"base": [{"path": []}]}]}'),
    )

    def __init__(self, qtree, seed, workdir, python, env):
        self.workdir = workdir
        self.python = python
        self.env = env
        self.empty = os.path.join(workdir, "empty")
        open(self.empty, "w").close()
        self.nfiles = 0
        super().__init__(qtree, seed)

    def schedule(self):
        """Every fifth call cross-checks against the brute-force oracle with
        ``--truncate``; those heavier calls make the tail of the workload.
        Three in four of them are ``min-incomparable``, the costlier verb, so
        that the tail percentile (the top 7-10 % of a run's calls) falls
        inside that group (15 % of the calls) and not at its edge; their
        trees take sizes and shapes that do not depend on the seed (see
        ``spread``)."""
        rng = self.rng
        light = []
        for _ in range(self.CYCLES):
            light += [("valid", t) for t in self.TEMPLATES]
            light += [("malformed", m) for m in self.MALFORMED]
        rng.shuffle(light)
        calls = []
        for i, call in enumerate(light):
            calls.append(call)
            if i % 4 == 3:
                verb = "closed-points" if i // 4 % 4 == 3 else "min-incomparable"
                calls.append(("valid", (verb, ("--truncate",))))
        n = len(light) // 4
        self.truncate_shapes = iter(zip(spread(2, 60, n), spread(0.0, 0.8, n)))
        ops = []
        for i, (kind, spec) in enumerate(calls):
            mode = ("inline", "file", "stdin")[i % 3]
            if kind == "valid":
                verb, flags = spec
                text, argv, data = self.make(verb, flags)
                expected = (verb, argv, data)
            else:
                verb, text = spec
                argv, expected = [], None
            ops.append(("call", self.place(verb, text, argv, mode, expected)))
        return ops

    def place(self, verb, text, argv, mode, expected):
        """Deliver the input inline, as a file, or on stdin."""
        stdin = None
        if mode == "inline":
            arg = text
        elif mode == "file":
            self.nfiles += 1
            arg = os.path.join(self.workdir, f"input{self.nfiles}.json")
            with open(arg, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            self.nfiles += 1
            stdin = os.path.join(self.workdir, f"input{self.nfiles}.json")
            with open(stdin, "w", encoding="utf-8") as fh:
                fh.write(text)
            arg = "-"
        # each child draws its hash seed from the run seed, so that a run
        # repeats exactly and still averages over hash layouts
        env = dict(self.env, PYTHONHASHSEED=str(self.rng.randrange(2**32)))
        return {"argv": [verb, arg] + argv, "stdin": stdin, "env": env, "text": text, "expected": expected}

    # -- input generators (plain data, then JSON text)
    def small_tree(self, shape=None):
        rng = self.rng
        n, deep = shape or (rng.randint(2, 60), rng.random() * 0.8)
        return random_tree(rng, int(n), LABELS4, deep)

    def small_factors(self, labels=LABELS4, max_level=6):
        rng = self.rng
        return [
            (random_path(rng, rng.randint(0, max_level), labels), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]

    def staircase(self):
        rng = self.rng
        ex, ey = rng.randint(1, 60), rng.randint(1, 60)
        gens = [(ex, 0), (0, ey)]
        for _ in range(rng.randint(0, 3)):
            if ex > 1 and ey > 1:
                gens.append((rng.randrange(1, ex), rng.randrange(1, ey)))
        return gens

    @staticmethod
    def jpoint(p):
        return {"path": list(p)}

    def jideal(self, factors):
        return json.dumps({"factors": [{"point": self.jpoint(p), "mult": m} for p, m in factors]})

    def jmodel(self, base):
        return {"base": [self.jpoint(p) for p in base]}

    def make(self, verb, flags):
        """(input text, argv after the input, data the answer is checked
        against) for one well-formed call."""
        rng = self.rng
        argv = [f for f in flags if f != "--truncate" and f != "--dir"]
        shape = None
        if "--truncate" in flags:
            argv += ["--truncate", str(self.TRUNCATE_LEVEL)]
            shape = next(self.truncate_shapes)
        if "--dir" in flags:
            argv += ["--dir", rng.choice("XY")]
        if verb in ("saturate", "base-points", "rees", "desingularize", "generators"):
            toric = verb == "generators" or "--generators" in flags
            factors = self.small_factors("XY", 3) if toric else self.small_factors()
            return self.jideal(factors), argv, factors
        if verb in ("closed-points", "emit-dot"):
            base = self.small_tree(shape)
            return json.dumps(self.jmodel(base)), argv, base
        if verb == "join":
            a, b = self.small_tree(), self.small_tree()
            text = json.dumps({"models": [self.jmodel(a), self.jmodel(b)]})
            return text, argv, set(a) | set(b)
        if verb in ("minimal-model", "min-incomparable"):
            targets = sorted(ref.terminals(set(self.small_tree(shape))) - {ref.ROOT}, key=ref.point_key)
            if not targets:
                targets = [("X",)]
            text = json.dumps({"points": [self.jpoint(p) for p in targets]})
            return text, argv, targets
        if verb == "classify":
            base = self.small_tree()
            bset = set(base)
            fans = {b: sorted(c[-1] for c in bset if c and c[:-1] == b) for b in base}
            if rng.random() < 0.5:
                subset = {"singles": [], "cofinite": [{"base": self.jpoint(b), "excluded": ex} for b, ex in fans.items()]}
                plain = ("fans", None)
            else:
                closed = [b + (l,) for b in base for l in LABELS4 + ("t3",) if ref.is_closed_point(b + (l,), bset)]
                singles = rng.sample(closed, min(len(closed), rng.randint(1, 4)))
                subset = {"singles": [self.jpoint(p) for p in singles], "cofinite": []}
                plain = ("singles", singles)
            text = json.dumps({"model": self.jmodel(base), "subset": subset, "henselian": False})
            return text, argv, plain
        if verb in ("factorize", "transform"):
            gens = ref.closure(self.staircase())
            text = ref.monomial_text(gens) if rng.random() < 0.5 else json.dumps({"gens": [list(g) for g in gens]})
            return text, argv, gens
        if verb == "closure":
            gens = self.staircase()
            text = ref.monomial_text(ref.minimize(gens))
            return text, argv, gens
        if verb == "point-of-valuation":
            while True:
                p, q = rng.randint(1, 60), rng.randint(1, 60)
                if ref.math.gcd(p, q) == 1:
                    break
            return json.dumps({"p": p, "q": q}), argv, (p, q)
        raise ValueError(verb)

    # -- running
    def op_call(self, call):
        argv = [self.python, "-m", "qtree"] + call["argv"]
        return spawn(argv, call["env"], self.workdir, call["stdin"] or self.empty)

    def run_in_process(self, op):
        """The same call through ``cli.main`` in this interpreter."""
        call = op[1]
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        if call["stdin"]:
            with open(call["stdin"], encoding="utf-8") as fh:
                sys.stdin = io.StringIO(fh.read())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.q.cli.main(list(call["argv"]))
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue(), 0

    def ok(self, result):
        code, _, stderr, _ = result
        return code in (0, 1, 2) and "Traceback (most recent call last)" not in stderr

    def check_call(self, call, result):
        code, stdout, stderr, _ = result
        if call["expected"] is None:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            name = last.split(":", 1)[0]
            expect(
                code in (1, 2) and name.isidentifier() and ": " in last and not stdout,
                f"malformed input to {call['argv'][0]} was not refused with an error class",
            )
            return
        expect(code == 0, f"{call['argv'][0]} exited {code}: {stderr.strip()[:200]}")
        verb, flags, data = call["expected"]
        getattr(self, "expect_" + verb.replace("-", "_"))(flags, data, stdout)

    # -- per-verb expectations
    @staticmethod
    def payload(stdout):
        js = json.loads(stdout)
        expect(js.pop("schema", None) == "qtree/1", "output lacks the qtree/1 schema tag")
        return js

    @staticmethod
    def canonical(paths):
        return sorted(paths, key=ref.point_key)

    def expect_saturate(self, flags, factors, stdout):
        want = self.canonical(ref.union_of_chains(p for p, _ in factors))
        if "--pretty" in flags:
            expect(stdout.strip() == " * ".join(ref.point_str(p) for p in want), "saturate --pretty")
        elif "--generators" in flags:
            gens = ref.toric_generators([(p, 1) for p in want])
            expect(stdout.strip() == ref.monomial_text(gens), "saturate --generators")
        else:
            got = [(tuple(f["point"]["path"]), f["mult"]) for f in self.payload(stdout)["factors"]]
            expect(got == [(p, 1) for p in want], "saturate")

    def expect_base_points(self, flags, factors, stdout):
        want = self.canonical(ref.union_of_chains(p for p, _ in factors))
        if "--pretty" in flags:
            expect(stdout.strip() == "{" + ", ".join(ref.point_str(p) for p in want) + "}", "base-points --pretty")
        else:
            got = [tuple(p["path"]) for p in self.payload(stdout)["points"]]
            expect(got == want, "base-points")

    def expect_rees(self, flags, factors, stdout):
        want = self.canonical({p for p, _ in factors})
        if "--pretty" in flags:
            expect(stdout.strip() == ", ".join(f"ord({ref.point_str(p)})" for p in want), "rees --pretty")
        else:
            got = [tuple(v["center"]["path"]) for v in self.payload(stdout)["valuations"]]
            expect(got == want, "rees")

    def expect_closed_points(self, flags, base, stdout):
        bset = set(base)
        js = self.payload(stdout)
        if "--truncate" in flags:
            level = int(flags[flags.index("--truncate") + 1])
            want = {p for p in tree_points(LABELS4, level) if ref.is_closed_point(p, bset)}
            expect(truncated_members(js, LABELS4, level) == want, "closed-points --truncate")
        points = ref.sample_points(bset, LABELS4, self.rng)
        check_membership(js, points, lambda p: ref.is_closed_point(p, bset), "closed-points")

    def expect_model(self, flags, want, stdout, what):
        want = self.canonical(want)
        if "--dot" in flags:
            self.expect_dot(want, stdout, what)
        elif "--pretty" in flags:
            terms = self.canonical(ref.terminals(set(want)))
            text = "base: {%s}\nterminal: {%s}" % (
                ", ".join(ref.point_str(p) for p in want),
                ", ".join(ref.point_str(p) for p in terms),
            )
            expect(stdout.strip() == text, what + " --pretty")
        else:
            got = [tuple(p["path"]) for p in self.payload(stdout)["base"]]
            expect(got == want, what)

    def expect_dot(self, base, stdout, what):
        expect(stdout.startswith("digraph"), what + ": not a DOT graph")
        for p in base:
            node = "D" if not p else "D." + ".".join(p)
            expect(f'"{node}" [label="{ref.point_str(p)}"' in stdout, f"{what}: node {node} missing")
        terms = ref.terminals(set(base))
        expect(stdout.count("peripheries=2") == len(terms), what + ": terminal count")
        expect(stdout.count("shape=triangle") == len(base), what + ": one fan per base point")

    def expect_desingularize(self, flags, factors, stdout):
        self.expect_model(flags, ref.union_of_chains(p for p, _ in factors), stdout, "desingularize")

    def expect_join(self, flags, union, stdout):
        self.expect_model(flags, union, stdout, "join")

    def expect_minimal_model(self, flags, targets, stdout):
        self.expect_model(flags, ref.parent_chains(targets), stdout, "minimal-model")

    def expect_emit_dot(self, flags, base, stdout):
        self.expect_dot(self.canonical(base), stdout, "emit-dot")

    def expect_min_incomparable(self, flags, targets, stdout):
        js = self.payload(stdout)
        if "--truncate" in flags:
            level = int(flags[flags.index("--truncate") + 1])
            want = {p for p in tree_points(LABELS4, level) if ref.is_min_incomparable(p, targets)}
            expect(truncated_members(js, LABELS4, level) == want, "min-incomparable --truncate")
        points = ref.sample_points(ref.parent_chains(targets), LABELS4, self.rng) | set(targets)
        check_membership(js, points, lambda p: ref.is_min_incomparable(p, targets), "min-incomparable")

    def expect_classify(self, flags, plain, stdout):
        kind, singles = plain
        if "--pretty" in flags:
            js = dict(l.split(": ", 1) for l in stdout.splitlines() if not l.startswith(" "))
        else:
            js = self.payload(stdout)
        if kind == "fans":
            count = "INFINITE"
            expect(js["irredundant"] != "NO", "classify: an antichain judged redundant")
        else:
            count = len(singles)
            want = "YES" if ref.is_antichain(singles) else "NO"
            expect(js["irredundant"] == want, "classify: irredundance of a finite family")
            expect(js["essential"] == "YES", "classify: a finite family is essential")
        if "--pretty" in flags:
            count = str(count)
        expect(js["maximalIdealCount"] == count, "classify: maximal ideal count")

    def expect_factorize(self, flags, gens, stdout):
        want = ref.toric_factors(gens)
        order = self.canonical(want)
        if "--pretty" in flags:
            text = " * ".join(
                ref.point_str(p) if want[p] == 1 else f"{ref.point_str(p)}^{want[p]}" for p in order
            )
            expect(stdout.strip() == text, "factorize --pretty")
        else:
            got = [(tuple(f["point"]["path"]), f["mult"]) for f in self.payload(stdout)["factors"]]
            expect(got == [(p, want[p]) for p in order], "factorize")

    def expect_monomial(self, flags, gens, stdout, what):
        if "--pretty" in flags:
            expect(stdout.strip() == ref.monomial_text(gens), what + " --pretty")
        else:
            got = [tuple(g) for g in self.payload(stdout)["gens"]]
            expect(got == sorted(gens, key=lambda g: (-g[0], g[1])), what)

    def expect_closure(self, flags, gens, stdout):
        self.expect_monomial(flags, ref.closure(gens), stdout, "closure")

    def expect_transform(self, flags, gens, stdout):
        direction = flags[flags.index("--dir") + 1]
        order = min(a + b for a, b in gens)
        if direction == "X":
            moved = [(a + b - order, b) for a, b in gens]
        else:
            moved = [(a, a + b - order) for a, b in gens]
        moved = ref.minimize(moved)
        want = moved if moved == [(0, 0)] else ref.closure(moved)
        self.expect_monomial(flags, want, stdout, "transform")

    def expect_point_of_valuation(self, flags, pq, stdout):
        want = ref.path_for_weights(*pq)
        if "--pretty" in flags:
            expect(stdout.strip() == ref.point_str(want), "point-of-valuation --pretty")
        else:
            expect(tuple(self.payload(stdout)["path"]) == want, "point-of-valuation")

    def expect_generators(self, flags, factors, stdout):
        self.expect_monomial(flags, ref.toric_generators(factors), stdout, "generators")


WORKLOADS = {w.name: w for w in (CliVerbs, TreeLarge, Toric)}
