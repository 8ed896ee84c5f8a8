"""Independent brute-force oracles for the test suite.

Nothing here calls into the package's Newton-polygon machinery: closure
membership is decided by the power test (k copies of a candidate dominate a
sum of k generators), and the hull used to bound the power test is a
stand-alone staircase scan.  The one exception is the base-point descent,
which steps through the package's closures and transforms but never its
factorization.  The oracles pin the expected values against which the
package is checked.
"""

from __future__ import annotations

import os
import random
from typing import Iterable, Iterator

from qtree import truncation
from qtree.points import ROOT, Point, sorted_points
from qtree.pointsets import SymbolicPointSet

Pair = tuple[int, int]


def minimize(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    pts = set(pairs)
    return tuple(
        sorted(
            g
            for g in pts
            if not any(h != g and h[0] <= g[0] and h[1] <= g[1] for h in pts)
        )
    )


def power_sum_antichains(gens: tuple[Pair, ...], kmax: int) -> list[tuple[Pair, ...]]:
    """Antichains of the k-fold generator sums for k = 1..kmax.

    Reducing each level to its minimal antichain is sound for the power
    test: domination of any sum is witnessed by domination of a minimal one.
    """
    levels = [minimize(gens)]
    for _ in range(kmax - 1):
        levels.append(
            minimize(
                (a1 + a2, b1 + b2) for a1, b1 in levels[-1] for a2, b2 in gens
            )
        )
    return levels


def closure_member(point: Pair, levels: list[tuple[Pair, ...]]) -> bool:
    """Power test: is k*(a, b) in the k-th power for some k <= kmax?"""
    a, b = point
    for k, sums in enumerate(levels, start=1):
        ka, kb = k * a, k * b
        if any(ka >= sa and kb >= sb for sa, sb in sums):
            return True
    return False


def brute_force_closure(gens: Iterable[Pair], kmax: int) -> tuple[Pair, ...]:
    """Minimal generators of the integral closure, by the power test alone.

    Exact whenever kmax is at least the largest coordinate span of a hull
    edge (see :func:`max_edge_span`).
    """
    gens = minimize(gens)
    a_max = max(a for a, _ in gens)
    b_max = max(b for _, b in gens)
    levels = power_sum_antichains(gens, kmax)
    accepted = [
        (a, b)
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        if closure_member((a, b), levels)
    ]
    return minimize(accepted)


def subtraction_path(p: int, q: int) -> tuple[str, ...]:
    """The tree path of the valuation v(p, q), one subtraction per label."""
    path = []
    while (p, q) != (1, 1):
        if q > p:
            path.append("X")
            q -= p
        else:
            path.append("Y")
            p -= q
    return tuple(path)


def staircase_hull(gens: Iterable[Pair]) -> list[Pair]:
    """Lower-left hull vertices, independent of the package implementation."""
    pts = sorted(minimize(gens))
    hull: list[Pair] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def max_edge_span(gens: Iterable[Pair]) -> int:
    """Largest coordinate span of a hull edge; witnesses need k up to this."""
    hull = staircase_hull(gens)
    return max(
        (max(abs(x2 - x1), abs(y2 - y1)) for (x1, y1), (x2, y2) in zip(hull, hull[1:])),
        default=0,
    )


def column_scan_closure(gens: Iterable[Pair]) -> tuple[Pair, ...]:
    """Minimal closure generators by a scan of every column up to the last
    hull vertex: in column a the least b on or above every hull edge's
    supporting line, kept where it drops.  O(width x edges), however few
    generators the closure has."""
    hull = staircase_hull(gens)
    edges = list(zip(hull, hull[1:]))
    kept: list[Pair] = []
    for a in range(hull[-1][0] + 1):
        b = max(
            [0]
            + [b1 - (b1 - b2) * (a - a1) // (a2 - a1) for (a1, b1), (a2, b2) in edges]
        )
        if not kept or b < kept[-1][1]:
            kept.append((a, b))
    return tuple(kept)


def repeated_product_generators(factors) -> tuple[Pair, ...]:
    """Generators of the closure of a product of simple monomial ideals.

    ``factors`` holds ((p, q), k): the simple ideal of the weights (p, q) is
    the column-scan closure of (x^q, y^p), and it is multiplied in k times,
    one generator product at a time, before the column scan closes the
    whole product.  The products are reduced to their lower staircase by a
    sort and a sweep, since the pairwise :func:`minimize` is too slow at
    these sizes.
    """

    def staircase(pairs):
        kept: list[Pair] = []
        for a, b in sorted(pairs):
            if not kept or b < kept[-1][1]:
                kept.append((a, b))
        return tuple(kept)

    product: tuple[Pair, ...] = ((0, 0),)
    for (p, q), mult in factors:
        simple = column_scan_closure(((q, 0), (0, p)))
        for _ in range(mult):
            product = staircase(
                (a1 + a2, b1 + b2) for a1, b1 in product for a2, b2 in simple
            )
    if product == ((0, 0),):
        return product
    return column_scan_closure(product)


def random_m_primary_gens(rng, max_exp: int = 8, extra: int = 4) -> tuple[Pair, ...]:
    """A random minimal m-primary generator set with exponents <= max_exp."""
    gens = {(rng.randint(1, max_exp), 0), (0, rng.randint(1, max_exp))}
    for _ in range(rng.randint(0, extra)):
        a, b = rng.randint(0, max_exp), rng.randint(0, max_exp)
        if (a, b) != (0, 0):
            gens.add((a, b))
    return minimize(gens)


def closure_by_valuation_test(gens: Iterable[Pair], weight_bound: int) -> tuple[Pair, ...]:
    """Minimal closure generators by the valuative membership criterion.

    A lattice point lies in the integral closure iff every monomial
    valuation values it at least as much as the ideal.  Testing all coprime
    weights up to the bound is exact once the bound covers every primitive
    edge normal, and each normal entry is at most the matching coordinate
    span of its edge.
    """
    from math import gcd

    gens = minimize(gens)
    a_max = max(a for a, _ in gens)
    b_max = max(b for _, b in gens)
    weights = [
        (p, q)
        for p in range(1, weight_bound + 1)
        for q in range(1, weight_bound + 1)
        if gcd(p, q) == 1
    ]
    ideal_values = {
        (p, q): min(p * a + q * b for a, b in gens) for p, q in weights
    }
    accepted = [
        (a, b)
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        if all(p * a + q * b >= ideal_values[p, q] for p, q in weights)
    ]
    return minimize(accepted)


def descent_base_points(ideal) -> frozenset[Point]:
    """Base points of a monomial ideal by descent through quadratic transforms.

    A point is a base point iff the transform of the ideal there is proper.
    From the root each coordinate direction is followed, with an explicit
    stack, while the transform there stays proper; the Rees valuations of a
    monomial ideal are monomial, so no other direction leads to a base
    point.  The reference for ``base_points``, which reads them off the
    factorization instead.
    """
    found = []
    stack = [((), ideal.integral_closure())]
    while stack:
        path, current = stack.pop()
        found.append(path)
        for direction in ("X", "Y"):
            transform = current.quadratic_transform(direction)
            if not transform.is_unit:
                stack.append((path + (direction,), transform))
    return frozenset(map(Point, found))


def incomparable(a, b) -> bool:
    return not a.leq(b) and not b.leq(a)


def brute_force_minimal_incomparable(universe, targets) -> frozenset:
    """Minimal-incomparable scan over an explicit point universe, each
    point compared with every target: the pairwise reference for
    ``TruncatedTree.minimal_incomparable``."""
    targets = tuple(targets)
    out = set()
    for q in universe:
        if q.is_root:
            continue
        if all(incomparable(q, t) for t in targets):
            parent = q.parent()
            if not all(incomparable(parent, t) for t in targets):
                out.add(q)
    return frozenset(out)


# Quadratic reference definitions for the indexed point core.  They work on
# raw paths with pairwise scans, so they share no code with the index.


def label_rank(label: str) -> tuple[int, str]:
    """Canonical label order: X, then Y, then other labels alphabetically."""
    return (0, "") if label == "X" else (1, "") if label == "Y" else (2, label)


def canonical_key(point) -> tuple:
    return (len(point.path), [label_rank(l) for l in point.path])


def below(a, b) -> bool:
    """True iff point a lies weakly below point b (a's path is a prefix)."""
    return b.path[: len(a.path)] == a.path


def reference_sorted(points) -> tuple:
    return tuple(sorted(set(points), key=canonical_key))


def reference_terminals(points) -> tuple:
    pts = set(points)
    return reference_sorted(
        p for p in pts if not any(q != p and below(p, q) for q in pts)
    )


def reference_child_labels(points, base) -> tuple:
    labels = {p.path[-1] for p in points if p.path and p.path[:-1] == base.path}
    return tuple(sorted(labels, key=label_rank))


def reference_closed_points(points) -> tuple:
    """The closed points of the model on a base set, in ``parts`` form: one
    fan per member, missing the labels of the members directly above it."""
    return ((), tuple((b, reference_child_labels(points, b)) for b in reference_sorted(points)))


def reference_is_full_closed_set(d) -> bool:
    """Whether a descriptor's subset is its model's full closed-point set,
    by the list comparison ``is_complete_representation`` made before the
    descriptor recorded the answer: no singles, and the fans' bases and
    excluded labels are the model's base points, each with the labels of
    the base points directly above it, in canonical order."""
    fans = [(fan.base, fan.excluded) for fan in d.subset.fans]
    return not d.subset.singles and fans == list(d.model.base.labels_above())


def reference_is_saturated(ideal) -> bool:
    """The factor support equals its downward closure, on raw paths."""
    support = {p.path for p, _ in ideal.factors}
    return support == {path[:i] for path in support for i in range(len(path) + 1)}


def reference_points_antichain(points) -> bool:
    """Pairwise test over a collection; a repeated entry is comparable to itself."""
    pts = list(points)
    return not any(
        below(a, b) or below(b, a) for i, a in enumerate(pts) for b in pts[i + 1 :]
    )


def reference_fold(singles, fans) -> tuple:
    """(singles, ((base, excluded)...)) in canonical form, for raw parts.

    Fans over one base merge by intersecting their excluded sets, and a
    single that is a member of the fan over its parent is folded into it.
    """
    fan_map: dict = {}
    for base, excluded in fans:
        fan_map[base] = fan_map.get(base, set(excluded)) & set(excluded)
    single_set = set(singles)
    for base, excl in fan_map.items():
        folded = {p for p in single_set if p.path and p.path[:-1] == base.path}
        excl -= {p.path[-1] for p in folded}
        single_set -= folded
    return (
        reference_sorted(single_set),
        tuple(
            (base, tuple(sorted(excl, key=label_rank)))
            for base, excl in sorted(fan_map.items(), key=lambda kv: canonical_key(kv[0]))
        ),
    )


def parts(s) -> tuple:
    """A symbolic point set as (singles, ((base, excluded)...))."""
    return (s.singles, tuple((f.base, f.excluded) for f in s.fans))


def reference_minus(s, removed) -> tuple:
    removed = set(removed)
    singles = [p for p in s.singles if p not in removed]
    fans = [
        (f.base, tuple(f.excluded) + tuple(
            p.path[-1] for p in removed if p.path and p.path[:-1] == f.base.path
        ))
        for f in s.fans
    ]
    return reference_fold(singles, fans)


def _fan_member_strictly_below(base, excluded, p) -> bool:
    """Some member of the fan lies strictly below p."""
    n = len(base.path)
    return n + 1 < len(p.path) and p.path[:n] == base.path and p.path[n] not in excluded


def _fan_member_weakly_below(base, excluded, p) -> bool:
    n = len(base.path)
    return n < len(p.path) and p.path[:n] == base.path and p.path[n] not in excluded


def reference_minimal_points(s) -> tuple:
    singles = [
        p
        for p in s.singles
        if not any(q != p and below(q, p) for q in s.singles)
        and not any(_fan_member_strictly_below(f.base, f.excluded, p) for f in s.fans)
    ]
    fans = [
        (f.base, f.excluded)
        for f in s.fans
        if not any(below(q, f.base) for q in s.singles)
        and not any(_fan_member_weakly_below(g.base, g.excluded, f.base) for g in s.fans)
    ]
    return reference_fold(singles, fans)


def reference_set_antichain(s) -> bool:
    """No two distinct members comparable, by pairwise scans of the atoms."""
    singles, fans = s.singles, s.fans
    for i, a in enumerate(singles):
        for b in singles[i + 1 :]:
            if below(a, b) or below(b, a):
                return False
    for p in singles:
        for f in fans:
            # p below the base lies below every fan member; a fan member
            # strictly below p lies below p
            if below(p, f.base) or _fan_member_strictly_below(f.base, f.excluded, p):
                return False
    for f in fans:
        for g in fans:
            if f is not g and _fan_member_weakly_below(f.base, f.excluded, g.base):
                return False
    return True


# -- randomized and exhaustive enumerations over a truncation of the tree

SEED_ENV_VAR = "QTREE_SEED"


def seeded_rng(default: int = 20240) -> random.Random:
    """A deterministic RNG for randomized suites, seeded from QTREE_SEED."""
    seed = os.environ.get(SEED_ENV_VAR)
    return random.Random(int(seed) if seed else default)


class TruncatedTree(truncation.TruncatedTree):
    """The library's truncation, plus exhaustive and random enumerations."""

    def members(self, sset: SymbolicPointSet) -> frozenset[Point]:
        """Brute-force membership of a symbolic set within the truncation."""
        return frozenset(p for p in self.points if p in sset)

    def downward_closed_sets(
        self, max_size: int, max_level: int | None = None
    ) -> Iterator[frozenset[Point]]:
        """Every rooted downward-closed subset with at most ``max_size``
        points, exhaustively.

        Points sorted canonically list parents before children, so each such
        set is built by adding its points in canonical order; the recursion
        below enumerates each set exactly once.
        """
        cap = self.max_level if max_level is None else max_level
        candidates = [p for p in self.points if not p.is_root and p.level <= cap]

        def grow(current: set[Point], start: int) -> Iterator[frozenset[Point]]:
            yield frozenset(current)
            if len(current) >= max_size:
                return
            for i in range(start, len(candidates)):
                p = candidates[i]
                if p.parent() in current:
                    current.add(p)
                    yield from grow(current, i + 1)
                    current.remove(p)

        yield from grow({ROOT}, 0)

    def antichains(
        self, size: int, max_level: int | None = None
    ) -> Iterator[tuple[Point, ...]]:
        """Every antichain of exactly ``size`` non-root points, exhaustively."""
        cap = self.max_level if max_level is None else max_level
        candidates = [p for p in self.points if not p.is_root and p.level <= cap]

        def grow(chosen: list[Point], start: int) -> Iterator[tuple[Point, ...]]:
            if len(chosen) == size:
                yield tuple(chosen)
                return
            for i in range(start, len(candidates)):
                p = candidates[i]
                if all(not p.leq(q) and not q.leq(p) for q in chosen):
                    chosen.append(p)
                    yield from grow(chosen, i + 1)
                    chosen.pop()

        yield from grow([], 0)

    def random_point(self, rng: random.Random, min_level: int = 0) -> Point:
        level = rng.randint(min_level, self.max_level)
        return Point(tuple(rng.choice(self.alphabet) for _ in range(level)))

    def random_downward_closed(
        self, rng: random.Random, max_size: int
    ) -> frozenset[Point]:
        """A random rooted downward-closed set grown child by child."""
        current = {ROOT}
        target = rng.randint(1, max_size)
        while len(current) < target:
            base = rng.choice(sorted_points(current))
            child = base.child(rng.choice(self.alphabet))
            if child.level <= self.max_level:
                current.add(child)
        return frozenset(current)
