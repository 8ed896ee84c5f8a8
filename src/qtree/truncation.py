"""Brute-force oracle over a finite truncation of the quadratic tree.

Symbolic claims about cofinite sets cannot be enumerated in the full tree,
but they become checkable on a truncation: fix a finite label alphabet and a
level cap, and compare symbolic answers against literal enumeration.  All
excluded label sets that appear in the test corpus are drawn from the
alphabet, so cofinite statements restricted to the truncation stay faithful.

The default truncation uses the two coordinate labels plus two generic
tokens, capped at level four.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .points import ROOT, Point, SymbolicPointSet, X_DIR, Y_DIR, sorted_points

DEFAULT_ALPHABET = (X_DIR, Y_DIR, "t1", "t2")
SEED_ENV_VAR = "QTREE_SEED"


def seeded_rng(default: int = 20240) -> random.Random:
    """A deterministic RNG for randomized suites, seeded from QTREE_SEED."""
    seed = os.environ.get(SEED_ENV_VAR)
    return random.Random(int(seed) if seed else default)


@dataclass(frozen=True)
class TruncatedTree:
    """All points over a finite alphabet up to a level cap."""

    alphabet: tuple[str, ...] = DEFAULT_ALPHABET
    max_level: int = 4

    @cached_property
    def points(self) -> tuple[Point, ...]:
        # built child by child, so each point already holds its parent
        pts = [ROOT]
        level = [ROOT]
        for _ in range(self.max_level):
            level = [p.child(label) for p in level for label in self.alphabet]
            pts.extend(level)
        return sorted_points(pts)

    def __contains__(self, p: Point) -> bool:
        return p.level <= self.max_level and all(l in self.alphabet for l in p.path)

    def members(self, sset: SymbolicPointSet) -> frozenset[Point]:
        """Brute-force membership of a symbolic set within the truncation."""
        return frozenset(p for p in self.points if p in sset)

    @staticmethod
    def _incomparable_to_all(q: Point, targets: Iterable[Point]) -> bool:
        return all(not q.leq(t) and not t.leq(q) for t in targets)

    def minimal_incomparable(self, targets: Iterable[Point]) -> frozenset[Point]:
        """Points of the truncation incomparable to every target, with no
        ancestor sharing that property."""
        ts = tuple(targets)
        found = set()
        for q in self.points:
            if q.is_root or not self._incomparable_to_all(q, ts):
                continue
            if not self._incomparable_to_all(q.parent(), ts):
                found.add(q)
        return frozenset(found)

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
