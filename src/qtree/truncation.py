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

from functools import cached_property
from typing import Iterable

from .points import ROOT, FrozenValue, Point, X_DIR, Y_DIR, _labels, _trusted_point, label_key

DEFAULT_ALPHABET = (X_DIR, Y_DIR, "t1", "t2")


class TruncatedTree(FrozenValue):
    """All points over a finite alphabet up to a level cap."""

    _fields = ("alphabet", "max_level")

    def __init__(
        self, alphabet: tuple[str, ...] = DEFAULT_ALPHABET, max_level: int = 4
    ) -> None:
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "max_level", max_level)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        # level by level, each level the children of the one before in
        # label order: canonical order with no sort; and each point is made
        # from its parent, so it holds it
        labels = sorted(self.alphabet, key=label_key)
        levels = range(self.max_level)
        if levels:  # checked once, and never for the root alone
            labels = _labels(labels)
        pts = [ROOT]
        level = [ROOT]
        for _ in levels:
            level = [_trusted_point(p.path + (label,), p) for p in level for label in labels]
            pts.extend(level)
        return tuple(pts)

    def minimal_incomparable(self, targets: Iterable[Point]) -> frozenset[Point]:
        """Points of the truncation incomparable to every target, with no
        ancestor sharing that property.

        A point lies below a target iff its path is a prefix of the target's,
        and above one iff the target's path is a prefix of its own.  A point
        of the answer lies below no target and above none, and its parent
        lies below one.
        """
        paths = {t.path for t in targets}
        below = {path[:i] for path in paths for i in range(len(path) + 1)}
        return frozenset(
            q
            for q in self.points
            if q.path
            and q.path not in below
            and q.path[:-1] in below
            and not any(q.path[:i] in paths for i in range(len(q.path)))
        )
