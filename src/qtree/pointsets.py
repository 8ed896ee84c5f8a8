"""Symbolic point sets: finite unions of points and cofinite fans.

A first neighborhood is infinite, so a set of points of the quadratic tree
is kept symbolically: finitely many single points, and finitely many first
neighborhoods each missing finitely many directions
(:class:`CofiniteFan`).  The closed points of a model, the points minimal
for incomparability with an antichain, and the subsets a classification
reads all have this form.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .points import FrozenValue, Point, _label_rank, _labels, _new, _not_a_string, label_key


class CofiniteFan(FrozenValue):
    """A first neighborhood minus finitely many directions.

    Represents Q1(base) with the listed direction labels removed.  Because
    first neighborhoods are infinite, a fan is always an infinite set.
    """

    _fields = ("base", "excluded")

    def __init__(self, base: Point, excluded: Iterable[str] = ()) -> None:
        if not isinstance(base, Point):
            raise ValueError("a fan's base must be a point")
        excluded = _labels(excluded)
        if len(excluded) > 1:
            excluded = tuple(sorted(set(excluded), key=label_key))
        fields = self.__dict__
        fields["base"] = base
        fields["excluded"] = excluded

    def __str__(self) -> str:
        if not self.excluded:
            return f"Q1({self.base})"
        return f"Q1({self.base}) - {{{', '.join(self.excluded)}}}"


def _trusted_fan(base: Point, excluded: tuple[str, ...]) -> CofiniteFan:
    """A fan whose excluded labels are already distinct, valid and in
    ``label_key`` order."""
    fan = _new(CofiniteFan)
    fields = fan.__dict__
    fields["base"] = base
    fields["excluded"] = excluded
    return fan


class SymbolicPointSet(FrozenValue):
    """A finite union of single points and cofinite first-neighborhood fans.

    Values are kept in canonical form: fans have pairwise distinct bases,
    no single point is covered by a fan (a single whose parent carries a fan
    is folded into that fan), and all tuples are sorted canonically.  Two
    values are equal iff they describe the same set of points.  The
    constructor (and ``union``, ``of_points`` and ``fan`` through it) makes
    its input canonical; a derived set (closed points, minimal points, a
    set minus points) is built from parts already in canonical form and
    kept as it is built.
    """

    _fields = ("singles", "fans")

    def __init__(
        self, singles: tuple[Point, ...] = (), fans: tuple[CofiniteFan, ...] = ()
    ) -> None:
        fields = self.__dict__
        fields["singles"] = singles
        fields["fans"] = fans
        self.__post_init__()

    def __post_init__(self) -> None:
        # base path -> the fan over that base; a fan is kept as given unless
        # another part changes its excluded labels
        fans = {}
        for fan in self.fans:
            path = fan.base.path
            kept = fans.get(path)
            if kept is None:
                fans[path] = fan
            else:
                # union of two cofinite sets over one base excludes only
                # the directions excluded by both
                common = tuple(set(kept.excluded).intersection(fan.excluded))
                if len(common) != len(kept.excluded):
                    fans[path] = CofiniteFan(kept.base, common)
        # path -> the single on that path
        singles = {}
        for p in self.singles:
            path = p.path
            fan = fans.get(path[:-1]) if path else None
            if fan is None:
                singles[path] = p
            elif path[-1] in fan.excluded:
                excluded = tuple(l for l in fan.excluded if l != path[-1])
                fans[path[:-1]] = CofiniteFan(fan.base, excluded)
        # ``Point.sort_key`` order
        rank = _label_rank((*singles, *fans))

        def key(path: tuple[str, ...]) -> tuple:
            return len(path), tuple(map(rank, path))

        fields = self.__dict__
        fields["singles"] = tuple(map(singles.__getitem__, sorted(singles, key=key)))
        fields["fans"] = tuple(map(fans.__getitem__, sorted(fans, key=key)))

    @classmethod
    def _canonical(
        cls, singles: tuple[Point, ...], fans: tuple[CofiniteFan, ...]
    ) -> "SymbolicPointSet":
        """A set from parts already in canonical form, stored as they are."""
        s = _new(cls)
        fields = s.__dict__
        fields["singles"] = singles
        fields["fans"] = fans
        return s

    @classmethod
    def empty(cls) -> "SymbolicPointSet":
        return cls()

    @classmethod
    def of_points(cls, points: Iterable[Point]) -> "SymbolicPointSet":
        return cls(singles=tuple(_not_a_string(points)))

    @classmethod
    def fan(cls, base: Point, excluded: Iterable[str] = ()) -> "SymbolicPointSet":
        return cls(fans=(CofiniteFan(base, excluded),))

    @cached_property
    def _single_set(self) -> frozenset[Point]:
        return frozenset(self.singles)

    @cached_property
    def _fan_map(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        """Base path -> excluded labels of the fan over that base."""
        return {fan.base.path: fan.excluded for fan in self.fans}

    def __contains__(self, p: Point) -> bool:
        if p in self._single_set:
            return True
        if not p.path:
            return False
        excluded = self._fan_map.get(p.path[:-1])
        return excluded is not None and p.path[-1] not in excluded

    @property
    def is_empty(self) -> bool:
        return not self.singles and not self.fans

    @property
    def is_finite(self) -> bool:
        return not self.fans

    def union(self, *others: "SymbolicPointSet") -> "SymbolicPointSet":
        singles = self.singles
        fans = self.fans
        for other in others:
            singles += other.singles
            fans += other.fans
        return SymbolicPointSet(singles, fans)

    def minus(self, points: Iterable[Point]) -> "SymbolicPointSet":
        """Remove finitely many points; fans grow their excluded label sets.

        A part of a known antichain is one too, and is recorded as one."""
        removed = set(_not_a_string(points))
        # parent path -> labels of the removed points above it
        by_parent = {}
        for p in removed:
            if p.path:
                by_parent.setdefault(p.path[:-1], []).append(p.path[-1])
        # a base path is read only at the level of some removed point's
        # parent: a closure-made base elsewhere builds no path
        levels = {len(path) for path in by_parent}
        singles = tuple(p for p in self.singles if p not in removed)
        # a fan over a base that no removed point lies above stays as it is;
        # no single lies above a fan base, so the parts stay canonical
        fans = tuple(
            CofiniteFan(fan.base, (*fan.excluded, *by_parent[fan.base.path]))
            if fan.base.level in levels and fan.base.path in by_parent
            else fan
            for fan in self.fans
        )
        result = SymbolicPointSet._canonical(singles, fans)
        return _antichain(result) if self.__dict__.get("_is_antichain") else result

    @cached_property
    def _member_below(self) -> dict[tuple[str, ...], bool]:
        """For the path of every single and every fan base: whether a member
        of the set, other than a single at that path, lies weakly below it.

        No single is a member of a fan, so for a single this is a member
        strictly below it.  In lexicographic order every path follows its
        prefixes, and the paths extending a prefix follow it contiguously,
        so one sweep with a stack of the prefixes of the current path sees,
        for each path, the deepest single or fan base below it.  Members
        below the path are then the members below that one, that one itself
        if it is a single, and the member of its fan that the path passes
        through.
        """
        singles = {p.path for p in self.singles}
        fans = self._fan_map
        below = {}
        stack = []
        for path in sorted(singles | fans.keys()):
            while stack and path[: len(stack[-1])] != stack[-1]:
                stack.pop()
            if stack:
                floor = stack[-1]
                excluded = fans.get(floor)
                below[path] = (
                    below[floor]
                    or floor in singles
                    or (excluded is not None and path[len(floor)] not in excluded)
                )
            else:
                below[path] = False
            stack.append(path)
        return below

    @cached_property
    def _is_antichain(self) -> bool:
        """The antichain fact: recorded by the builders of sets that are
        antichains by construction (see :func:`_antichain`), else read off
        the sweep."""
        below = self._member_below
        # a fan's base that is a single shares its path: then the sweep saw
        # fewer paths than the set has parts
        return len(below) == len(self.singles) + len(self.fans) and not any(below.values())

    def is_antichain(self) -> bool:
        """True iff no two distinct members of the set are comparable: no
        member lies below a single or a fan base, and no fan's base is a
        single."""
        return self._is_antichain

    def minimal_points(self) -> "SymbolicPointSet":
        """The members minimal under the containment order.

        A single survives unless some distinct member lies strictly below it;
        a fan survives unless some member lies weakly below its base (every
        point of the fan dominates the base, so one dominated member dooms
        the whole fan).  Parts kept in their order stay canonical.  An
        antichain is its own set of minimal points.
        """
        if self._is_antichain:
            return self
        below = self._member_below
        singles = tuple(p for p in self.singles if not below[p.path])
        fans = tuple(
            f
            for f in self.fans
            if not below[f.base.path]
            and not (self.singles and f.base in self._single_set)
        )
        return _antichain(SymbolicPointSet._canonical(singles, fans))

    def __str__(self) -> str:
        parts = [str(f) for f in self.fans]
        if self.singles:
            parts.append("{" + ", ".join(str(p) for p in self.singles) + "}")
        return " + ".join(parts) if parts else "{}"


def _antichain(s: SymbolicPointSet) -> SymbolicPointSet:
    """``s``, with its antichain fact recorded: its builder knows no two of
    its members are comparable, so the sweep never runs on it."""
    s.__dict__["_is_antichain"] = True
    return s
