"""Infinitely near points and symbolic point sets of the quadratic tree.

The quadratic tree of a 2-dimensional regular local ring D is the set of all
iterated local quadratic transforms of D, partially ordered by inclusion.
Every point dominates a unique point one level down, so a point is encoded by
the sequence of direction labels chosen along the unique chain from the root;
the root itself is the empty path.

Direction labels are opaque tokens.  The first neighborhood of a point is
parametrized by the closed points of a projective line over the residue
field; the reserved tokens ``X`` and ``Y`` name the two coordinate directions
used by the monomial backend, and any other token names some other direction.
The calculus assumes every first neighborhood is infinite (true whenever the
residue field is infinite) and never enumerates one; it only ever excludes
finitely many directions from one, which is what :class:`SymbolicPointSet`
makes representable.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable

from .errors import RootHasNoParent

X_DIR = "X"
Y_DIR = "Y"


def label_key(label: str) -> tuple[int, str]:
    """Sort key putting ``X`` first, ``Y`` second, other tokens alphabetically."""
    if label == X_DIR:
        return (0, "")
    if label == Y_DIR:
        return (1, "")
    return (2, label)


_BAD_LABEL = "direction labels must be nonempty strings"


def _is_int(value: object) -> bool:
    """An integer: bools, which Python counts as ints (and JSON's ``true``
    and ``false`` decode to), are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_labels(labels: Iterable[str]) -> None:
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValueError(_BAD_LABEL)


class FrozenValue:
    """An immutable value: equal to another of its class with equal fields.

    A subclass names its fields in ``_fields``; its ``__init__`` stores them
    with ``object.__setattr__`` or straight into the instance dict
    (:class:`Point` through its slots' own descriptors), since assignment
    and deletion are refused afterwards.
    Equality, hash and ``repr`` read only those fields, so caches kept
    beside them (``cached_property`` values, indexes, flags) never change
    the value.  Only :class:`Point` spells out ``__eq__`` and ``__hash__``,
    to hash its path once and keep that hash.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Point(FrozenValue):
    """A point of the quadratic tree, identified by its path from the root.

    Two points are equal iff their paths are equal; the ancestors of a point
    are exactly its path prefixes.  The hash is computed once, at
    construction, and the parent once, on first use.  A downward closure
    makes its points as a private subclass that builds path and hash on
    first read; a point of either kind equals the other kind on its path.
    """

    __slots__ = ("path", "_hash", "_parent")
    _fields = ("path",)

    def __init__(self, path: tuple[str, ...] = ()) -> None:
        _set_path(self, path)
        _set_parent(self, None)
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Point):
            return self.path == other.path
        return NotImplemented

    def __post_init__(self) -> None:
        path = self.path
        if not isinstance(path, tuple):
            path = tuple(path)
            _set_path(self, path)
        # checked here, not through _check_labels: points are made often
        for label in path:
            if not isinstance(label, str) or not label:
                raise ValueError(_BAD_LABEL)
        _set_hash(self, hash(path))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild from the path: the cached hash is valid only in this process
        return (Point, (self.path,))

    @classmethod
    def of(cls, *labels: str) -> "Point":
        return cls(tuple(labels))

    @property
    def level(self) -> int:
        return len(self.path)

    @property
    def is_root(self) -> bool:
        return not self.path

    @property
    def last_label(self) -> str:
        if self.is_root:
            raise RootHasNoParent("the root carries no incoming direction label")
        return self.path[-1]

    def parent(self) -> "Point":
        """The unique point this one dominates at the previous level."""
        parent = self._parent
        if parent is None:
            path = self.path
            if not path:
                raise RootHasNoParent("the root is not a quadratic transform of any point")
            parent = _trusted_point(path[:-1])
            _set_parent(self, parent)
        return parent

    def child(self, label: str) -> "Point":
        """The first-neighborhood point of this one in the given direction."""
        if not isinstance(label, str) or not label:
            raise ValueError(_BAD_LABEL)
        return _trusted_point(self.path + (label,), self)

    def chain(self) -> tuple["Point", ...]:
        """The unique chain from the root to this point, both ends included."""
        path = self.path
        return tuple(_trusted_point(path[:i]) for i in range(len(path) + 1))

    def leq(self, other: "Point") -> bool:
        """Containment order: true iff this path is a prefix of the other's."""
        path = self.path
        return other.path[: len(path)] == path

    def meet(self, other: "Point") -> "Point":
        """The maximal common ancestor (longest common path prefix)."""
        path = self.path
        return _trusted_point(path[: _common_prefix_length(path, other.path)])

    def sort_key(self) -> tuple:
        return (self.level, tuple(map(label_key, self.path)))

    def __str__(self) -> str:
        return "D" if self.is_root else ".".join(self.path)


def _common_prefix_length(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# Each slot is stored through its own descriptor: ``FrozenValue`` refuses
# assignment, and the descriptor is quicker than ``object.__setattr__``.
_new = object.__new__
_get_path = Point.path.__get__
_set_path = Point.path.__set__
_get_hash = Point._hash.__get__
_set_hash = Point._hash.__set__
_set_parent = Point._parent.__set__


def _trusted_point(path: tuple[str, ...], parent: Point | None = None) -> Point:
    """A point on a path whose labels are already known to be valid."""
    point = _new(Point)
    _set_path(point, path)
    _set_hash(point, hash(path))
    _set_parent(point, parent)
    return point


class _LinkedPoint(Point):
    """A point a downward closure made above its parent.

    It stores its parent, its last label and its level, and builds its path
    (from the nearest ancestor that has one) and its hash on first read, so
    a chain of length L holds L labels until every path in it is read.  It
    equals, hashes, orders, prints and pickles as the plain point on its
    path.
    """

    __slots__ = ("level", "last_label")
    is_root = False

    @property
    def path(self) -> tuple[str, ...]:
        path = _get_path(self)
        if path is None:
            labels = []
            p = self
            while (path := _get_path(p)) is None:
                labels.append(p.last_label)
                p = p._parent
            path += tuple(reversed(labels))
            _set_path(self, path)
        return path

    def __hash__(self) -> int:
        h = _get_hash(self)
        if h is None:
            h = hash(self.path)
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"Point(path={self.path!r})"


_set_level = _LinkedPoint.level.__set__
_set_label = _LinkedPoint.last_label.__set__


def _point_above(parent: Point, label: str, level: int) -> Point:
    """The point above ``parent`` in direction ``label``, at ``level``."""
    point = _new(_LinkedPoint)
    _set_path(point, None)
    _set_hash(point, None)
    _set_parent(point, parent)
    _set_level(point, level)
    _set_label(point, label)
    return point


ROOT = Point()


def sorted_points(points: Iterable[Point]) -> tuple[Point, ...]:
    """Points in canonical order: by level, then by path label order."""
    return tuple(sorted(points, key=Point.sort_key))


class OrderValuation(FrozenValue):
    """The order valuation of the regular local ring at a point.

    Order valuations are exactly the prime divisors of the second kind on the
    root ring; two of them are equal iff their centers are equal.
    """

    _fields = ("center",)

    def __init__(self, center: Point) -> None:
        object.__setattr__(self, "center", center)

    def __str__(self) -> str:
        return f"ord({self.center})"


class CofiniteFan(FrozenValue):
    """A first neighborhood minus finitely many directions.

    Represents Q1(base) with the listed direction labels removed.  Because
    first neighborhoods are infinite, a fan is always an infinite set.
    """

    _fields = ("base", "excluded")

    def __init__(self, base: Point, excluded: tuple[str, ...] = ()) -> None:
        excluded = tuple(excluded)
        _check_labels(excluded)
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
        fans: dict[tuple[str, ...], CofiniteFan] = {}
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
        singles: dict[tuple[str, ...], Point] = {}
        for p in self.singles:
            path = p.path
            fan = fans.get(path[:-1]) if path else None
            if fan is None:
                singles[path] = p
            elif path[-1] in fan.excluded:
                excluded = tuple(l for l in fan.excluded if l != path[-1])
                fans[path[:-1]] = CofiniteFan(fan.base, excluded)
        # ``Point.sort_key`` order, with each distinct label ranked once
        labels = sorted(set().union(*singles, *fans), key=label_key)
        rank = dict(zip(labels, range(len(labels)))).__getitem__

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
        return cls(singles=tuple(points))

    @classmethod
    def fan(cls, base: Point, excluded: Iterable[str] = ()) -> "SymbolicPointSet":
        return cls(fans=(CofiniteFan(base, tuple(excluded)),))

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
        """Remove finitely many points; fans grow their excluded label sets."""
        removed = set(points)
        # parent path -> labels of the removed points above it
        by_parent: dict[tuple[str, ...], list[str]] = {}
        for p in removed:
            if p.path:
                by_parent.setdefault(p.path[:-1], []).append(p.path[-1])
        # a base path is read only at the level of some removed point's
        # parent: a closure-made base elsewhere builds no path
        levels = {len(path) for path in by_parent}
        singles = tuple(p for p in self.singles if p not in removed)
        # a fan over a base that no removed point lies above stays as it is;
        # no single lies above a fan base, so the parts stay canonical, and
        # the labels a fan gains come from points, which checked them
        fans = tuple(
            _trusted_fan(
                fan.base,
                tuple(sorted({*fan.excluded, *by_parent[fan.base.path]}, key=label_key)),
            )
            if fan.base.level in levels and fan.base.path in by_parent
            else fan
            for fan in self.fans
        )
        return SymbolicPointSet._canonical(singles, fans)

    def is_subset(self, other: "SymbolicPointSet") -> bool:
        for fan in self.fans:
            cover = other._fan_map.get(fan.base.path)
            if cover is None or not set(cover) <= set(fan.excluded):
                return False
        return all(p in other for p in self.singles)

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
        below: dict[tuple[str, ...], bool] = {}
        stack: list[tuple[str, ...]] = []
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

    def is_antichain(self) -> bool:
        """True iff no two distinct members of the set are comparable: no
        member lies below a single or a fan base, and no fan's base is a
        single."""
        return not any(self._member_below.values()) and not any(
            f.base in self._single_set for f in self.fans
        )

    def minimal_points(self) -> "SymbolicPointSet":
        """The members minimal under the containment order.

        A single survives unless some distinct member lies strictly below it;
        a fan survives unless some member lies weakly below its base (every
        point of the fan dominates the base, so one dominated member dooms
        the whole fan).  Parts kept in their order stay canonical.
        """
        below = self._member_below
        singles = tuple(p for p in self.singles if not below[p.path])
        fans = tuple(
            f
            for f in self.fans
            if not below[f.base.path] and f.base not in self._single_set
        )
        return SymbolicPointSet._canonical(singles, fans)

    def __str__(self) -> str:
        parts = [str(f) for f in self.fans]
        if self.singles:
            parts.append("{" + ", ".join(str(p) for p in self.singles) + "}")
        return " + ".join(parts) if parts else "{}"
