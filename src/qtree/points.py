"""Infinitely near points of the quadratic tree.

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
finitely many directions from one.  Sets of points built that way live in
:mod:`qtree.pointsets`.
"""

from __future__ import annotations

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
# a string is a sequence too, but of one-letter labels nobody meant
_BARE_STRING = "labels come as a sequence of strings, not as one string"


def _not_a_string(values):
    """``values``, refused when it is one string rather than a sequence."""
    if isinstance(values, str):
        raise ValueError(_BARE_STRING)
    return values


def _labels(labels):
    """``labels`` as a tuple (a tuple as it is), refused unless it is a
    sequence of nonempty strings."""
    if not isinstance(labels, tuple):
        labels = tuple(_not_a_string(labels))
    try:
        "".join(labels)  # refuses a label that is not a string, in C
        if "" not in labels:
            return labels
    except TypeError:
        pass
    raise ValueError(_BAD_LABEL)


def _label_rank(paths):
    """The rank in label order of each label on ``paths``: ``label_key``
    is applied once per distinct label, not once per label of a path."""
    labels = sorted(set().union(*paths), key=label_key)
    return dict(zip(labels, range(len(labels)))).__getitem__


def _is_int(value: object) -> bool:
    """An integer: bools, which Python counts as ints (and JSON's ``true``
    and ``false`` decode to), are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


class FrozenValue:
    """An immutable value: equal to another of its class with equal fields.

    A subclass names its fields in ``_fields``; its ``__init__`` stores them
    with ``object.__setattr__`` or straight into the instance dict, since
    assignment and deletion are refused afterwards.  The values made once
    per member of a set or per valuation, :class:`Point`,
    :class:`~qtree.pointsets.CofiniteFan` and
    :class:`~qtree.monomial.MonomialValuation`, keep their fields in
    ``__slots__`` instead, stored through the slots' own descriptors: no
    instance dict per value, so fewer objects for the garbage collector to
    track, and a ``__reduce__`` that pickles and copies each by re-running
    its constructor.
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
        path = _labels(self.path)
        _set_path(self, path)
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
        return _trusted_point(self.path + _labels((label,)), self)

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


def _points_above(parent: Point, path: tuple[str, ...], level: int) -> list[Point]:
    """The points of ``path`` strictly between ``parent``, at ``level``,
    and the end of ``path``, in order up the chain: one call makes the run."""
    run = []
    for label in path[level : len(path) - 1]:
        level += 1
        point = _new(_LinkedPoint)
        _set_path(point, None)
        _set_hash(point, None)
        _set_parent(point, parent)
        _set_level(point, level)
        _set_label(point, label)
        run.append(point)
        parent = point
    return run


ROOT = Point()


def sorted_points(points: Iterable[Point]) -> tuple[Point, ...]:
    """Points in canonical order: by level, then by path label order."""
    points = tuple(points)
    if len(points) < 2:
        return points
    rank = _label_rank(p.path for p in points)
    return tuple(sorted(points, key=lambda p: (p.level, tuple(map(rank, p.path)))))


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


# the point sets live in ``pointsets``, which only the callers that build a
# set load; callers that read them here get them too, each stored on first
# read so that a caller reading one per fan does a plain lookup after that
_MOVED = ("CofiniteFan", "SymbolicPointSet")


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pointsets

    value = globals()[name] = getattr(pointsets, name)
    return value
