"""Complete m-primary ideals as multisets of simple factors.

Every nonzero complete m-primary ideal of a 2-dimensional regular local ring
factors uniquely into simple complete ideals, and the simple complete ideals
are in bijection with the points of the quadratic tree through their unique
Rees valuation.  This module therefore represents a complete ideal purely by
its factor multiset ``point -> multiplicity`` and never materializes
generators; the monomial backend is the place where generators live.

The empty multiset stands for the unit ideal.  It is the identity of
multiplication and is rejected by every other operation, since the calculus
concerns m-primary ideals only.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import accumulate, compress, pairwise, repeat, starmap
from operator import attrgetter, not_
from typing import Iterable, Iterator, Mapping

from .errors import UnitIdeal
from .points import (
    ROOT,
    FrozenValue,
    OrderValuation,
    Point,
    _common_prefix_length,
    _is_int,
    _label_rank,
    _not_a_string,
    _points_above,
    sorted_points,
)


_path = attrgetter("path")
# the names of a base set's flat index (see :class:`BasePointSet`)
_INDEX = ("_members", "_labels", "_counts")


def _closed(points):
    """The flat index of the downward closure of ``points`` (see
    :class:`BasePointSet`).

    The points are walked in path order, labels compared in label order,
    where the longest prefix of a point already in the closure is the one
    it shares with the point before it.  So the chain above that prefix is
    made once, in one call, each new point above its parent: no point is
    hashed and no membership tested, and the points made build their paths
    only when read.  The walk meets the members depth first, the members
    above each in label order, so their canonical order is that order
    sorted by level.
    """
    points = [ROOT, *points]
    rank = _label_rank(map(_path, points))
    points.sort(key=lambda p: tuple(map(rank, p.path)))
    members, labels, levels, counts = [ROOT], [None], [0], [0]
    along, last = [0], ()  # the indices of the members on the last path, and it
    for p in points:
        path = p.path
        n = len(last)
        if path[:n] != last:
            n = _common_prefix_length(last, path)
        elif n == len(path):
            continue  # the previous point again
        del along[n + 1 :]
        counts[along[n]] += 1
        along += range(len(members), len(members) + len(path) - n)
        run = _points_above(members[along[n]], path, n)
        members += run
        counts += [1] * len(run)
        members.append(p)
        counts.append(0)
        labels += path[n:]
        levels += range(n + 1, len(path) + 1)
        last = path
    order = sorted(range(len(members)), key=levels.__getitem__)
    return tuple(tuple(map(column.__getitem__, order)) for column in (members, labels, counts))


class BasePointSet(FrozenValue):
    """A finite, rooted, downward-closed set of points.

    Base-point sets of m-primary ideals always contain the root and are
    closed under taking parents; this class enforces both.  Construction
    builds the flat index every query reads, three tuples: ``_members`` in
    canonical order, ``_labels``, each member's last label, and ``_counts``,
    the number of members directly above each, whose run follows those of
    the members before it.  A downward closure builds it here, a set of
    given points in :mod:`qtree.baseindex` and a union in
    :mod:`qtree.baseunion`, each loaded when first needed.  All three lay a
    set out alike, so ``_labels`` and ``_counts`` are the value: equality
    and hash cost O(members) and build no path.  ``points``, the member set
    ``in`` reads, is the given frozenset or is hashed on first read.
    """

    _fields = ("_labels", "_counts")

    def __init__(self, points: frozenset[Point]) -> None:
        self.__dict__["points"] = frozenset(points)
        self.__post_init__()

    def __reduce__(self):
        # the index is rebuilt from the points, never pickled
        return (BasePointSet, (self.points,))

    def __post_init__(self) -> None:
        # a downward closure and a union hand over their index already built
        if "_members" not in self.__dict__:
            from .baseindex import linked

            self.__dict__.update(zip(_INDEX, linked(self.points)))

    @classmethod
    def _indexed(cls, index) -> "BasePointSet":
        base = object.__new__(cls)
        base.__dict__.update(zip(_INDEX, index))
        base.__post_init__()
        return base

    @cached_property
    def points(self) -> frozenset[Point]:
        return frozenset(self._members)

    @classmethod
    def of(cls, points: Iterable[Point]) -> "BasePointSet":
        return cls(_not_a_string(points))

    @classmethod
    def downward_closure(cls, points: Iterable[Point]) -> "BasePointSet":
        """The given points and every point below them; the points it makes
        build their paths only when read."""
        return cls._indexed(_closed(points))

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def sorted(self) -> tuple[Point, ...]:
        return self._members

    def terminals(self) -> tuple[Point, ...]:
        """The maximal elements under the containment order."""
        return tuple(compress(self._members, map(not_, self._counts)))

    def labels_above(self) -> Iterator[tuple[Point, tuple[str, ...]]]:
        """Each member in canonical order, with the labels of the members
        directly above it, in label order."""
        # the i-th member's run of labels ends where the next one's starts
        runs = starmap(slice, pairwise(accumulate(self._counts, initial=1)))
        return zip(self._members, map(self._labels.__getitem__, runs))

    def union(self, other: "BasePointSet") -> "BasePointSet":
        from .baseunion import merged

        return BasePointSet._indexed(merged(self, other))

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self._members)) + "}"


class CompleteIdeal(FrozenValue):
    """A complete m-primary ideal, stored as its simple factor multiset.

    ``factors`` maps each distinct factor point to a positive multiplicity
    and is kept in canonical point order.  The empty product is the unit
    ideal.
    """

    _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[Point, int], ...] = ()) -> None:
        object.__setattr__(self, "factors", factors)
        self.__post_init__()

    def __post_init__(self) -> None:
        counts: Counter[Point] = Counter()
        for point, mult in self.factors:
            if not isinstance(point, Point):
                raise ValueError("ideal factors must be points")
            if not _is_int(mult):
                raise ValueError("factor multiplicities must be integers")
            if mult < 1:
                raise ValueError("factor multiplicities must be positive")
            counts[point] += mult
        canonical = tuple((p, counts[p]) for p in sorted_points(counts))
        object.__setattr__(self, "factors", canonical)

    @classmethod
    def unit(cls) -> "CompleteIdeal":
        return cls()

    @classmethod
    def saturated(cls, base: BasePointSet) -> "CompleteIdeal":
        """The canonical saturated ideal with the given base points: each
        base point once, already in canonical order."""
        ideal = object.__new__(cls)
        ideal.__dict__["factors"] = tuple(zip(base.sorted(), repeat(1)))
        # its base set is ``base`` itself
        ideal.__dict__["_base_points"] = base
        return ideal

    @classmethod
    def simple(cls, point: Point, mult: int = 1) -> "CompleteIdeal":
        return cls(((point, mult),))

    @classmethod
    def of(cls, factors: Mapping[Point, int] | Iterable[Point]) -> "CompleteIdeal":
        if isinstance(factors, Mapping):
            return cls(tuple(factors.items()))
        return cls(tuple((p, 1) for p in _not_a_string(factors)))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    @cached_property
    def support(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.factors)

    def _require_proper(self) -> None:
        if self.is_unit:
            raise UnitIdeal("the unit ideal is not m-primary")

    def __mul__(self, other: "CompleteIdeal") -> "CompleteIdeal":
        """Ideal product: multiset union of the factor multisets."""
        return CompleteIdeal(self.factors + other.factors)

    def power(self, k: int) -> "CompleteIdeal":
        if not _is_int(k):
            raise ValueError("powers must be integers")
        if k < 1:
            raise ValueError("only positive powers are meaningful here")
        return CompleteIdeal(tuple((p, m * k) for p, m in self.factors))

    def base_points(self) -> BasePointSet:
        """All points where some transform of the ideal stays proper.

        For a product this is the union over the distinct factor points of
        their chains from the root, hence always rooted and downward closed.
        """
        self._require_proper()
        return self._base_points

    @cached_property
    def _base_points(self) -> BasePointSet:
        # built once per value: saturation, terminal base points and the
        # saturation test all read it
        return BasePointSet.downward_closure(self.support)

    def terminal_base_points(self) -> tuple[Point, ...]:
        self._require_proper()
        return self.base_points().terminals()

    def rees_valuations(self) -> frozenset[OrderValuation]:
        """The order valuations at the distinct factor points."""
        self._require_proper()
        return frozenset(OrderValuation(p) for p in self.support)

    def is_saturated(self) -> bool:
        """True iff the factor support is itself a rooted downward-closed set.

        Equivalently: the Rees valuations are exactly the order valuations of
        all base points, which is what makes the blowup nonsingular.  The
        distinct factor points lie in the base set, their downward closure,
        so they fill it exactly when they are as many.
        """
        self._require_proper()
        return len(self.factors) == len(self.base_points())

    def saturate(self) -> "CompleteIdeal":
        """The canonical saturated ideal with the same base points.

        Adjoins, for each factor, the simple ideals of every point on its
        chain; the result carries each base point with multiplicity one,
        which is the canonical representative since blowups are insensitive
        to repeated factors.
        """
        self._require_proper()
        return CompleteIdeal.saturated(self.base_points())

    def __str__(self) -> str:
        if self.is_unit:
            return "(1)"
        return " * ".join(
            f"{p}" if m == 1 else f"{p}^{m}" for p, m in self.factors
        )
