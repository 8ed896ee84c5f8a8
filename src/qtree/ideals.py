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
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import InvalidBasePoints, UnitIdeal
from .points import (
    ROOT,
    FrozenValue,
    OrderValuation,
    Point,
    _common_prefix_length,
    _is_int,
    _point_above,
    label_key,
    sorted_points,
)


_path = attrgetter("path")


def _label_key(node: tuple[Point, str, list]) -> tuple[int, str]:
    return label_key(node[1])


class BasePointSet(FrozenValue):
    """A finite, rooted, downward-closed set of points.

    Base-point sets of m-primary ideals always contain the root and are
    closed under taking parents; this class enforces both.  Construction
    also builds the index every query reads: one node per member, holding
    the member, its last label and the nodes of the members directly above
    it, and the nodes in canonical order.
    """

    _fields = ("points",)

    def __init__(self, points: frozenset[Point]) -> None:
        object.__setattr__(self, "points", frozenset(points))
        self.__post_init__()

    def __reduce__(self):
        # the index is rebuilt from the points, never pickled
        return (BasePointSet, (self.points,))

    def __post_init__(self) -> None:
        # a downward closure hands over its index already linked
        root = self.__dict__.pop("_root", None)
        if root is None:
            root = self._link()
        # breadth first with children in label order is the canonical order:
        # by level, then by the labels along the path
        nodes = [root]
        for _, _, above in nodes:
            if len(above) > 1:
                above.sort(key=_label_key)
            nodes.extend(above)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_order", tuple(map(itemgetter(0), nodes)))

    def _link(self) -> tuple[Point, None, list]:
        """The root node of the index of ``points``, every node linked to
        its parent's."""
        table = {p.path: (p, []) for p in self.points}
        root = table.get(())
        if root is None:
            raise InvalidBasePoints("a base-point set must contain the root")
        for path, (p, above) in table.items():
            if path:
                parent = table.get(path[:-1])
                if parent is None:
                    raise InvalidBasePoints(
                        f"{p} is present but its parent {p.parent()} is not"
                    )
                parent[1].append((p, path[-1], above))
        return (root[0], None, root[1])

    @cached_property
    def points(self) -> frozenset[Point]:
        # a downward closure's members, hashed only when first read
        return frozenset(self._order)

    @classmethod
    def of(cls, points: Iterable[Point]) -> "BasePointSet":
        return cls(frozenset(points))

    @classmethod
    def downward_closure(cls, points: Iterable[Point]) -> "BasePointSet":
        """The given points and every point below them.

        In path order the longest prefix of a point already in the closure
        is the one it shares with the point before it, so the chain above
        that prefix is made once, each new point from its parent: no point
        is hashed and no membership tested.  The points made this way build
        their paths only when read.
        """
        root = (ROOT, None, [])
        chain = [root]  # the nodes along the previous point's path
        last: tuple[str, ...] = ()
        for p in sorted(points, key=_path):
            path = p.path
            n = len(last)
            if path[:n] != last:
                n = _common_prefix_length(last, path)
            elif n == len(path):
                continue  # the previous point again
            del chain[n + 1 :]
            node = chain[n]
            for level in range(n + 1, len(path) + 1):
                label = path[level - 1]
                q = p if level == len(path) else _point_above(node[0], label, level)
                child = (q, label, [])
                node[2].append(child)
                chain.append(child)
                node = child
            last = path
        base = object.__new__(cls)
        base.__dict__["_root"] = root
        base.__post_init__()
        return base

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def sorted(self) -> tuple[Point, ...]:
        return self._order

    def terminals(self) -> tuple[Point, ...]:
        """The maximal elements under the containment order."""
        return tuple(p for p, _, above in self._nodes if not above)

    def labels_above(self) -> Iterator[tuple[Point, tuple[str, ...]]]:
        """Each member in canonical order, with the labels of the members
        directly above it, in label order."""
        for p, _, above in self._nodes:
            yield p, tuple(node[1] for node in above) if above else ()

    def union(self, other: "BasePointSet") -> "BasePointSet":
        return BasePointSet(self.points | other.points)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self._order) + "}"


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
        ideal.__dict__["factors"] = tuple((p, 1) for p in base.sorted())
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
        return cls(tuple((p, 1) for p in factors))

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
