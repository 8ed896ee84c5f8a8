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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import InvalidBasePoints, UnitIdeal
from .points import ROOT, OrderValuation, Point, label_key, sorted_points


def _last_label_key(p: Point) -> tuple[int, str]:
    return label_key(p.path[-1])


@dataclass(frozen=True)
class BasePointSet:
    """A finite, rooted, downward-closed set of points.

    Base-point sets of m-primary ideals always contain the root and are
    closed under taking parents; this class enforces both.  Construction
    also builds the index every query reads: the members above each member,
    keyed by path, and the members in canonical order.
    """

    points: frozenset[Point]

    def __post_init__(self) -> None:
        pts = frozenset(self.points)
        object.__setattr__(self, "points", pts)
        children: dict[tuple[str, ...], list[Point]] = {p.path: [] for p in pts}
        if () not in children:
            raise InvalidBasePoints("a base-point set must contain the root")
        for p in pts:
            if p.path:
                siblings = children.get(p.path[:-1])
                if siblings is None:
                    raise InvalidBasePoints(
                        f"{p} is present but its parent {p.parent()} is not"
                    )
                siblings.append(p)
        # breadth first with children in label order is the canonical order:
        # by level, then by the labels along the path
        order = [ROOT]
        for p in order:
            siblings = children[p.path]
            siblings.sort(key=_last_label_key)
            order.extend(siblings)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_order", tuple(order))

    @classmethod
    def of(cls, points: Iterable[Point]) -> "BasePointSet":
        return cls(frozenset(points))

    @classmethod
    def downward_closure(cls, points: Iterable[Point]) -> "BasePointSet":
        closed: set[Point] = {ROOT}
        for p in points:
            # stop at the first ancestor already in: its chain is in too
            while p not in closed:
                closed.add(p)
                p = p.parent()
        return cls(frozenset(closed))

    def __contains__(self, p: Point) -> bool:
        return p in self.points

    def __iter__(self) -> Iterator[Point]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self.points)

    def sorted(self) -> tuple[Point, ...]:
        return self._order

    def terminals(self) -> tuple[Point, ...]:
        """The maximal elements under the containment order."""
        children = self._children
        return tuple(p for p in self._order if not children[p.path])

    def child_labels(self, base: Point) -> tuple[str, ...]:
        """Labels of the members sitting directly above ``base``, in label order."""
        return tuple(p.path[-1] for p in self._children.get(base.path, ()))

    def union(self, other: "BasePointSet") -> "BasePointSet":
        return BasePointSet(self.points | other.points)

    def __str__(self) -> str:
        return "{" + ", ".join(str(p) for p in self._order) + "}"


@dataclass(frozen=True)
class CompleteIdeal:
    """A complete m-primary ideal, stored as its simple factor multiset.

    ``factors`` maps each distinct factor point to a positive multiplicity
    and is kept in canonical point order.  The empty product is the unit
    ideal.
    """

    factors: tuple[tuple[Point, int], ...] = ()

    def __post_init__(self) -> None:
        counts: Counter[Point] = Counter()
        for point, mult in self.factors:
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

    def multiplicity(self, point: Point) -> int:
        return dict(self.factors).get(point, 0)

    def _require_proper(self) -> None:
        if self.is_unit:
            raise UnitIdeal("the unit ideal is not m-primary")

    def multiply(self, other: "CompleteIdeal") -> "CompleteIdeal":
        """Ideal product: multiset union of the factor multisets."""
        return CompleteIdeal(self.factors + other.factors)

    def __mul__(self, other: "CompleteIdeal") -> "CompleteIdeal":
        return self.multiply(other)

    def power(self, k: int) -> "CompleteIdeal":
        if k < 1:
            raise ValueError("only positive powers are meaningful here")
        return CompleteIdeal(tuple((p, m * k) for p, m in self.factors))

    def base_points(self) -> BasePointSet:
        """All points where some transform of the ideal stays proper.

        For a product this is the union over the distinct factor points of
        their chains from the root, hence always rooted and downward closed.
        """
        self._require_proper()
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
        all base points, which is what makes the blowup nonsingular.
        """
        self._require_proper()
        return set(self.support) == self.base_points().points

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
