"""Nonsingular projective models over the root ring.

A nonsingular projective model is the blowup of a saturated complete
m-primary ideal, and it is determined by the ideal's base-point set alone.
Models are therefore identified here with rooted downward-closed base-point
sets; their closed points are derived symbolically as a union of cofinite
first-neighborhood fans, one per base point, each missing the directions
that lead to further base points.

Domination between nonsingular models is base-set containment, the join of
two models is the model of the product ideal (base-set union), and the
minimal desingularization of the blowup of an arbitrary complete ideal is
the blowup of its saturation.
"""

from __future__ import annotations

from itertools import starmap
from typing import TYPE_CHECKING, Iterable

from .errors import EmptyInput, NotAntichain, NotSaturated, RootNotAllowed, UnitIdeal
from .ideals import BasePointSet, CompleteIdeal
from .points import FrozenValue, Point, _not_a_string

if TYPE_CHECKING:
    from .pointsets import SymbolicPointSet


class NonsingularModel(FrozenValue):
    """A nonsingular projective model, identified by its base-point set."""

    _fields = ("base",)

    def __init__(self, base: BasePointSet) -> None:
        object.__setattr__(self, "base", base)

    def closed_points(self) -> SymbolicPointSet:
        """The closed points: each base point contributes its first
        neighborhood minus the directions leading to further base points.

        A point q is a closed point iff its parent is a base point and q
        itself is not, so no closed point lies below another: the set is
        recorded as an antichain.
        """
        from .pointsets import SymbolicPointSet, _antichain, _trusted_fan

        # one fan per member, in canonical order, its labels in label order
        fans = tuple(starmap(_trusted_fan, self.base.labels_above()))
        return _antichain(SymbolicPointSet._canonical((), fans))

    def contains_point(self, q: Point) -> bool:
        return not q.is_root and q.parent() in self.base and q not in self.base

    def dominates(self, other: "NonsingularModel") -> bool:
        """True iff this model's base set contains the other's: their union
        is no larger."""
        return len(self.base.union(other.base)) == len(self.base)

    def join(self, other: "NonsingularModel") -> "NonsingularModel":
        """The least model dominating both, realized by the product ideal."""
        return NonsingularModel(self.base.union(other.base))

    def ideal(self) -> CompleteIdeal:
        """The canonical saturated ideal whose blowup this model is."""
        return CompleteIdeal.saturated(self.base)

    def __str__(self) -> str:
        """The base points, then the terminal ones: ``base: {D, Y}`` over
        ``terminal: {Y}``."""
        terminal = ", ".join(map(str, self.base.terminals()))
        return f"base: {self.base}\nterminal: {{{terminal}}}"


def model_from_ideal(ideal: CompleteIdeal) -> NonsingularModel:
    """The blowup of a saturated complete ideal."""
    model = minimal_desingularization(ideal)
    if not ideal.is_saturated():
        raise NotSaturated(
            "the blowup of an unsaturated ideal is singular; saturate first"
        )
    return model


def minimal_desingularization(ideal: CompleteIdeal) -> NonsingularModel:
    """The minimal desingularization of the blowup of a complete ideal.

    This is the blowup of the saturation, which has the same base points as
    the original ideal, so the model is read off those base points.
    """
    if ideal.is_unit:
        raise UnitIdeal("the unit ideal defines no projective model")
    return NonsingularModel(ideal.base_points())


def _validated_antichain(points: Iterable[Point]) -> tuple[Point, ...]:
    from .pointsets import SymbolicPointSet

    pts = tuple(_not_a_string(points))
    if not pts:
        raise EmptyInput("at least one point is required")
    if any(p.is_root for p in pts):
        raise RootNotAllowed("the root lies on no projective model over itself")
    antichain = SymbolicPointSet.of_points(pts)
    # a point listed twice is comparable to itself
    if len(antichain.singles) != len(pts) or not antichain.is_antichain():
        raise NotAntichain("the points must be pairwise incomparable")
    return antichain.singles


def minimal_model_containing(points: Iterable[Point]) -> NonsingularModel:
    """The least nonsingular model carrying every given point as a closed point.

    Its base set is the union of the chains to the parents of the given
    points; every model containing all the points has a base set containing
    this one.
    """
    pts = _validated_antichain(points)
    return NonsingularModel(BasePointSet.downward_closure(p.parent() for p in pts))


def minimal_incomparable_set(points: Iterable[Point]) -> SymbolicPointSet:
    """The points minimal with respect to being incomparable to all the given ones.

    Computed as the closed points of the minimal model containing the given
    antichain, minus the antichain itself.
    """
    pts = tuple(_not_a_string(points))
    return minimal_model_containing(pts).closed_points().minus(pts)
