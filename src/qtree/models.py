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

from itertools import pairwise, starmap
from operator import itemgetter
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
        itself is not.
        """
        return _fans(self.base.labels_above())

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


def _fans(labels_above) -> SymbolicPointSet:
    """One fan over each member of a base set given, in the order given,
    missing the labels given with it: those of the members directly above
    it, in label order (see :meth:`BasePointSet.labels_above`).

    A point of such a fan lies outside the base set, so below no point of
    another fan: the set is recorded as an antichain.
    """
    from .pointsets import SymbolicPointSet, _antichain, _trusted_fan

    fans = tuple(starmap(_trusted_fan, labels_above))
    return _antichain(SymbolicPointSet._canonical((), fans))


def _validated_antichain(points: Iterable[Point]) -> tuple[Point, ...]:
    pts = tuple(_not_a_string(points))
    if not pts:
        raise EmptyInput("at least one point is required")
    if any(p.is_root for p in pts):
        raise RootNotAllowed("the root lies on no projective model over itself")
    # in path order the paths extending a path follow it at once, so a point
    # lies weakly below another iff it does below the next; a point listed
    # twice is comparable to itself
    if any(b[: len(a)] == a for a, b in pairwise(sorted(p.path for p in pts))):
        raise NotAntichain("the points must be pairwise incomparable")
    return pts


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

    A point is one iff it lies outside the downward closure of the antichain
    and its parent is a member of that closure but not a given point.  The
    given points are the closure's terminals, so the set is one fan over
    each member with members directly above it, missing their labels.
    """
    closure = BasePointSet.downward_closure(_validated_antichain(points))
    return _fans(filter(itemgetter(1), closure.labels_above()))
