"""Classification of intersections of closed points of a nonsingular model.

A descriptor names a subset of the closed points of a nonsingular projective
model, together with a flag recording whether the ambient ring is Henselian.
The intersection of the named local rings is always a normal Noetherian
domain whose maximal ideals have height two; the classifier reports how many
maximal ideals it has and whether the representation is irredundant (no
member can be dropped) and essential (every member is a localization of the
intersection).

Verdicts are three-valued.  YES and NO are returned only on the families
where the facts are theorems: finite pairwise-incomparable families,
subsets of a single first neighborhood, and arbitrary incomparable families
over a Henselian base.  Everything else is reported UNKNOWN rather than
guessed, with a one-line statement of the nearest applicable fact.
"""

from __future__ import annotations

from enum import Enum
from typing import Union

from .errors import InvalidDescriptor
from .models import NonsingularModel
from .points import ROOT, CofiniteFan, FrozenValue, Point, SymbolicPointSet, X_DIR, Y_DIR


class Verdict(str, Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


INFINITE = "INFINITE"

_NOETHERIAN_BASIS = (
    "an intersection of closed points of a nonsingular projective model is a "
    "normal Noetherian domain with all maximal ideals of height 2"
)


class IntersectionDescriptor(FrozenValue):
    """A subset of the closed points of a nonsingular model.

    Validity is checked atom by atom: every fan must be based at a base
    point of the model, and every single must be a closed point of it.
    """

    _fields = ("model", "subset", "henselian")

    def __init__(
        self, model: NonsingularModel, subset: SymbolicPointSet, henselian: bool = False
    ) -> None:
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "henselian", henselian)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.subset.is_empty:
            raise InvalidDescriptor("the subset must name at least one point")
        for fan in self.subset.fans:
            if fan.base not in self.model.base:
                raise InvalidDescriptor(
                    f"fan base {fan.base} is not a base point of the model"
                )
        for p in self.subset.singles:
            if not self.model.contains_point(p):
                raise InvalidDescriptor(f"{p} is not a closed point of the model")


class Classification(FrozenValue):
    """Verdicts for one descriptor, each with a one-line justification.

    An intersection of closed points is always Noetherian, so that verdict
    and its basis are constants of the class, kept among the fields.
    """

    _fields = (
        "maximal_ideal_count",
        "count_basis",
        "irredundant",
        "irredundant_basis",
        "essential",
        "essential_basis",
        "noetherian",
        "noetherian_basis",
        "ring_point",
        "singularity",
    )
    noetherian = True
    noetherian_basis = _NOETHERIAN_BASIS

    def __init__(
        self,
        maximal_ideal_count: Union[int, str],
        count_basis: str,
        irredundant: Verdict,
        irredundant_basis: str,
        essential: Verdict,
        essential_basis: str,
        ring_point: Point | None = None,
        singularity: str | None = None,
    ) -> None:
        object.__setattr__(self, "maximal_ideal_count", maximal_ideal_count)
        object.__setattr__(self, "count_basis", count_basis)
        object.__setattr__(self, "irredundant", irredundant)
        object.__setattr__(self, "irredundant_basis", irredundant_basis)
        object.__setattr__(self, "essential", essential)
        object.__setattr__(self, "essential_basis", essential_basis)
        object.__setattr__(self, "ring_point", ring_point)
        object.__setattr__(self, "singularity", singularity)


def _single_fan(subset: SymbolicPointSet):
    if len(subset.fans) == 1 and not subset.singles:
        return subset.fans[0]
    return None


# Named examples, not a criterion: name -> (model base set, subset).  A
# descriptor is named only when its base set and subset equal an entry's, so
# an equivalent descriptor written over another model gets no name.
_NAMED_SINGULARITIES = {
    "ordinary double point": (
        frozenset({ROOT, Point.of(Y_DIR)}),
        SymbolicPointSet((Point.of(Y_DIR, X_DIR),), (CofiniteFan(ROOT, (Y_DIR,)),)),
    ),
}


def classify(d: IntersectionDescriptor) -> Classification:
    """Count maximal ideals and judge irredundance and essentiality.

    ``singularity`` is looked up in a table of named examples, not derived:
    it is set only for a descriptor equal to one of them.
    """
    subset = d.subset
    antichain = subset.is_antichain()
    fan = _single_fan(subset)

    if subset.is_finite:
        n = len(subset.singles)
        count: Union[int, str] = n
        count_basis = (
            f"a finite family of {n} pairwise incomparable points intersects to a "
            f"semilocal regular ring with exactly {n} maximal ideals"
        )
    else:
        count = INFINITE
        count_basis = (
            "a cofinite first-neighborhood fan contributes one maximal ideal "
            "per member, and first neighborhoods are infinite"
        )

    if not antichain:
        irredundant = Verdict.NO
        irredundant_basis = (
            "the subset has comparable members; every non-minimal member "
            "contains a minimal one and can be dropped without changing the "
            "intersection"
        )
    elif subset.is_finite:
        irredundant = Verdict.YES
        irredundant_basis = (
            "each member of a finite incomparable family is the localization "
            "of the intersection at one of its maximal ideals, so none can be "
            "dropped"
        )
    elif fan is not None:
        irredundant = Verdict.YES
        if fan.base.is_root and not fan.excluded:
            irredundant_basis = (
                "the full first neighborhood of the root represents the root "
                "ring irredundantly"
            )
        else:
            irredundant_basis = (
                "a subset of a single first neighborhood is an irredundant "
                "representation of its intersection"
            )
    elif d.henselian:
        irredundant = Verdict.YES
        irredundant_basis = (
            "over a Henselian base, every family of pairwise incomparable "
            "points intersects irredundantly"
        )
    else:
        irredundant = Verdict.UNKNOWN
        irredundant_basis = (
            "irredundance of general infinite families over a non-Henselian "
            "base is outside the implemented criteria"
        )

    ring_point: Point | None = None
    if subset.is_finite:
        essential = Verdict.YES
        essential_basis = (
            "each member of a finite incomparable family is a localization of "
            "the intersection"
        )
    elif fan is not None and not fan.excluded:
        essential = Verdict.NO
        ring_point = fan.base
        essential_basis = (
            "a full first neighborhood intersects to the point beneath it, "
            "and no member is a localization of that local ring"
        )
    elif fan is not None:
        essential = Verdict.YES
        essential_basis = (
            "a proper cofinite subset of a first neighborhood is an essential "
            "representation of its intersection"
        )
    else:
        essential = Verdict.UNKNOWN
        essential_basis = (
            "essentiality of mixed infinite families is outside the "
            "implemented criteria"
        )

    singularity = None
    for name, (base, named) in _NAMED_SINGULARITIES.items():
        if d.model.base.points == base and subset == named:
            singularity = name

    return Classification(
        maximal_ideal_count=count,
        count_basis=count_basis,
        irredundant=irredundant,
        irredundant_basis=irredundant_basis,
        essential=essential,
        essential_basis=essential_basis,
        ring_point=ring_point,
        singularity=singularity,
    )


def _common_floor(subset: SymbolicPointSet) -> Point:
    """The deepest point lying below every member of the subset.

    Every member of a fan dominates the fan's base and every single
    dominates itself, so the meet of those floors is contained in each
    member.
    """
    floors = [f.base for f in subset.fans] + list(subset.singles)
    floor = floors[0]
    for p in floors[1:]:
        floor = floor.meet(p)
    return floor


def is_complete_representation(d: IntersectionDescriptor) -> Verdict:
    """Does the subset intersect all the way down to the root ring?

    The full closed-point set of any model does.  A subset whose members
    all contain one fixed non-root point intersects to something at least
    that large, so it provably does not; neither do proper subsets over a
    Henselian base, or inside the first neighborhood of the root.  Other
    cases are left undecided.
    """
    closed = d.model.closed_points()
    subset = d.subset
    if subset == closed:
        return Verdict.YES
    if not _common_floor(subset).is_root:
        return Verdict.NO
    if d.henselian and subset.is_subset(closed):
        return Verdict.NO
    root_fan = SymbolicPointSet.fan(ROOT)
    if subset.is_subset(root_fan) and subset != root_fan:
        return Verdict.NO
    return Verdict.UNKNOWN


def represents_same_ring(
    a: IntersectionDescriptor, b: IntersectionDescriptor
) -> bool:
    """Whether two descriptors name the same ring, up to what the calculus
    can see.

    Non-minimal members never change an intersection, so the ring is known
    by the minimal-point set together with the completeness verdict.
    """
    return a.subset.minimal_points() == b.subset.minimal_points() and (
        is_complete_representation(a) == is_complete_representation(b)
    )
