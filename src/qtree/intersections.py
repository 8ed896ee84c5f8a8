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

from .errors import InvalidDescriptor
from .models import NonsingularModel
from .points import ROOT, FrozenValue, Point, X_DIR, Y_DIR
from .pointsets import CofiniteFan, SymbolicPointSet, _antichain


class Verdict(str, Enum):
    YES = "YES"
    NO = "NO"
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:
        return self.value


INFINITE = "INFINITE"


def _henselian_flag(flag: object) -> bool:
    """``flag`` as a descriptor's Henselian flag, which only a bool is."""
    if not isinstance(flag, bool):
        raise ValueError("henselian must be a boolean")
    return flag


class IntersectionDescriptor(FrozenValue):
    """A subset of the closed points of a nonsingular model.

    The Henselian flag must be a bool.  Validity is checked atom by atom:
    every fan must be based at a base point of the model and exclude the
    labels of the base points directly above its base, and every single
    must be a closed point of it.  The check walks the fans and the model's
    base points together, both in canonical order, and records two facts.
    The subset lies inside the closed points, an antichain, and records
    that as its antichain fact.  Whether the subset is exactly the
    closed-point set is recorded on the descriptor, for
    :func:`is_complete_representation`.
    """

    _fields = ("model", "subset", "henselian")

    def __init__(
        self, model: NonsingularModel, subset: SymbolicPointSet, henselian: bool = False
    ) -> None:
        self.__dict__.update(
            model=model, subset=subset, henselian=_henselian_flag(henselian)
        )
        self.__post_init__()

    def __post_init__(self) -> None:
        subset, base = self.subset, self.model.base
        if subset.is_empty:
            raise InvalidDescriptor("the subset must name at least one point")
        # fans and members are both in canonical, level-major order, so each
        # fan's base is found by identity further along the members, before
        # the first member above its level: a base that is the model's own
        # point reads no path.  From the first base not found so, that fan
        # and every later one are looked up by path, in a table built in
        # one pass.
        members, by_path = base.labels_above(), {}
        complete = not subset.singles and len(subset.fans) == len(base)
        for fan in subset.fans:
            above = None
            for member, labels in members:
                if member is fan.base:
                    above = labels
                    break
                if member.level > fan.base.level:
                    break
            if above is None:
                members = ()
                by_path = by_path or {m.path: a for m, a in base.labels_above()}
                above = by_path.get(fan.base.path)
                if above is None:
                    raise InvalidDescriptor(
                        f"fan base {fan.base} is not a base point of the model"
                    )
            if fan.excluded != above:
                complete = False
                for label in above:
                    if label not in fan.excluded:
                        raise InvalidDescriptor(
                            f"fan {fan} holds the base point {fan.base.child(label)}"
                        )
        for p in subset.singles:
            if not self.model.contains_point(p):
                raise InvalidDescriptor(f"{p} is not a closed point of the model")
        _antichain(subset)
        self.__dict__["_complete"] = complete


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
    noetherian_basis = (
        "an intersection of closed points of a nonsingular projective model is a "
        "normal Noetherian domain with all maximal ideals of height 2"
    )

    def __init__(
        self,
        maximal_ideal_count: int | str,
        count_basis: str,
        irredundant: Verdict,
        irredundant_basis: str,
        essential: Verdict,
        essential_basis: str,
        ring_point: Point | None = None,
        singularity: str | None = None,
    ) -> None:
        self.__dict__.update(
            maximal_ideal_count=maximal_ideal_count,
            count_basis=count_basis,
            irredundant=irredundant,
            irredundant_basis=irredundant_basis,
            essential=essential,
            essential_basis=essential_basis,
            ring_point=ring_point,
            singularity=singularity,
        )

    def __str__(self) -> str:
        """One line per verdict, its basis beneath it in parentheses, then
        the ring point and the named singularity when they are set."""
        verdicts = (
            ("noetherian", "YES" if self.noetherian else "NO", self.noetherian_basis),
            ("maximalIdealCount", self.maximal_ideal_count, self.count_basis),
            ("irredundant", self.irredundant, self.irredundant_basis),
            ("essential", self.essential, self.essential_basis),
        )
        lines = [f"{key}: {value}\n  ({basis})" for key, value, basis in verdicts]
        if self.ring_point is not None:
            lines.append(f"ringPoint: {self.ring_point}")
        if self.singularity is not None:
            lines.append(f"singularity: {self.singularity}")
        return "\n".join(lines)


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
    # the one fan of a subset that is a single fan, else None
    fan = subset.fans[0] if len(subset.fans) == 1 and not subset.singles else None

    if subset.is_finite:
        n = len(subset.singles)
        count: int | str = n
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

    if subset.is_finite:
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
        # the lengths first: comparing the members hashes every one
        if len(d.model.base) == len(base) and d.model.base.points == base and subset == named:
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


def is_complete_representation(d: IntersectionDescriptor) -> Verdict:
    """Does the subset intersect all the way down to the root ring?

    The full closed-point set of any model does.  A subset whose members
    all contain one fixed non-root point intersects to something at least
    that large, so it provably does not; neither do proper subsets over a
    Henselian base, or inside the first neighborhood of the root.  Other
    cases are left undecided.

    The descriptor records, when it is built, whether the subset is the
    full closed-point set: no singles, and one fan per base point, each
    excluding the labels of the base points directly above.  Every other
    subset is a proper part of the closed points.
    """
    subset = d.subset
    if d._complete:
        return Verdict.YES
    # every member lies above its single or its fan's base, so all lie
    # above one non-root point iff no such floor is the root and all the
    # floors share their first label
    heads = {p.path[:1] for p in (*subset.singles, *(f.base for f in subset.fans))}
    if len(heads) == 1 and () not in heads:
        return Verdict.NO
    if d.henselian:
        return Verdict.NO
    # a part of Q1(D): the whole of it is the blowup's closed-point set
    if all(p.level == 1 for p in subset.singles) and all(f.base.is_root for f in subset.fans):
        return Verdict.NO
    return Verdict.UNKNOWN


def represents_same_ring(
    a: IntersectionDescriptor, b: IntersectionDescriptor
) -> bool:
    """Whether two descriptors name the same ring, up to what the calculus
    can see.

    A descriptor's subset is an antichain, its own minimal-point set, so
    the ring is known by the subset together with the completeness verdict.
    """
    return a.subset == b.subset and (
        is_complete_representation(a) == is_complete_representation(b)
    )
