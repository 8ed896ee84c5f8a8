"""Monomial-ideal backend over k[x, y]: the concrete oracle for the calculus.

An m-primary monomial ideal is stored by its minimal generating exponent set.
Its integral closure consists of all lattice points on or above the Newton
polygon, the boundary of the convex hull of the translated positive quadrants
at the generators.  The compact edges of that polygon carry the whole
factorization theory: an edge with primitive inward normal (p, q) and lattice
length k contributes the simple complete ideal of the monomial valuation
v(x^a y^b) = p*a + q*b with multiplicity k, and the chain of infinitely near
points under that valuation is read off by the Euclidean algorithm on (p, q).

Everything here is characteristic-free: only exponents are ever computed, so
the coefficient field is immaterial.

Only the two coordinate directions admit quadratic transforms of monomial
ideals (a transform centered at a generic direction destroys monomiality).
That loses nothing for this backend: the Rees valuations of a monomial ideal
are monomial valuations, so all base points of complete monomial ideals are
toric.  Base points are read off the factorization, as the chains to the
factor points; the test suite checks them against a descent through
quadratic transforms.
"""

from __future__ import annotations

import math
import re
from functools import cmp_to_key
from typing import TYPE_CHECKING, Iterable

from .errors import NonToricPoint, NotComplete, NotCoprime, NotMPrimary, OutputTooLarge
from .points import FrozenValue, Point, X_DIR, Y_DIR, _is_int, _trusted_point

if TYPE_CHECKING:
    from .ideals import BasePointSet, CompleteIdeal

Exponent = tuple[int, int]

# The largest number of minimal generators a closure may have.  The count is
# read off the polygon before any generator is made, so a larger closure is
# refused at once.
MAX_GENERATORS = 10**6
# The highest level of a point named by a valuation.  The level is the sum of
# the quotients of the Euclidean algorithm on the weights, known before any
# label is made, so a deeper point is refused at once.
MAX_PATH_DEPTH = 10**6


def _minimal_exponents(pairs: Iterable[Exponent]) -> tuple[Exponent, ...]:
    """The antichain of componentwise-minimal pairs, sorted by x-exponent.

    In (a, b) order a pair is minimal iff its b is below every earlier b.
    """
    kept: list[Exponent] = []
    for a, b in sorted(set(pairs)):
        if not kept or b < kept[-1][1]:
            kept.append((a, b))
    return tuple(kept)


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


class MonomialIdeal(FrozenValue):
    """An m-primary (or unit) monomial ideal in two variables.

    Generators are kept as the unique minimal generating set, an antichain
    under componentwise order, sorted by increasing x-exponent.  The unit
    ideal is represented by the single generator (0, 0).

    ``_complete`` is set, outside the value's fields, only on ideals built
    as closures of a Newton polygon, each its own ``integral_closure()``.
    Any other ideal may still be complete: ``_require_complete``, the one
    completeness test, compares it with its closure.
    """

    _fields = ("gens",)
    _complete = False

    def __init__(self, gens: tuple[Exponent, ...]) -> None:
        object.__setattr__(self, "gens", gens)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("a monomial ideal needs at least one generator")
        pairs = []
        for a, b in self.gens:
            if not (_is_int(a) and _is_int(b)):
                raise ValueError("exponents must be integers")
            if a < 0 or b < 0:
                raise ValueError("exponents must be non-negative")
            pairs.append((a, b))
        object.__setattr__(self, "gens", _minimal_exponents(pairs))

    @classmethod
    def of(cls, *gens: Exponent) -> "MonomialIdeal":
        return cls(tuple(gens))

    @classmethod
    def unit(cls) -> "MonomialIdeal":
        return cls(((0, 0),))

    @classmethod
    def maximal(cls) -> "MonomialIdeal":
        return cls(((1, 0), (0, 1)))

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0, 0),)

    @property
    def is_m_primary(self) -> bool:
        """Proper, with a pure power of x and a pure power of y among the
        generators; equivalently the ideal is primary to (x, y).  In the
        sorted antichain those powers can only be the two ends."""
        return not self.is_unit and self.gens[0][0] == 0 and self.gens[-1][1] == 0

    def _require_m_primary(self) -> None:
        if not self.is_m_primary:
            raise NotMPrimary(
                "the operation needs a proper ideal containing a power of x "
                "and a power of y"
            )

    def order(self) -> int:
        """The largest power of the maximal ideal containing this ideal."""
        self._require_m_primary()
        return min(a + b for a, b in self.gens)

    def newton_region(self) -> tuple[Exponent, ...]:
        """The vertices of the Newton polygon, from the y-axis to the x-axis.

        The x-coordinates strictly increase and the edge slopes strictly
        increase along the way; the region on and above the polygon is
        exactly the exponent set of the integral closure.  The generators
        are already sorted by x-exponent, so the lower hull is one pass.
        """
        self._require_m_primary()
        hull: list[Exponent] = []
        for a, b in self.gens:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (b - y1) - (y2 - y1) * (a - x1) > 0:
                    break
                hull.pop()
            hull.append((a, b))
        return tuple(hull)

    def integral_closure(self) -> "MonomialIdeal":
        """All lattice points on or above the Newton polygon; idempotent.

        Linear in the generators and edges of the result.  A closure is
        returned as is: it carries the completeness flag.
        """
        if self._complete:
            return self
        return _closure_of_polygon(self.newton_region())

    def _require_complete(self) -> None:
        if self._complete:
            return
        self._require_m_primary()
        if self.integral_closure() != self:
            raise NotComplete("the ideal is smaller than its integral closure")

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generator-level product; not integrally closed in general."""
        return MonomialIdeal(
            tuple((a1 + a2, b1 + b2) for a1, b1 in self.gens for a2, b2 in other.gens)
        )

    def quadratic_transform(self, direction: str) -> "MonomialIdeal":
        """Transform at the coordinate point in the given direction.

        The maximal ideal extends to a principal ideal upstairs; the
        transform is the extension divided by that power.  In the X
        direction a generator (a, b) becomes (a + b - ord, b), in the Y
        direction (a, a + b - ord).  The result is re-minimized and closed,
        and may be the unit ideal.
        """
        self._require_complete()
        ord_ = self.order()
        if direction == X_DIR:
            moved = tuple((a + b - ord_, b) for a, b in self.gens)
        elif direction == Y_DIR:
            moved = tuple((a, a + b - ord_) for a, b in self.gens)
        else:
            raise NonToricPoint(
                f"monomial transforms exist only in the {X_DIR} and {Y_DIR} "
                "directions"
            )
        result = MonomialIdeal(moved)
        if result.is_unit:
            return result
        return result.integral_closure()

    def to_text(self) -> str:
        """Comma-separated monomials, highest x-power first: "x^2, x y, y^3"."""

        def term(a: int, b: int) -> str:
            if a == 0 and b == 0:
                return "1"
            parts = []
            if a:
                parts.append("x" if a == 1 else f"x^{a}")
            if b:
                parts.append("y" if b == 1 else f"y^{b}")
            return " ".join(parts)

        return ", ".join(term(a, b) for a, b in reversed(self.gens))

    __str__ = to_text

    _TERM_RE = re.compile(r"^(?:x(?:\^(\d+))?)?(?:y(?:\^(\d+))?)?$")

    @classmethod
    def from_text(cls, text: str) -> "MonomialIdeal":
        gens = []
        for raw in text.split(","):
            term = re.sub(r"[\s*]", "", raw)
            if term == "1":
                gens.append((0, 0))
                continue
            m = cls._TERM_RE.match(term)
            if not term or m is None:
                raise ValueError(f"cannot parse monomial {raw.strip()!r}")
            a = int(m.group(1)) if m.group(1) else (1 if "x" in term else 0)
            b = int(m.group(2)) if m.group(2) else (1 if "y" in term else 0)
            gens.append((a, b))
        return cls(tuple(gens))


class MonomialValuation(FrozenValue):
    """The monomial valuation with v(x) = p, v(y) = q, p and q coprime.

    These are exactly the order valuations of the toric points of the
    quadratic tree.
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        # checked before math.gcd, which takes a bool and refuses a float
        if not (_is_int(p) and _is_int(q)):
            raise ValueError("weights must be integers")
        if p < 1 or q < 1 or math.gcd(p, q) != 1:
            raise NotCoprime("weights must be coprime positive integers")
        _set_p(self, p)
        _set_q(self, q)

    def __reduce__(self):
        # the default restores slots by assignment, which the value refuses
        return (MonomialValuation, (self.p, self.q))

    def value(self, a: int, b: int) -> int:
        return self.p * a + self.q * b

    def __str__(self) -> str:
        return f"v({self.p},{self.q})"


_set_p = MonomialValuation.p.__set__
_set_q = MonomialValuation.q.__set__


def point_for_valuation(v: MonomialValuation) -> Point:
    """The point whose order valuation is v, by Euclidean division.

    While (p, q) != (1, 1): a larger q steps into the X direction and drops
    q by p; otherwise the Y direction drops p by q.  Each run of equal steps
    is one division, so the path is known as runs of labels before any label
    is made.  Raises :class:`OutputTooLarge` when the point lies above level
    ``MAX_PATH_DEPTH``.
    """
    p, q = v.p, v.q
    runs: list[tuple[str, int]] = []
    depth = 0
    # coprime weights are equal only at (1, 1); a larger q drops by p while
    # it stays above p, which takes (q - 1) // p steps
    while p != q:
        if q > p:
            steps = (q - 1) // p
            q -= steps * p
            runs.append((X_DIR, steps))
        else:
            steps = (p - 1) // q
            p -= steps * q
            runs.append((Y_DIR, steps))
        depth += steps
    if depth > MAX_PATH_DEPTH:
        raise OutputTooLarge(
            f"the valuation ({v.p}, {v.q}) names a point at level {depth}, "
            f"above the cap of {MAX_PATH_DEPTH}"
        )
    # the labels are the two coordinate directions: nothing to validate
    return _trusted_point(_path_of_runs(runs))


def _path_of_runs(runs: list[tuple[str, int]]) -> tuple[str, ...]:
    """The labels of the runs, in order: the one step linear in the level."""
    path: list[str] = []
    for label, steps in runs:
        path += (label,) * steps
    return tuple(path)


def valuation_for_point(point: Point) -> MonomialValuation:
    """Inverse of :func:`point_for_valuation`; defined for coordinate paths."""
    p, q = 1, 1
    for label in reversed(point.path):
        if label == X_DIR:
            q += p
        elif label == Y_DIR:
            p += q
        else:
            raise NonToricPoint(
                f"{point} leaves the coordinate directions at label {label!r}"
            )
    return MonomialValuation(p, q)


def base_points(ideal: MonomialIdeal) -> BasePointSet:
    """All points where some transform of the ideal stays proper.

    These are the base points of its integral closure, which by unique
    factorization are the chains from the root to the closure's factor
    points, one per edge of the Newton polygon.  A chain of length L costs
    O(L), and a factor above level ``MAX_PATH_DEPTH`` raises
    :class:`OutputTooLarge` before any label is made.
    """
    if not ideal.is_m_primary:
        raise NotMPrimary("base points are defined for m-primary ideals")
    return factorize(ideal.integral_closure()).base_points()


def factorize(ideal: MonomialIdeal) -> CompleteIdeal:
    """Unique factorization into simple complete ideals, one per edge.

    Each compact edge of the Newton polygon, from (a1, b1) to (a2, b2),
    has lattice length k = gcd(a2 - a1, b1 - b2) and primitive inward
    normal (p, q) = ((b1 - b2) / k, (a2 - a1) / k), and contributes the
    simple ideal of the valuation (p, q) with multiplicity k; the product
    of the factors' closures is the original ideal again.
    """
    ideal._require_complete()
    vertices = ideal.newton_region()
    factors: list[tuple[Point, int]] = []
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        k = math.gcd(a2 - a1, b1 - b2)
        v = MonomialValuation((b1 - b2) // k, (a2 - a1) // k)
        factors.append((point_for_valuation(v), k))
    return _complete_ideal(tuple(factors))


def _complete_ideal(factors: tuple) -> CompleteIdeal:
    """``CompleteIdeal(factors)``, importing ``ideals`` on the first call
    only: the class then takes this function's name, since an import on
    every call cost each factorization about 1.5 microseconds (2-vCPU VM, 3.11)."""
    global _complete_ideal
    from .ideals import CompleteIdeal

    _complete_ideal = CompleteIdeal
    return CompleteIdeal(factors)


def generators_for_ideal(ideal: CompleteIdeal) -> MonomialIdeal:
    """Materialize a toric complete ideal as a monomial ideal.

    The closure of the product of the simple monomial ideals of the factor
    valuations, with multiplicities, read off its Newton polygon: the factor
    of v(p, q) with multiplicity k is the edge (k*q, -k*p), and the product's
    polygon lays those edges down in slope order from the y-axis.  Defined
    only when every factor point has a coordinate-label path.
    """
    steps = []
    for point, mult in ideal.factors:
        v = valuation_for_point(point)
        steps.append((mult * v.q, -mult * v.p))
    if not steps:
        return MonomialIdeal.unit()
    # the edges in increasing slope db/da, compared exactly in integers: as
    # da > 0, db/da < db'/da' iff db*da' < db'*da.  Distinct factor points
    # have distinct coprime weights, so no two edges are parallel and each
    # is one edge of the polygon.
    steps.sort(key=cmp_to_key(lambda u, v: u[1] * v[0] - v[1] * u[0]))
    vertices = [(0, -sum(db for _, db in steps))]
    for da, db in steps:
        a, b = vertices[-1]
        vertices.append((a + da, b + db))
    return _closure_of_polygon(tuple(vertices))


def _closure_of_polygon(vertices: tuple[Exponent, ...]) -> MonomialIdeal:
    """The complete ideal of the lattice points on or above a Newton polygon.

    Each edge from (a1, b1) to (a2, b2) is walked along its shorter side.
    Where it is at least as wide as tall, every height b1 - k below the
    start holds one generator, at the least a on or right of the edge;
    where it is taller, every column a1 + j holds one, at the least b on or
    above it.  So the cost is the number of generators plus edges, however
    large the exponents.  The result carries the completeness flag.
    Raises :class:`OutputTooLarge` when there would be more than
    ``MAX_GENERATORS`` generators.
    """
    # the polygon runs from (0, height) to (width, 0), and the count, 1 plus
    # the sum over the edges of their shorter sides, is at most
    # 1 + min(width, height): only a polygon that large needs the sum
    if vertices[-1][0] >= MAX_GENERATORS and vertices[0][1] >= MAX_GENERATORS:
        edges = zip(vertices, vertices[1:])
        size = 1 + sum(min(a2 - a1, b1 - b2) for (a1, b1), (a2, b2) in edges)
        if size > MAX_GENERATORS:
            raise OutputTooLarge(
                f"the integral closure has {size} minimal generators, more than "
                f"the cap of {MAX_GENERATORS}"
            )
    gens = [vertices[0]]
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        da, db = a2 - a1, b1 - b2
        if da >= db:
            gens.extend((a1 + _ceil_div(da * k, db), b1 - k) for k in range(1, db + 1))
        else:
            gens.extend((a1 + j, b1 - db * j // da) for j in range(1, da + 1))
    # plain ints, strictly increasing in a and decreasing in b: already the
    # minimal generators, so they are stored as built
    closed = object.__new__(MonomialIdeal)
    fields = closed.__dict__
    fields["gens"] = tuple(gens)
    fields["_complete"] = True
    return closed
