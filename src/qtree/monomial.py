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
from typing import Iterable

from .errors import NonToricPoint, NotComplete, NotCoprime, NotMPrimary, OutputTooLarge
from .ideals import BasePointSet, CompleteIdeal
from .points import FrozenValue, Point, X_DIR, Y_DIR, _is_int, _trusted_point

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
    as closures of a Newton polygon; any other ideal may still be complete,
    and is tested by computing its closure.
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

    def newton_region(self) -> "NewtonRegion":
        self._require_m_primary()
        return NewtonRegion.from_ideal(self)

    def integral_closure(self) -> "MonomialIdeal":
        """All lattice points on or above the Newton polygon; idempotent.

        Linear in the generators and edges of the result.  A closure is
        returned as is: it carries the completeness flag.
        """
        if self._complete:
            return self
        return _closure_of_polygon(self.newton_region().vertices)

    @property
    def is_complete(self) -> bool:
        return self._complete or (
            self.is_m_primary and self.integral_closure() == self
        )

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

    def __str__(self) -> str:
        return f"({self.to_text()})"


class NewtonEdge(FrozenValue):
    """A compact edge of a Newton polygon.

    ``normal`` is the primitive inward normal (p, q), both entries positive
    and coprime; ``lattice_length`` is the number of lattice segments on the
    edge, which is the multiplicity of the corresponding simple factor.
    """

    _fields = ("start", "end", "normal", "lattice_length")

    def __init__(
        self, start: Exponent, end: Exponent, normal: tuple[int, int], lattice_length: int
    ) -> None:
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "lattice_length", lattice_length)


class NewtonRegion(FrozenValue):
    """The Newton polygon of an m-primary monomial ideal.

    Vertices run from the y-axis to the x-axis with strictly increasing
    x-coordinate; edge normals (p, q) strictly increase in slope q/p along
    the way.  The region above the polygon is exactly the exponent set of
    the integral closure.
    """

    _fields = ("vertices", "edges")

    def __init__(
        self, vertices: tuple[Exponent, ...], edges: tuple[NewtonEdge, ...]
    ) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_ideal(cls, ideal: MonomialIdeal) -> "NewtonRegion":
        pts = sorted(ideal.gens)
        hull: list[Exponent] = []
        for p in pts:
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        edges = []
        for (a1, b1), (a2, b2) in zip(hull, hull[1:]):
            da, db = a2 - a1, b1 - b2
            g = math.gcd(da, db)
            edges.append(
                NewtonEdge(
                    start=(a1, b1),
                    end=(a2, b2),
                    normal=(db // g, da // g),
                    lattice_length=g,
                )
            )
        return cls(vertices=tuple(hull), edges=tuple(edges))


class MonomialValuation(FrozenValue):
    """The monomial valuation with v(x) = p, v(y) = q, p and q coprime.

    These are exactly the order valuations of the toric points of the
    quadratic tree.
    """

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise NotCoprime("weights must be coprime positive integers")

    def value(self, a: int, b: int) -> int:
        return self.p * a + self.q * b

    def __str__(self) -> str:
        return f"v({self.p},{self.q})"


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


def simple_ideal(v: MonomialValuation) -> MonomialIdeal:
    """The simple complete ideal of v: the closure of {p*a + q*b >= p*q},
    whose polygon is the one edge from (0, p) to (q, 0)."""
    return _closure_of_polygon(((0, v.p), (v.q, 0)))


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

    Each compact edge of the Newton polygon, with primitive normal (p, q)
    and lattice length k, contributes the simple ideal of the valuation
    (p, q) with multiplicity k; the product of the factors' closures is the
    original ideal again.
    """
    ideal._require_complete()
    factors: list[tuple[Point, int]] = []
    for edge in ideal.newton_region().edges:
        p, q = edge.normal
        factors.append(
            (point_for_valuation(MonomialValuation(p, q)), edge.lattice_length)
        )
    return CompleteIdeal(tuple(factors))


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
    return _closure_of_polygon(_lay_edges((0, -sum(db for _, db in steps)), steps))


# edge vectors (da, db), da > 0, in increasing slope db/da
_by_slope = cmp_to_key(lambda u, v: u[1] * v[0] - v[1] * u[0])


def _lay_edges(
    start: Exponent, steps: Iterable[tuple[int, int]]
) -> tuple[Exponent, ...]:
    """Vertices of the polygon that leaves ``start`` along the edge vectors
    (da, db), da > 0 > db, in increasing slope order, with parallel runs
    fused into one edge.  As da > 0, db/da < db'/da' iff db*da' < db'*da,
    so slopes are compared exactly in integers."""
    vertices = [start]
    # slope 0, which no edge has
    last_da, last_db = 1, 0
    for da, db in sorted(steps, key=_by_slope):
        a, b = vertices[-1]
        if db * last_da == last_db * da:
            vertices[-1] = (a + da, b + db)
        else:
            vertices.append((a + da, b + db))
        last_da, last_db = da, db
    return tuple(vertices)


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


def minkowski_sum(r1: NewtonRegion, r2: NewtonRegion) -> tuple[Exponent, ...]:
    """Vertices of the Minkowski sum of two Newton regions.

    Walk from the sum of the two top vertices, laying down the edge vectors
    of both polygons in increasing slope order and fusing parallel runs.
    The Newton region of a product of ideals has exactly these vertices.
    """
    start = (
        r1.vertices[0][0] + r2.vertices[0][0],
        r1.vertices[0][1] + r2.vertices[0][1],
    )
    steps = [
        (e.end[0] - e.start[0], e.end[1] - e.start[1]) for e in r1.edges + r2.edges
    ]
    return _lay_edges(start, steps)
