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
toric; the cross-layer agreement between the base-point search by transforms
here and the combinatorial chain closure is exercised by the test suite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import NonToricPoint, NotComplete, NotCoprime, NotMPrimary
from .ideals import BasePointSet, CompleteIdeal
from .points import ROOT, Point, X_DIR, Y_DIR

Exponent = tuple[int, int]


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


@dataclass(frozen=True)
class MonomialIdeal:
    """An m-primary (or unit) monomial ideal in two variables.

    Generators are kept as the unique minimal generating set, an antichain
    under componentwise order, sorted by increasing x-exponent.  The unit
    ideal is represented by the single generator (0, 0).

    ``_complete`` is set, outside the dataclass fields, only on ideals built
    as closures of a Newton polygon; any other ideal may still be complete,
    and is tested by computing its closure.
    """

    gens: tuple[Exponent, ...]
    _complete = False

    def __post_init__(self) -> None:
        if not self.gens:
            raise ValueError("a monomial ideal needs at least one generator")
        pairs = []
        for g in self.gens:
            a, b = g
            if a < 0 or b < 0:
                raise ValueError("exponents must be non-negative")
            pairs.append((int(a), int(b)))
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

    def contains_exponent(self, a: int, b: int) -> bool:
        return any(a >= ga and b >= gb for ga, gb in self.gens)

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

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generator-level product; not integrally closed in general."""
        return MonomialIdeal(
            tuple((a1 + a2, b1 + b2) for a1, b1 in self.gens for a2, b2 in other.gens)
        )

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self.multiply(other)

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

        ordered = sorted(self.gens, key=lambda g: (-g[0], g[1]))
        return ", ".join(term(a, b) for a, b in ordered)

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


@dataclass(frozen=True)
class NewtonEdge:
    """A compact edge of a Newton polygon.

    ``normal`` is the primitive inward normal (p, q), both entries positive
    and coprime; ``lattice_length`` is the number of lattice segments on the
    edge, which is the multiplicity of the corresponding simple factor.
    """

    start: Exponent
    end: Exponent
    normal: tuple[int, int]
    lattice_length: int


@dataclass(frozen=True)
class NewtonRegion:
    """The Newton polygon of an m-primary monomial ideal.

    Vertices run from the y-axis to the x-axis with strictly increasing
    x-coordinate; edge normals (p, q) strictly increase in slope q/p along
    the way.  The region above the polygon is exactly the exponent set of
    the integral closure.
    """

    vertices: tuple[Exponent, ...]
    edges: tuple[NewtonEdge, ...]

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

    def to_svg(self, scale: int = 20, margin: int = 10) -> str:
        """The polygon boundary as an SVG polyline (y axis pointing up)."""
        b_max = self.vertices[0][1]
        a_max = self.vertices[-1][0]
        width = a_max * scale + 2 * margin
        height = b_max * scale + 2 * margin

        def xy(a: int, b: int) -> str:
            return f"{margin + a * scale},{margin + (b_max - b) * scale}"

        points = " ".join(xy(a, b) for a, b in self.vertices)
        axes = (
            f'<polyline points="{xy(0, b_max)} {xy(0, 0)} {xy(a_max, 0)}" '
            'fill="none" stroke="#999" stroke-dasharray="4 3"/>'
        )
        poly = f'<polyline points="{points}" fill="none" stroke="black" stroke-width="2"/>'
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">{axes}{poly}</svg>'
        )


@dataclass(frozen=True)
class MonomialValuation:
    """The monomial valuation with v(x) = p, v(y) = q, p and q coprime.

    These are exactly the order valuations of the toric points of the
    quadratic tree.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise NotCoprime("weights must be coprime positive integers")

    def value(self, a: int, b: int) -> int:
        return self.p * a + self.q * b

    def binomial_value(self) -> int:
        """The value of x + y, namely min(p, q).

        For p != q the two terms have distinct values, so the minimum is the
        value of the sum.  For p = q = 1 this is the order valuation of the
        root, where x + y has order 1 because its degree-1 leading form is
        nonzero.  Either way no cancellation can lower the sum below the
        minimum, which is what makes this ideal-membership arithmetic sound.
        """
        return min(self.p, self.q)

    def element_value(self, a: int, b: int, binomial_exp: int = 0) -> int:
        """The value of x^a y^b (x + y)^binomial_exp."""
        return self.value(a, b) + binomial_exp * self.binomial_value()

    def __str__(self) -> str:
        return f"v({self.p},{self.q})"


def point_for_valuation(v: MonomialValuation) -> Point:
    """The point whose order valuation is v, by Euclidean subtraction.

    While (p, q) != (1, 1): a larger q steps into the X direction and drops
    q by p; otherwise the Y direction drops p by q.
    """
    p, q = v.p, v.q
    path: list[str] = []
    while (p, q) != (1, 1):
        if q > p:
            path.append(X_DIR)
            q -= p
        else:
            path.append(Y_DIR)
            p -= q
    return Point(tuple(path))


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
    """All points where the transform of the ideal stays proper.

    Depth-first descent with an explicit stack, so chain length is not bound
    by the recursion limit: the root is always a base point, and each
    coordinate direction is followed while the transform there is still
    proper.  The descent terminates because base-point sets are finite, and
    it visits only toric points because the Rees valuations of a monomial
    ideal are monomial.
    """
    if not ideal.is_m_primary:
        raise NotMPrimary("base points are defined for m-primary ideals")
    found: set[Point] = set()
    stack = [(ROOT, ideal.integral_closure())]
    while stack:
        point, current = stack.pop()
        found.add(point)
        for direction in (X_DIR, Y_DIR):
            transform = current.quadratic_transform(direction)
            if not transform.is_unit:
                stack.append((point.child(direction), transform))
    return BasePointSet(frozenset(found))


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


def _lay_edges(
    start: Exponent, steps: Iterable[tuple[int, int]]
) -> tuple[Exponent, ...]:
    """Vertices of the polygon that leaves ``start`` along the edge vectors
    (da, db), da > 0 > db, in increasing slope order, with parallel runs
    fused into one edge."""
    vertices = [start]
    last = None
    for slope, da, db in sorted((Fraction(db, da), da, db) for da, db in steps):
        a, b = vertices[-1]
        if slope == last:
            vertices[-1] = (a + da, b + db)
        else:
            vertices.append((a + da, b + db))
        last = slope
    return tuple(vertices)


def _closure_of_polygon(vertices: tuple[Exponent, ...]) -> MonomialIdeal:
    """The complete ideal of the lattice points on or above a Newton polygon.

    Each edge from (a1, b1) to (a2, b2) is walked along its shorter side.
    Where it is at least as wide as tall, every height b1 - k below the
    start holds one generator, at the least a on or right of the edge;
    where it is taller, every column a1 + j holds one, at the least b on or
    above it.  So the cost is the number of generators plus edges, however
    large the exponents.  The result carries the completeness flag.
    """
    gens = [vertices[0]]
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        da, db = a2 - a1, b1 - b2
        if da >= db:
            gens.extend((a1 + _ceil_div(da * k, db), b1 - k) for k in range(1, db + 1))
        else:
            gens.extend((a1 + j, b1 - db * j // da) for j in range(1, da + 1))
    closed = MonomialIdeal(tuple(gens))
    object.__setattr__(closed, "_complete", True)
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
