import itertools
import math
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import P
from qtree import (
    ROOT,
    CompleteIdeal,
    MonomialIdeal,
    MonomialValuation,
    NonToricPoint,
    NotComplete,
    NotCoprime,
    NotMPrimary,
    base_points,
    factorize,
    generators_for_ideal,
    point_for_valuation,
    valuation_for_point,
)
from oracles import seeded_rng

M = MonomialIdeal.of


def simple_ideal(v):
    """The simple complete ideal of v(p, q): the closure of (x^q, y^p)."""
    return M((v.q, 0), (0, v.p)).integral_closure()


def edges(vertices):
    """Each edge between consecutive vertices as (primitive inward normal,
    lattice length), the length counted as the lattice points on the edge
    past its start."""
    found = []
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        da, db = a2 - a1, b1 - b2
        k = sum(db * j % da == 0 for j in range(1, da + 1))
        found.append(((db // k, da // k), k))
    return found


class TestMonomialIdeal:
    def test_minimal_generating_set(self):
        assert M((2, 0), (1, 1), (2, 2), (0, 3)).gens == ((0, 3), (1, 1), (2, 0))

    def test_m_primary_detection(self):
        assert M((1, 0), (0, 1)).is_m_primary
        assert not M((1, 0)).is_m_primary  # (x): no pure power of y
        assert not M((1, 1), (0, 2)).is_m_primary
        assert not MonomialIdeal.unit().is_m_primary

    def test_text_round_trip(self):
        ideal = MonomialIdeal.from_text("x^4, x^2 y, x y^2, y^4")
        assert ideal.gens == ((0, 4), (1, 2), (2, 1), (4, 0))
        assert ideal.to_text() == "x^4, x^2 y, x y^2, y^4"
        assert MonomialIdeal.from_text("x, y").to_text() == "x, y"
        assert MonomialIdeal.from_text("1").is_unit
        assert MonomialIdeal.from_text("x^2y").gens == ((2, 1),)
        with pytest.raises(ValueError):
            MonomialIdeal.from_text("x^2 + y")

    @pytest.mark.parametrize(
        "gens, message",
        [
            (((1.5, 0), (0, 1)), "exponents must be integers"),
            (((1, 0), (0, 2.9)), "exponents must be integers"),
            (((1, 0), (0, 2.0)), "exponents must be integers"),
            (((True, 0), (0, 1)), "exponents must be integers"),
            (((1, 0), (0, -1)), "exponents must be non-negative"),
        ],
        ids=["float", "float-truncated", "integral-float", "bool", "negative"],
    )
    def test_exponents_are_non_negative_integers(self, gens, message):
        # int() used to truncate: (1.5, 0) became x and (0, 2.9) became y^2
        with pytest.raises(ValueError) as refused:
            M(*gens)
        assert str(refused.value) == message

    def test_needs_a_generator(self):
        with pytest.raises(ValueError, match="at least one generator"):
            MonomialIdeal(())

    def test_text_form_is_the_generator_text(self):
        assert str(MonomialIdeal.from_text("x^2, x y, y^3")) == "x^2, x y, y^3"
        assert str(MonomialIdeal.unit()) == "1"

    def test_order(self):
        assert M((1, 0), (0, 1)).order() == 1
        assert MonomialIdeal.from_text("x^2, x y, y^3").order() == 2
        assert MonomialIdeal.from_text("x^4, x^2 y, x y^2, y^4").order() == 3


class TestIntegralClosure:
    def test_two_generator_diagonal(self):
        # brute-force witness: 2*(1,1) dominates (2,0)+(0,2)
        expected = oracles.brute_force_closure(((2, 0), (0, 2)), kmax=2)
        assert expected == ((0, 2), (1, 1), (2, 0))
        assert M((2, 0), (0, 2)).integral_closure() == M(*expected)

    def test_already_complete(self):
        assert M((1, 0), (0, 1)).integral_closure() == M((1, 0), (0, 1))

    def test_fourth_powers(self):
        expected = oracles.brute_force_closure(((4, 0), (0, 4)), kmax=4)
        assert expected == ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0))
        assert M((4, 0), (0, 4)).integral_closure() == M(*expected)

    def test_requires_m_primary(self):
        with pytest.raises(NotMPrimary):
            M((1, 1), (0, 2)).integral_closure()

    def test_closure_matches_power_oracle_on_random_ideals(self):
        rng = seeded_rng(default=5150)
        checked = 0
        while checked < 150:
            gens = oracles.random_m_primary_gens(rng)
            span = oracles.max_edge_span(gens)
            closed = M(*gens).integral_closure()
            assert closed == M(*oracles.brute_force_closure(gens, kmax=max(span, 1)))
            assert closed.integral_closure() == closed
            checked += 1

    def test_closure_matches_valuative_criterion(self):
        # third route: membership under every monomial valuation; exact with
        # weights up to 8 because edge normals are bounded by the exponents
        rng = seeded_rng(default=7777)
        for _ in range(80):
            gens = oracles.random_m_primary_gens(rng)
            by_valuations = oracles.closure_by_valuation_test(gens, weight_bound=8)
            assert MonomialIdeal(gens).integral_closure() == MonomialIdeal.of(
                *by_valuations
            )

    def test_closure_is_multiplicative(self):
        rng = seeded_rng(default=6)
        for _ in range(60):
            i = M(*oracles.random_m_primary_gens(rng, max_exp=6, extra=3))
            j = M(*oracles.random_m_primary_gens(rng, max_exp=6, extra=3))
            product = (i * j).integral_closure()
            assert (
                i.integral_closure() * j.integral_closure()
            ).integral_closure() == product
            # the product polygon is the Minkowski sum of the two polygons
            summed = oracles.minkowski_sum(
                i.integral_closure().newton_region(),
                j.integral_closure().newton_region(),
            )
            assert product.newton_region() == summed


def m_primary_gens(x_max, y_max):
    """Generators with a pure power of each variable and up to five more,
    x-exponents up to ``x_max`` and y-exponents up to ``y_max``."""
    extra = st.tuples(st.integers(0, x_max), st.integers(0, y_max)).filter(
        lambda g: g != (0, 0)
    )
    return st.tuples(
        st.integers(1, x_max), st.integers(1, y_max), st.lists(extra, max_size=5)
    ).map(lambda t: ((t[0], 0), (0, t[1]), *t[2]))


class TestOutputSensitiveClosure:
    """The edge walk against the per-column scan it replaces."""

    @pytest.mark.parametrize(
        "x_max, y_max",
        [(10**4, 40), (40, 10**4), (10**4, 10**4), (12, 12)],
        ids=["wider-than-tall", "taller-than-wide", "large", "small"],
    )
    def test_matches_the_column_scan(self, x_max, y_max):
        @settings(max_examples=60)
        @given(m_primary_gens(x_max, y_max))
        def check(gens):
            closed = MonomialIdeal(gens).integral_closure()
            assert closed.gens == oracles.column_scan_closure(gens)

        check()

    def test_huge_exponent_returns_at_once(self):
        n = 10**12
        assert M((n, 0), (0, 1)).integral_closure() == M((n, 0), (0, 1))
        assert M((n, 0), (0, 3)).integral_closure().gens == (
            (0, 3),
            (-(-n // 3), 2),
            (-(-2 * n // 3), 1),
            (n, 0),
        )
        assert M((0, n), (3, 0)).integral_closure().gens == (
            (0, n),
            (1, -(-2 * n // 3)),
            (2, -(-n // 3)),
            (3, 0),
        )

    def test_closure_is_returned_as_is_and_input_is_not_marked(self):
        ideal = M((4, 0), (0, 4))
        closed = ideal.integral_closure()
        assert closed.integral_closure() is closed
        assert ideal.integral_closure() is not closed
        assert ideal.integral_closure() != ideal
        with pytest.raises(NotComplete):
            ideal.quadratic_transform("X")

    def test_unmarked_complete_ideal(self):
        closed = M((6, 0), (2, 1), (0, 5)).integral_closure()
        copy = MonomialIdeal(closed.gens)
        assert copy == closed and hash(copy) == hash(closed)
        assert copy.integral_closure() == copy
        assert copy.integral_closure() is not copy
        assert copy.quadratic_transform("X") == closed.quadratic_transform("X")
        assert pickle.loads(pickle.dumps(closed)).integral_closure() == closed

    def test_m_primary_reads_the_ends_of_the_antichain(self):
        assert M((3, 0), (1, 1), (0, 2)).is_m_primary
        assert not M((3, 0), (1, 1)).is_m_primary


class TestClosuresAreStoredAsBuilt:
    """A closure keeps the generators its polygon walk lays down: they are
    the canonical minimal set the validating constructor would make."""

    valuation = st.tuples(st.integers(1, 60), st.integers(1, 60)).filter(
        lambda w: math.gcd(*w) == 1
    )
    toric = st.dictionaries(
        st.lists(st.sampled_from("XY"), max_size=6).map(tuple),
        st.integers(1, 4),
        min_size=1,
        max_size=4,
    )

    @staticmethod
    def check(closed):
        assert MonomialIdeal(closed.gens).gens == closed.gens
        assert all(type(e) is int for g in closed.gens for e in g)
        assert closed.integral_closure() is closed

    @given(m_primary_gens(200, 200))
    def test_integral_closure(self, gens):
        self.check(MonomialIdeal(gens).integral_closure())

    @given(m_primary_gens(40, 40), st.sampled_from("XY"))
    def test_quadratic_transform(self, gens, direction):
        transform = MonomialIdeal(gens).integral_closure().quadratic_transform(direction)
        if not transform.is_unit:
            self.check(transform)

    @given(valuation)
    def test_simple_ideal(self, weights):
        self.check(simple_ideal(MonomialValuation(*weights)))

    @given(toric)
    def test_generators_for_ideal(self, factors):
        self.check(
            generators_for_ideal(CompleteIdeal.of({P(*p): k for p, k in factors.items()}))
        )


class TestGeneratorsEdgeWalk:
    """One edge per factor against the repeated generator product."""

    toric = st.dictionaries(
        st.lists(st.sampled_from("XY"), max_size=4).map(tuple),
        st.integers(1, 3),
        min_size=1,
        max_size=3,
    )

    @given(toric)
    def test_matches_the_repeated_product(self, factors):
        j = CompleteIdeal.of({P(*path): k for path, k in factors.items()})
        weights = []
        for point, k in j.factors:
            v = valuation_for_point(point)
            weights.append(((v.p, v.q), k))
        got = generators_for_ideal(j)
        assert got.gens == oracles.repeated_product_generators(weights)
        assert got.integral_closure() is got

    @given(toric.filter(lambda factors: len(factors) >= 2))
    def test_one_polygon_corner_per_factor(self, factors):
        # distinct toric points have distinct coprime weights, so no two
        # factors' edges are parallel, and each factor is one edge of the
        # Newton polygon
        j = CompleteIdeal.of({P(*path): k for path, k in factors.items()})
        assert len(generators_for_ideal(j).newton_region()) == len(j.factors) + 1

    def test_simple_ideals_match_the_column_scan(self):
        for p in range(1, 30):
            for q in range(1, 30):
                if math.gcd(p, q) == 1:
                    assert simple_ideal(MonomialValuation(p, q)).gens == (
                        oracles.column_scan_closure(((q, 0), (0, p)))
                    )

    def test_unit_ideal(self):
        assert generators_for_ideal(CompleteIdeal.unit()).is_unit


class TestNewtonRegion:
    def test_vertices_and_edges(self):
        ideal = MonomialIdeal.from_text("x^4, x^2 y, x y^2, y^4")
        assert ideal.newton_region() == ((0, 4), (1, 2), (2, 1), (4, 0))
        assert edges(ideal.newton_region()) == [((2, 1), 1), ((1, 1), 1), ((1, 2), 1)]
        # v(2, 1), v(1, 1) and v(1, 2) name Y, the root and X
        assert factorize(ideal) == CompleteIdeal.of([P("Y"), ROOT, P("X")])

    def test_collinear_generators_are_not_vertices(self):
        ideal = M((4, 0), (2, 2), (0, 4))
        assert ideal.newton_region() == ((0, 4), (4, 0))
        assert edges(ideal.newton_region()) == [((1, 1), 4)]
        assert factorize(ideal.integral_closure()) == CompleteIdeal.of({ROOT: 4})

    def test_slopes_of_normals_increase(self):
        rng = seeded_rng(default=99)
        for _ in range(80):
            closed = M(*oracles.random_m_primary_gens(rng)).integral_closure()
            vertices = closed.newton_region()
            slopes = [q / p for (p, q), _ in edges(vertices)]
            assert slopes == sorted(slopes)
            assert all(s > 0 for s in slopes)
            assert vertices[0][0] == 0 and vertices[-1][1] == 0

    def test_requires_m_primary(self):
        with pytest.raises(NotMPrimary):
            M((1, 1), (0, 2)).newton_region()

    @given(m_primary_gens(30, 30))
    def test_polygon_is_the_hull_and_its_edges_are_the_factors(self, gens):
        ideal = MonomialIdeal(gens)
        vertices = ideal.newton_region()
        assert vertices == tuple(oracles.staircase_hull(gens))
        # the edge slopes db / da strictly increase, compared exactly
        steps = [(a2 - a1, b2 - b1) for (a1, b1), (a2, b2) in zip(vertices, vertices[1:])]
        for (da1, db1), (da2, db2) in zip(steps, steps[1:]):
            assert db1 * da2 < db2 * da1
        closed = ideal.integral_closure()
        assert closed.newton_region() == vertices
        expected = [
            (point_for_valuation(MonomialValuation(*normal)), k)
            for normal, k in edges(vertices)
        ]
        factored = factorize(closed)
        assert len(factored.factors) == len(expected)
        assert factored == CompleteIdeal.of(dict(expected))


class TestQuadraticTransform:
    def test_transform_of_the_maximal_ideal_is_unit(self):
        assert MonomialIdeal.maximal().quadratic_transform("X").is_unit
        assert MonomialIdeal.maximal().quadratic_transform("Y").is_unit

    def test_y_transform_of_x_y_squared(self):
        got = M((1, 0), (0, 2)).quadratic_transform("Y")
        assert got == MonomialIdeal.maximal()

    def test_x_transform_of_x_y_squared_is_unit(self):
        assert M((1, 0), (0, 2)).quadratic_transform("X").is_unit

    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            M((2, 0), (0, 2)).quadratic_transform("X")

    def test_rejects_other_directions(self):
        with pytest.raises(NonToricPoint):
            MonomialIdeal.maximal().quadratic_transform("t1")


class TestBasePoints:
    def test_maximal_ideal(self):
        assert base_points(MonomialIdeal.maximal()).points == {ROOT}

    def test_x_y_squared(self):
        assert base_points(M((1, 0), (0, 2))).points == {ROOT, P("Y")}

    def test_three_point_ideal(self):
        ideal = MonomialIdeal.from_text("x^4, x^2 y, x y^2, y^4")
        assert base_points(ideal).points == {ROOT, P("X"), P("Y")}

    def test_takes_closure_first(self):
        assert base_points(M((2, 0), (0, 2))).points == {ROOT}

    @pytest.mark.parametrize("gens", [((1, 0),), ((1, 1), (0, 2)), ((0, 0),)])
    def test_requires_m_primary(self, gens):
        with pytest.raises(NotMPrimary):
            base_points(M(*gens))

    # pure powers of at least 30 leave room under the diagonal, so about
    # half the draws have several edges: branching sets whose chains reach
    # far past the level-4 sets that the acceptance suite enumerates
    exponent = st.integers(0, 60)
    deep = st.tuples(
        st.integers(30, 60),
        st.integers(30, 60),
        st.lists(
            st.tuples(exponent, exponent).filter(any), min_size=2, max_size=6
        ),
    ).map(lambda t: ((t[0], 0), (0, t[1]), *t[2]))

    @settings(max_examples=80)
    @given(deep)
    def test_matches_the_factor_closure_on_deep_branching_sets(self, gens):
        ideal = MonomialIdeal(gens)
        descended = base_points(ideal)
        closed = factorize(ideal.integral_closure()).base_points()
        assert descended.sorted() == closed.sorted()
        assert descended.terminals() == closed.terminals()
        assert list(descended.labels_above()) == list(closed.labels_above())
        oracle = oracles.descent_base_points(ideal)
        assert descended.sorted() == oracles.reference_sorted(oracle)


class TestFactorize:
    def test_two_simple_factors(self):
        ideal = MonomialIdeal.from_text("x^2, x y, y^3")
        assert factorize(ideal) == CompleteIdeal.of([ROOT, P("Y")])

    def test_three_simple_factors(self):
        ideal = MonomialIdeal.from_text("x^4, x^2 y, x y^2, y^4")
        assert factorize(ideal) == CompleteIdeal.of([ROOT, P("X"), P("Y")])

    def test_square_of_the_maximal_ideal(self):
        assert factorize(M((2, 0), (1, 1), (0, 2))) == CompleteIdeal.of({ROOT: 2})

    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            factorize(M((2, 0), (0, 2)))

    def test_round_trips_with_generators(self):
        rng = seeded_rng(default=13)
        for _ in range(60):
            ideal = M(*oracles.random_m_primary_gens(rng)).integral_closure()
            assert generators_for_ideal(factorize(ideal)) == ideal

    def test_toric_ideals_with_multiplicities_round_trip(self):
        toric = st.dictionaries(
            st.builds(
                lambda ls: P(*ls), st.lists(st.sampled_from(["X", "Y"]), max_size=3)
            ),
            st.integers(1, 3),
            min_size=1,
            max_size=3,
        )

        @given(toric)
        def check(factors):
            j = CompleteIdeal.of(factors)
            assert factorize(generators_for_ideal(j)) == j

        check()

    def test_rees_valuations_match_edge_normals(self):
        rng = seeded_rng(default=21)
        for _ in range(40):
            ideal = M(*oracles.random_m_primary_gens(rng)).integral_closure()
            normals = [normal for normal, _ in edges(ideal.newton_region())]
            from_edges = {point_for_valuation(MonomialValuation(*n)) for n in normals}
            factored = factorize(ideal)
            assert {v.center for v in factored.rees_valuations()} == from_edges
            assert len(factored.support) == len(normals)


class TestEuclidCorrespondence:
    def test_examples(self):
        assert point_for_valuation(MonomialValuation(1, 1)) == ROOT
        assert point_for_valuation(MonomialValuation(1, 2)) == P("X")
        assert point_for_valuation(MonomialValuation(2, 1)) == P("Y")
        assert valuation_for_point(ROOT) == MonomialValuation(1, 1)
        assert valuation_for_point(P("Y")) == MonomialValuation(2, 1)
        assert valuation_for_point(P("X", "Y")) == MonomialValuation(2, 3)
        assert point_for_valuation(MonomialValuation(2, 3)) == P("X", "Y")

    def test_round_trip_small(self):
        for p in range(1, 20):
            for q in range(1, 20 - p + 1):
                if math.gcd(p, q) != 1:
                    continue
                v = MonomialValuation(p, q)
                assert valuation_for_point(point_for_valuation(v)) == v

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprime):
            MonomialValuation(2, 4)
        with pytest.raises(NotCoprime):
            MonomialValuation(0, 1)
        with pytest.raises(NotCoprime):
            MonomialValuation(3, -1)

    @pytest.mark.parametrize(
        "weights",
        [(True, 1), (True, 2), (1, True), (1.5, 2), (2, 1.0), ("1", 2)],
        ids=["bool", "bool-naming-X", "bool-second", "float", "integral-float", "str"],
    )
    def test_rejects_non_integer_weights(self, weights):
        # a bool used to pass as an int, print as v(True,1) and, as (True, 2),
        # name the point X; a float reached math.gcd and raised TypeError
        with pytest.raises(ValueError) as refused:
            MonomialValuation(*weights)
        assert str(refused.value) == "weights must be integers"

    def test_text_form(self):
        assert str(MonomialValuation(2, 3)) == "v(2,3)"

    def test_rejects_non_toric_points(self):
        with pytest.raises(NonToricPoint):
            valuation_for_point(P("t1"))


class TestSimpleIdeals:
    def test_coordinate_ideals(self):
        assert simple_ideal(MonomialValuation(1, 1)) == MonomialIdeal.maximal()
        assert simple_ideal(MonomialValuation(1, 2)) == M((2, 0), (0, 1))
        assert simple_ideal(MonomialValuation(2, 1)) == M((1, 0), (0, 2))

    def test_simple_ideals_are_complete_with_one_rees_valuation(self):
        for p in range(1, 8):
            for q in range(1, 8):
                if math.gcd(p, q) != 1:
                    continue
                s = simple_ideal(MonomialValuation(p, q))
                assert s.integral_closure() is s
                factors = factorize(s)
                assert factors == CompleteIdeal.simple(
                    point_for_valuation(MonomialValuation(p, q))
                )


class TestGeneratorsForIdeal:
    def test_root_gives_the_maximal_ideal(self):
        assert generators_for_ideal(CompleteIdeal.simple(ROOT)) == MonomialIdeal.maximal()

    def test_saturation_of_the_y_direction_factor(self):
        j = CompleteIdeal.simple(P("Y")).saturate()
        assert generators_for_ideal(j).to_text() == "x^2, x y, y^3"

    def test_three_point_model_ideal(self):
        j = CompleteIdeal.of([ROOT, P("X"), P("Y")])
        assert generators_for_ideal(j).to_text() == "x^4, x^2 y, x y^2, y^4"

    def test_rejects_non_toric_factors(self):
        with pytest.raises(NonToricPoint):
            generators_for_ideal(CompleteIdeal.simple(P("t1")))


def test_cross_layer_base_point_agreement():
    # combinatorial chain closure vs transform descent
    coordinate_points = [
        P(*path)
        for level in range(0, 4)
        for path in itertools.product("XY", repeat=level)
    ]
    for point in coordinate_points:
        j = CompleteIdeal.simple(point).saturate()
        gens = generators_for_ideal(j)
        assert base_points(gens).points == j.base_points().points
        assert base_points(gens).points == oracles.descent_base_points(gens)


def test_base_points_of_a_chain_deeper_than_the_recursion_limit():
    # (x^d, y) is the simple ideal of v(1, d), centered d - 1 steps along X
    d = sys.getrecursionlimit() + 100
    ideal = MonomialIdeal.of((d, 0), (0, 1))
    found = base_points(ideal)
    assert found == CompleteIdeal.simple(P(*"X" * (d - 1))).base_points()
    assert found.points == oracles.descent_base_points(ideal)


def test_transforms_along_a_chain_reach_m_then_unit():
    for level in range(1, 5):
        for path in itertools.product("XY", repeat=level):
            point = P(*path)
            ideal = simple_ideal(valuation_for_point(point))
            current = ideal
            for step, label in enumerate(path):
                off_path = "Y" if label == "X" else "X"
                # the direction leaving the chain leads off the base points
                assert current.quadratic_transform(off_path).is_unit
                current = current.quadratic_transform(label)
            assert current == MonomialIdeal.maximal()
            assert current.quadratic_transform("X").is_unit
            assert current.quadratic_transform("Y").is_unit


def test_chart_membership_value_inequalities():
    # containments of monomial-times-(x+y) elements under the three order
    # valuations of the three-base-point configuration, checked as value
    # comparisons; v(x+y) = min(v(x), v(y)) for each of these valuations
    v = MonomialValuation(1, 1)
    va = MonomialValuation(1, 2)
    vb = MonomialValuation(2, 1)

    def value(valn, a, b, s=0):
        """The value of x^a y^b (x + y)^s.

        For p != q the two terms of x + y have distinct values, so the sum
        takes the smaller; for p = q = 1, the order valuation of the root,
        x + y has order 1.  Either way v(x + y) = min(p, q).
        """
        return valn.value(a, b) + s * min(valn.p, valn.q)

    # x^3 against y(x+y), y^3 against x(x+y), x and y against x+y
    assert value(v, 3, 0) > value(v, 0, 1, 1)
    assert value(v, 0, 3) > value(v, 1, 0, 1)
    assert value(v, 1, 0) == value(v, 0, 0, 1)
    assert value(v, 0, 1) == value(v, 0, 0, 1)

    assert value(va, 3, 0) == value(va, 0, 1, 1)
    assert value(va, 0, 3) > value(va, 1, 0, 1)
    assert value(va, 1, 0) == value(va, 0, 0, 1)
    assert value(va, 0, 1) > value(va, 0, 0, 1)

    assert value(vb, 3, 0) > value(vb, 0, 1, 1)
    assert value(vb, 0, 3) == value(vb, 1, 0, 1)
    assert value(vb, 1, 0) > value(vb, 0, 0, 1)
    assert value(vb, 0, 1) == value(vb, 0, 0, 1)


class TestOutputCap:
    def test_closure_size_is_read_off_the_polygon_before_it_is_built(self, monkeypatch):
        from qtree import OutputTooLarge, monomial

        monkeypatch.setattr(monomial, "MAX_GENERATORS", 4)
        # (x^3, x y, y^3): edges (0,3)-(1,1) and (1,1)-(3,0), min sides 1 and 1
        closed = M((3, 0), (1, 1), (0, 3)).integral_closure()
        assert closed.gens == ((0, 3), (1, 1), (3, 0))
        assert len(M((3, 0), (0, 3)).integral_closure().gens) == 4
        with pytest.raises(OutputTooLarge):
            M((4, 0), (0, 4)).integral_closure()
        # 5 wide and 5 tall, but its two edges are each one step on one side
        assert len(M((5, 0), (1, 1), (0, 5)).integral_closure().gens) == 3
        with pytest.raises(OutputTooLarge):
            generators_for_ideal(CompleteIdeal.simple(ROOT, 4))
        assert len(generators_for_ideal(CompleteIdeal.simple(ROOT, 3)).gens) == 4

    def test_a_closure_of_a_trillion_generators_is_refused(self, monkeypatch):
        from qtree import OutputTooLarge, monomial

        def no_generator(*args):
            raise AssertionError("a generator was made before the size check")

        # without the check this fails at the first generator instead of
        # building 10**12 of them
        monkeypatch.setattr(monomial, "_ceil_div", no_generator)
        with pytest.raises(OutputTooLarge):
            M((10**12, 0), (0, 10**12 - 1)).integral_closure()


class TestDepthCap:
    def test_depth_is_the_sum_of_the_euclidean_quotients(self, monkeypatch):
        from qtree import OutputTooLarge, monomial

        monkeypatch.setattr(monomial, "MAX_PATH_DEPTH", 4)
        # (7, 3): one Y step to (4, 3), one to (1, 3), two X steps to (1, 1)
        assert point_for_valuation(MonomialValuation(7, 3)) == P("Y", "Y", "X", "X")
        assert point_for_valuation(MonomialValuation(1, 5)).level == 4
        with pytest.raises(OutputTooLarge):
            point_for_valuation(MonomialValuation(1, 6))
        with pytest.raises(OutputTooLarge):
            point_for_valuation(MonomialValuation(9, 4))  # Y, Y, X, X, X

    def test_a_trillion_labels_are_refused_before_the_first(self, monkeypatch):
        from qtree import OutputTooLarge, monomial

        def no_label(*args):
            raise AssertionError("a label was made before the depth check")

        monkeypatch.setattr(monomial, "_path_of_runs", no_label)
        for p, q in ((1, 10**12), (10**12, 1), (10**12 - 1, 10**12)):
            with pytest.raises(OutputTooLarge):
                point_for_valuation(MonomialValuation(p, q))
        with pytest.raises(OutputTooLarge):
            factorize(M((10**12, 0), (0, 1)))

    def test_base_points_above_the_cap_are_refused_before_the_first_label(
        self, monkeypatch
    ):
        from qtree import OutputTooLarge, monomial

        def no_step(*args):
            raise AssertionError("a label or a transform was made before the depth check")

        # (x^d, y) is the simple ideal of a point at level d - 1; a descent
        # through transforms would take d of them to find its chain
        monkeypatch.setattr(monomial, "_path_of_runs", no_step)
        monkeypatch.setattr(MonomialIdeal, "quadratic_transform", no_step)
        d = 2 * monomial.MAX_PATH_DEPTH + 2
        with pytest.raises(OutputTooLarge):
            base_points(M((d, 0), (0, 1)))


@given(st.integers(1, 400), st.integers(1, 400))
def test_runs_of_labels_give_the_subtraction_path(p, q):
    if math.gcd(p, q) == 1:
        assert point_for_valuation(MonomialValuation(p, q)).path == oracles.subtraction_path(p, q)
