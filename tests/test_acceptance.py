"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every identity is exact; the only tolerances are the stated
wall-clock bounds, which are asserted where required.
"""

import itertools
import math
import time

import oracles
from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CompleteIdeal,
    IntersectionDescriptor,
    MonomialIdeal,
    MonomialValuation,
    NonsingularModel,
    OrderValuation,
    SymbolicPointSet,
    Verdict,
    base_points,
    classify,
    factorize,
    generators_for_ideal,
    minimal_incomparable_set,
    minimal_model_containing,
    minkowski_sum,
    point_for_valuation,
    valuation_for_point,
)
from oracles import TruncatedTree, seeded_rng

TREE = TruncatedTree(max_level=4)
TREE5 = TruncatedTree(max_level=5)


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_ordinary_double_point_golden():
    def golden():
        saturated = CompleteIdeal.simple(P("Y")).saturate()
        gens = generators_for_ideal(saturated)
        factors = factorize(MonomialIdeal.from_text("x^2, x y, y^3"))
        return saturated, gens, factors

    golden()  # warm-up so the timed run measures the computation alone
    start = time.perf_counter()
    saturated, gens, factors = golden()
    elapsed = time.perf_counter() - start

    assert saturated == CompleteIdeal.of([ROOT, P("Y")])
    assert gens.to_text() == "x^2, x y, y^3"
    assert factors == saturated
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"
    report(1, "saturation of (x, y^2) and its generators, exact, < 1 ms")


def test_criterion_2_two_maximal_ideal_golden():
    def golden():
        j = CompleteIdeal.of([ROOT, P("X"), P("Y")])
        gens = generators_for_ideal(j)
        model = NonsingularModel(j.base_points())
        closed = model.closed_points()
        d_star, d_2star = P("X", "Y"), P("Y", "X")
        descriptor = IntersectionDescriptor(
            model, SymbolicPointSet.of_points([d_star, d_2star])
        )
        return j, gens, closed, d_star, d_2star, classify(descriptor)

    golden()
    start = time.perf_counter()
    j, gens, closed, d_star, d_2star, verdicts = golden()
    elapsed = time.perf_counter() - start

    assert gens == MonomialIdeal.of((4, 0), (2, 1), (1, 2), (0, 4))
    assert gens.to_text() == "x^4, x^2 y, x y^2, y^4"
    assert j.is_saturated()
    assert base_points(gens).points == j.base_points().points
    assert base_points(gens).points == oracles.descent_base_points(gens)
    assert d_star in closed and d_2star in closed
    assert verdicts.maximal_ideal_count == 2
    assert verdicts.irredundant is Verdict.YES
    assert verdicts.essential is Verdict.YES
    assert elapsed < 1e-2, f"took {elapsed * 1e3:.3f} ms"
    report(2, "(x^4, x^2 y, x y^2, y^4) configuration, exact, < 10 ms")


def test_criterion_3_blowup_of_m_equivalences():
    def predicates(model: NonsingularModel) -> list[bool]:
        ideal = model.ideal()
        closed = model.closed_points()
        root_fan = next(f for f in closed.fans if f.base.is_root)
        return [
            not root_fan.excluded,  # every first-neighborhood point on the model
            closed == SymbolicPointSet.fan(ROOT),
            model.base.points == {ROOT},
            ideal.rees_valuations() == {OrderValuation(ROOT)},
            ideal.support == (ROOT,),  # the m-power representative
        ]

    blowup = NonsingularModel(BasePointSet.of([ROOT]))
    assert predicates(blowup) == [True] * 5
    for base in TREE.downward_closed_sets(max_size=4, max_level=3):
        values = predicates(NonsingularModel(BasePointSet(base)))
        assert len(set(values)) == 1
    report(3, "the five blowup-of-m characterizations agree, exact")


def test_criterion_4_saturation_laws_randomized():
    rng = seeded_rng(default=41)
    trials = 10_000
    previous = None
    for _ in range(trials):
        support = {
            TREE.random_point(rng, min_level=0) for _ in range(rng.randint(1, 4))
        }
        ideal = CompleteIdeal.of(
            {p: rng.randint(1, 3) for p in support}
        )
        saturated = ideal.saturate()
        assert saturated.saturate() == saturated
        assert saturated.base_points().points == ideal.base_points().points
        if previous is not None:
            product = previous * ideal
            assert (
                product.base_points().points
                == previous.base_points().points | ideal.base_points().points
            )
            assert (
                product.rees_valuations()
                == previous.rees_valuations() | ideal.rees_valuations()
            )
        previous = ideal
    report(4, f"saturation laws on {trials} random factor multisets, zero failures")


def test_criterion_5_closed_points_vs_brute_force():
    start = time.perf_counter()
    count = 0
    for base in TREE.downward_closed_sets(max_size=5):
        model = NonsingularModel(BasePointSet(base))
        closed = model.closed_points()
        for q in TREE5.points:
            expected = not q.is_root and q.parent() in base and q not in base
            assert (q in closed) == expected
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 1000
    assert elapsed < 10, f"took {elapsed:.1f} s"
    report(
        5,
        f"closed-point formula vs brute force on {count} models "
        f"(every rooted downward-closed set of size <= 5, four labels, "
        f"level <= 4), zero failures, {elapsed:.1f} s",
    )


def test_criterion_6_join_law_randomized():
    rng = seeded_rng(default=66)
    pairs = 1000
    for _ in range(pairs):
        m = NonsingularModel(BasePointSet(TREE.random_downward_closed(rng, 6)))
        n = NonsingularModel(BasePointSet(TREE.random_downward_closed(rng, 6)))
        joined = m.join(n)
        union_minus_bases = (
            m.closed_points()
            .union(n.closed_points())
            .minus(m.base.points | n.base.points)
        )
        assert joined.closed_points() == union_minus_bases
        assert joined.dominates(m) and joined.dominates(n)
        # any upper bound dominates the join: the join itself, a proper
        # extension of it, and a random candidate
        extension = NonsingularModel(
            BasePointSet(
                joined.base.points | TREE.random_downward_closed(rng, 4)
            )
        )
        witnesses = [
            joined,
            extension,
            NonsingularModel(BasePointSet(TREE.random_downward_closed(rng, 6))),
        ]
        for w in witnesses:
            if w.dominates(m) and w.dominates(n):
                assert w.dominates(joined)
    report(6, f"join law and least-upper-bound property on {pairs} pairs, zero failures")


def _proper_downward_closed_subsets(base: frozenset):
    non_root = sorted(base - {ROOT}, key=lambda p: p.sort_key())
    for size in range(len(non_root)):
        for chosen in itertools.combinations(non_root, size):
            candidate = set(chosen) | {ROOT}
            if all(p.is_root or p.parent() in candidate for p in candidate):
                yield frozenset(candidate)


def test_criterion_7_minimal_models_and_minimal_incomparables():
    singletons = [(p,) for p in TREE.points if not p.is_root]
    pairs = list(TruncatedTree(max_level=3).antichains(2, max_level=3))
    triples = list(TruncatedTree(max_level=2).antichains(3, max_level=2))
    families = singletons + pairs + triples
    checked = 0
    for antichain in families:
        model = minimal_model_containing(antichain)
        closed = model.closed_points()
        symbolic = minimal_incomparable_set(antichain)
        assert symbolic == closed.minus(antichain)
        oracle = oracles.brute_force_minimal_incomparable(TREE.points, antichain)
        assert TREE.members(symbolic) == oracle
        for alpha in antichain:
            assert model.contains_point(alpha)
        for sub in _proper_downward_closed_subsets(model.base.points):
            sub_model = NonsingularModel(BasePointSet(sub))
            assert not all(sub_model.contains_point(a) for a in antichain)
        checked += 1
    report(
        7,
        f"minimal models and minimal-incomparable sets for {checked} antichains "
        "(all singletons to level 4, pairs to level 3, triples to level 2), "
        "zero failures",
    )


def test_criterion_8_newton_closure_oracle():
    rng = seeded_rng(default=88)
    start = time.perf_counter()
    accepted = 0
    raw, closures = [], []
    while accepted < 1000:
        gens = oracles.random_m_primary_gens(rng)
        # the k <= 6 power test is exact exactly when every hull edge spans
        # at most 6 in each coordinate; stay inside that envelope
        if oracles.max_edge_span(gens) > 6:
            continue
        closed = MonomialIdeal(gens).integral_closure()
        assert closed == MonomialIdeal.of(*oracles.brute_force_closure(gens, kmax=6))
        assert closed.integral_closure() == closed
        raw.append(MonomialIdeal(gens))
        closures.append(closed)
        accepted += 1
    for i_raw, j_raw, i, j in zip(raw[:200], raw[200:400], closures[:200], closures[200:400]):
        product = (i_raw * j_raw).integral_closure()
        assert (i * j).integral_closure() == product
        assert product.newton_region().vertices == minkowski_sum(
            i.newton_region(), j.newton_region()
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"took {elapsed:.1f} s"
    report(
        8,
        f"polygon closure vs k<=6 power oracle on {accepted} random ideals, "
        f"idempotent and Minkowski-multiplicative, zero failures, {elapsed:.1f} s",
    )


def test_criterion_9_cross_layer_agreement():
    coordinate_points = [
        P(*path)
        for level in range(1, 5)
        for path in itertools.product("XY", repeat=level)
    ]
    assert len(coordinate_points) == 30
    checked = 0
    for point in coordinate_points:
        j = CompleteIdeal.simple(point).saturate()
        gens = generators_for_ideal(j)
        assert base_points(gens).points == j.base_points().points
        assert base_points(gens).points == oracles.descent_base_points(gens)
        assert factorize(gens) == j
        checked += 1
    binary = TruncatedTree(alphabet=("X", "Y"), max_level=4)
    for base in binary.downward_closed_sets(max_size=6):
        j = CompleteIdeal.of(sorted(base, key=lambda p: p.sort_key()))
        gens = generators_for_ideal(j)
        assert base_points(gens).points == j.base_points().points
        assert base_points(gens).points == oracles.descent_base_points(gens)
        assert factorize(gens) == j
        checked += 1
    report(
        9,
        f"combinatorial vs monomial vs transform-descent base points and "
        f"factorization round trip "
        f"on {checked} saturated toric ideals, zero failures",
    )


def test_criterion_10_euclid_correspondence():
    assert point_for_valuation(MonomialValuation(1, 2)) == P("X")
    assert point_for_valuation(MonomialValuation(2, 1)) == P("Y")
    checked = 0
    for p in range(1, 30):
        for q in range(1, 31 - p):
            if math.gcd(p, q) != 1:
                continue
            v = MonomialValuation(p, q)
            point = point_for_valuation(v)
            assert valuation_for_point(point) == v
            assert point_for_valuation(valuation_for_point(point)) == point
            checked += 1
    report(10, f"Euclidean correspondence round trip on {checked} coprime pairs, exact")
