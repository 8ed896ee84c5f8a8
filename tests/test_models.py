import itertools

import pytest

import oracles
from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CompleteIdeal,
    EmptyInput,
    NonsingularModel,
    NotAntichain,
    NotSaturated,
    OrderValuation,
    RootNotAllowed,
    SymbolicPointSet,
    UnitIdeal,
    minimal_desingularization,
    minimal_incomparable_set,
    minimal_model_containing,
    model_from_ideal,
)
from oracles import TruncatedTree
from qtree.render import model_to_dot

TREE = TruncatedTree(max_level=4)


def model_of(*pts):
    return NonsingularModel(BasePointSet.of(pts))


def random_models(draw_seed=0):
    rng = __import__("oracles").seeded_rng(default=77 + draw_seed)
    return [
        NonsingularModel(BasePointSet(TREE.random_downward_closed(rng, 6)))
        for _ in range(300)
    ]


def test_model_from_ideal():
    assert model_from_ideal(CompleteIdeal.simple(ROOT)) == model_of(ROOT)
    two = CompleteIdeal.of([ROOT, P("Y")])
    assert model_from_ideal(two) == model_of(ROOT, P("Y"))
    with pytest.raises(NotSaturated, match="unsaturated ideal is singular"):
        model_from_ideal(CompleteIdeal.simple(P("Y")))
    with pytest.raises(UnitIdeal, match="the unit ideal defines no projective model"):
        model_from_ideal(CompleteIdeal.unit())


def test_minimal_desingularization_refuses_the_unit_ideal():
    # the one refusal model_from_ideal reaches through it
    with pytest.raises(UnitIdeal, match="^the unit ideal defines no projective model$"):
        minimal_desingularization(CompleteIdeal.unit())


def test_minimal_desingularization():
    assert minimal_desingularization(CompleteIdeal.simple(P("Y"))) == model_of(
        ROOT, P("Y")
    )
    assert minimal_desingularization(CompleteIdeal.simple(ROOT)) == model_of(ROOT)
    assert minimal_desingularization(CompleteIdeal.simple(P("X", "X"))) == model_of(
        ROOT, P("X"), P("X", "X")
    )


def test_closed_points():
    assert model_of(ROOT).closed_points() == SymbolicPointSet.fan(ROOT)
    assert model_of(ROOT, P("Y")).closed_points() == SymbolicPointSet.fan(
        ROOT, ("Y",)
    ).union(SymbolicPointSet.fan(P("Y")))
    three = model_of(ROOT, P("X"), P("Y"))
    closed = three.closed_points()
    assert closed == SymbolicPointSet.fan(ROOT, ("X", "Y")).union(
        SymbolicPointSet.fan(P("X")), SymbolicPointSet.fan(P("Y"))
    )
    assert P("X", "Y") in closed and P("Y", "X") in closed


def test_text_form_lists_base_then_terminal_points():
    model = model_of(ROOT, P("X"), P("Y"), P("Y", "t1"))
    assert str(model) == "base: {D, X, Y, Y.t1}\nterminal: {X, Y.t1}"
    assert str(model_of(ROOT)) == "base: {D}\nterminal: {D}"


def test_contains_point():
    assert model_of(ROOT).contains_point(P("X"))
    # base points never lie on the model they define
    assert not model_of(ROOT, P("X")).contains_point(P("X"))
    assert not model_of(ROOT).contains_point(ROOT)


def test_closed_point_membership_is_parent_in_base_self_not():
    for base in TREE.downward_closed_sets(max_size=4, max_level=3):
        model = NonsingularModel(BasePointSet(base))
        closed = model.closed_points()
        for q in TREE.points:
            expected = not q.is_root and q.parent() in base and q not in base
            assert (q in closed) == expected
            assert model.contains_point(q) == expected


def test_dominates():
    assert model_of(ROOT, P("X")).dominates(model_of(ROOT))
    m = model_of(ROOT, P("X"))
    assert m.dominates(m)
    n = model_of(ROOT, P("Y"))
    assert not m.dominates(n)
    # the y-direction point is a closed point of m but dominates no closed
    # point of n: its only ancestors are itself (a base point of n, hence
    # off n) and the root (never a closed point)
    assert m.contains_point(P("Y"))
    dominated_in_n = [c for c in P("Y").chain() if n.contains_point(c)]
    assert dominated_in_n == []


def test_join():
    assert model_of(ROOT).join(model_of(ROOT, P("X"))) == model_of(ROOT, P("X"))
    assert model_of(ROOT, P("X")).join(model_of(ROOT, P("Y"))) == model_of(
        ROOT, P("X"), P("Y")
    )


def test_join_closed_point_law_instance():
    m, n = model_of(ROOT, P("X")), model_of(ROOT, P("Y"))
    joined = m.join(n)
    base_union = m.base.points | n.base.points
    expected = m.closed_points().union(n.closed_points()).minus(base_union)
    assert joined.closed_points() == expected


def test_domination_is_a_partial_order_and_join_is_least_upper_bound():
    models = random_models()
    for m in models[:40]:
        assert m.dominates(m)
    for m, n in zip(models[:100], models[100:200]):
        if m.dominates(n) and n.dominates(m):
            assert m == n
        j = m.join(n)
        assert j.dominates(m) and j.dominates(n)
        # any common upper bound dominates the join
        for w in models[200:240]:
            if w.dominates(m) and w.dominates(n):
                assert w.dominates(j)
        extended = NonsingularModel(
            BasePointSet(j.base.points | model_of(ROOT, P("t1")).base.points)
        )
        assert extended.dominates(m) and extended.dominates(n)
        assert extended.dominates(j)
    for m, n, w in zip(models[:60], models[60:120], models[120:180]):
        if m.dominates(n) and n.dominates(w):
            assert m.dominates(w)


def test_terminal_base_points_carry_exactly_the_full_fans():
    # a base point is terminal iff its whole first neighborhood is on the model
    for base in TREE.downward_closed_sets(max_size=5, max_level=3):
        model = NonsingularModel(BasePointSet(base))
        terminals = set(model.base.terminals())
        for fan in model.closed_points().fans:
            assert (fan.base in terminals) == (not fan.excluded)


def test_domination_sends_each_closed_point_onto_one_closed_point():
    # when M dominates N, every closed point of M lies over exactly one
    # closed point of N (the unique member of its chain on N)
    models = random_models(1)
    pairs_checked = 0
    for m in models[:60]:
        for n in models[60:120]:
            if not m.dominates(n):
                continue
            closed_n = n.closed_points()
            for q in TREE.members(m.closed_points()):
                below = [c for c in q.chain() if c in closed_n]
                assert len(below) == 1
            pairs_checked += 1
    assert pairs_checked > 0


def test_minimal_model_containing():
    assert minimal_model_containing([P("X")]) == model_of(ROOT)
    assert minimal_model_containing([P("X", "Y"), P("Y", "X")]) == model_of(
        ROOT, P("X"), P("Y")
    )
    assert minimal_model_containing([P("X", "Y")]) == model_of(ROOT, P("X"))


def test_minimal_model_containing_rejects_bad_input():
    with pytest.raises(EmptyInput):
        minimal_model_containing([])
    with pytest.raises(RootNotAllowed):
        minimal_model_containing([ROOT])
    with pytest.raises(NotAntichain):
        minimal_model_containing([P("X"), P("X", "Y")])


def test_minimal_model_contains_its_antichain_and_is_minimal():
    antichains = [
        [P("X")],
        [P("X", "Y")],
        [P("X", "Y"), P("Y", "X")],
        [P("X"), P("Y"), P("t1")],
        [P("X", "X", "Y"), P("X", "Y")],
    ]
    for s in antichains:
        model = minimal_model_containing(s)
        for alpha in s:
            assert model.contains_point(alpha)
        # no proper rooted downward-closed subset of the base carries all of S
        base = model.base.points
        non_root = sorted(base - {ROOT}, key=lambda p: p.sort_key())
        for size in range(len(non_root)):
            for subset in itertools.combinations(non_root, size):
                candidate = set(subset) | {ROOT}
                if any(not p.is_root and p.parent() not in candidate for p in candidate):
                    continue
                sub = NonsingularModel(BasePointSet(frozenset(candidate)))
                assert not all(sub.contains_point(alpha) for alpha in s)


def test_minimal_incomparable_set_examples():
    assert minimal_incomparable_set([P("X")]) == SymbolicPointSet.fan(ROOT, ("X",))
    assert minimal_incomparable_set([P("X", "Y")]) == SymbolicPointSet.fan(
        ROOT, ("X",)
    ).union(SymbolicPointSet.fan(P("X"), ("Y",)))
    assert minimal_incomparable_set(
        [P("X", "Y"), P("Y", "X")]
    ) == SymbolicPointSet.fan(ROOT, ("X", "Y")).union(
        SymbolicPointSet.fan(P("X"), ("Y",)), SymbolicPointSet.fan(P("Y"), ("X",))
    )


def test_minimal_incomparable_set_matches_brute_force():
    cases = [
        [P("X")],
        [P("X", "Y")],
        [P("X", "Y"), P("Y", "X")],
        [P("t1"), P("t2")],
        [P("X", "X"), P("X", "Y"), P("Y")],
    ]
    for s in cases:
        symbolic = minimal_incomparable_set(s)
        oracle = oracles.brute_force_minimal_incomparable(TREE.points, s)
        assert TREE.members(symbolic) == oracle


def test_model_ideal_round_trip():
    for base in TREE.downward_closed_sets(max_size=4, max_level=3):
        model = NonsingularModel(BasePointSet(base))
        assert model_from_ideal(model.ideal()) == model
    j = CompleteIdeal.of([ROOT, P("X"), P("X", "Y")])
    assert model_from_ideal(j).ideal() == j


def test_blowup_of_the_maximal_ideal_equivalences():
    # the five characterizations of the first blowup agree on every model
    for base in TREE.downward_closed_sets(max_size=4, max_level=3):
        model = NonsingularModel(BasePointSet(base))
        ideal = model.ideal()
        closed = model.closed_points()
        all_level_one_on_model = all(
            model.contains_point(q)
            for q in (P(l) for l in ("X", "Y", "t1", "t2"))
        )
        predicates = [
            all_level_one_on_model and not closed.fans[0].excluded,
            closed == SymbolicPointSet.fan(ROOT),
            model.base.points == {ROOT},
            ideal.rees_valuations() == {OrderValuation(ROOT)},
            ideal.support == (ROOT,),
        ]
        assert len(set(predicates)) == 1
    assert model_of(ROOT).closed_points() == SymbolicPointSet.fan(ROOT)


def test_desingularization_points_are_minimal_over_the_singular_model():
    # the blowup of (x, y^2) has one singular point, lying under the
    # y-direction base point; the minimal desingularization's closed points
    # are the level-one fan off that direction together with the full fan
    # above it, and each point of the latter is minimal over the singular
    # point's position: it properly dominates the y-direction point while
    # its parent is off the model
    n = minimal_desingularization(CompleteIdeal.simple(P("Y")))
    regular_part = SymbolicPointSet.fan(ROOT, ("Y",))
    over_singular = SymbolicPointSet.fan(P("Y"))
    assert n.closed_points() == regular_part.union(over_singular)
    assert not n.contains_point(P("Y"))
    for q in TREE.members(over_singular):
        assert P("Y").leq(q) and q != P("Y")
        assert not n.contains_point(q.parent())


def test_dot_rendering_is_deterministic_and_marks_terminals():
    model = model_of(ROOT, P("X"), P("Y"))
    dot = model_to_dot(model)
    assert dot == model_to_dot(model)
    assert dot.startswith("digraph")
    assert '"D" [label="D", style=filled' in dot
    assert dot.count("peripheries=2") == 2  # the two terminal base points
    assert '"D" -> "D.X"' in dot
    assert "style=dashed" in dot  # closed-point fans
    assert 'label="Q1(D) - {X, Y}"' in dot
