import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import P
from qtree import (
    INFINITE,
    ROOT,
    BasePointSet,
    CofiniteFan,
    IntersectionDescriptor,
    InvalidDescriptor,
    NonsingularModel,
    Point,
    SymbolicPointSet,
    Verdict,
    classify,
    is_complete_representation,
    represents_same_ring,
)
from oracles import TruncatedTree

TREE = TruncatedTree(max_level=4)


def model_of(*pts):
    return NonsingularModel(BasePointSet.of(pts))


BLOWUP = model_of(ROOT)
EX_MODEL = model_of(ROOT, P("X"), P("Y"))  # the three-base-point model
DOUBLE_POINT_MODEL = model_of(ROOT, P("Y"))


def fan(base, *excluded):
    return SymbolicPointSet.fan(base, excluded)


def singles(*pts):
    return SymbolicPointSet.of_points(pts)


class TestDescriptorValidation:
    def test_accepts_closed_point_singles(self):
        d = IntersectionDescriptor(EX_MODEL, singles(P("X", "Y"), P("Y", "X")))
        assert not d.henselian

    def test_rejects_base_points(self):
        with pytest.raises(InvalidDescriptor):
            IntersectionDescriptor(EX_MODEL, singles(P("X")))

    def test_rejects_points_off_the_model(self):
        with pytest.raises(InvalidDescriptor):
            IntersectionDescriptor(BLOWUP, singles(P("X", "Y")))

    def test_rejects_fans_not_based_at_base_points(self):
        with pytest.raises(InvalidDescriptor):
            IntersectionDescriptor(BLOWUP, fan(P("X")))

    def test_rejects_empty_subsets(self):
        with pytest.raises(InvalidDescriptor):
            IntersectionDescriptor(BLOWUP, SymbolicPointSet.empty())

    @pytest.mark.parametrize("flag", ["no", 0, 1, None])
    def test_rejects_a_henselian_flag_that_is_not_a_bool(self, flag):
        # "no" is truthy, and was judged by the Henselian rule
        with pytest.raises(ValueError, match="^henselian must be a boolean$"):
            IntersectionDescriptor(EX_MODEL, singles(P("X", "Y")), henselian=flag)

    @pytest.mark.parametrize("flag", [True, False])
    def test_accepts_a_bool_henselian_flag(self, flag):
        d = IntersectionDescriptor(EX_MODEL, singles(P("X", "Y")), henselian=flag)
        assert d.henselian is flag


class TestClassify:
    def test_two_incomparable_second_level_points(self):
        d = IntersectionDescriptor(EX_MODEL, singles(P("X", "Y"), P("Y", "X")))
        c = classify(d)
        assert c.maximal_ideal_count == 2
        assert c.irredundant is Verdict.YES
        assert c.essential is Verdict.YES
        assert c.noetherian

    def test_full_first_neighborhood_of_the_root(self):
        d = IntersectionDescriptor(BLOWUP, fan(ROOT))
        c = classify(d)
        assert c.maximal_ideal_count == INFINITE
        assert c.irredundant is Verdict.YES
        # the intersection is the root ring itself, so nothing is essential
        assert c.essential is Verdict.NO
        assert c.ring_point == ROOT

    def test_proper_cofinite_subset_of_the_first_neighborhood(self):
        d = IntersectionDescriptor(BLOWUP, fan(ROOT, "X"))
        c = classify(d)
        assert c.irredundant is Verdict.YES
        assert c.essential is Verdict.YES
        assert c.ring_point is None

    def test_full_first_neighborhood_of_a_deeper_point(self):
        model = model_of(ROOT, P("X"))
        d = IntersectionDescriptor(model, fan(P("X")))
        c = classify(d)
        assert c.essential is Verdict.NO
        assert c.ring_point == P("X")
        d_proper = IntersectionDescriptor(model, fan(P("X"), "Y"))
        assert classify(d_proper).essential is Verdict.YES

    def test_henselian_upgrades_infinite_antichains(self):
        subset = fan(ROOT, "Y").union(fan(P("Y")))
        plain = IntersectionDescriptor(DOUBLE_POINT_MODEL, subset, henselian=False)
        hens = IntersectionDescriptor(DOUBLE_POINT_MODEL, subset, henselian=True)
        assert classify(plain).irredundant is Verdict.UNKNOWN
        assert classify(hens).irredundant is Verdict.YES

    def test_ordinary_double_point_instance(self):
        subset = fan(ROOT, "Y").union(singles(P("Y", "X")))
        d = IntersectionDescriptor(DOUBLE_POINT_MODEL, subset)
        c = classify(d)
        assert c.singularity == "ordinary double point"
        # the singularity report is pinned to this one instance
        other = IntersectionDescriptor(DOUBLE_POINT_MODEL, fan(ROOT, "Y"))
        assert classify(other).singularity is None

    def test_text_form_gives_each_verdict_its_basis(self):
        c = classify(IntersectionDescriptor(BLOWUP, fan(ROOT)))
        assert str(c) == "\n".join(
            [
                "noetherian: YES",
                f"  ({c.noetherian_basis})",
                "maximalIdealCount: INFINITE",
                f"  ({c.count_basis})",
                "irredundant: YES",
                f"  ({c.irredundant_basis})",
                "essential: NO",
                f"  ({c.essential_basis})",
                "ringPoint: D",
            ]
        )
        subset = fan(ROOT, "Y").union(singles(P("Y", "X")))
        named = classify(IntersectionDescriptor(DOUBLE_POINT_MODEL, subset))
        assert str(named).endswith(
            f"essential: UNKNOWN\n  ({named.essential_basis})\nsingularity: ordinary double point"
        )
        # a ring point and a singularity are printed only when set
        finite = str(classify(IntersectionDescriptor(EX_MODEL, singles(P("X", "Y")))))
        assert len(finite.splitlines()) == 8
        assert "ringPoint" not in finite and "singularity" not in finite

    def test_finite_antichains_of_every_size_up_to_five(self):
        # exhaustive over the level-2 truncation
        small = TruncatedTree(max_level=2)
        for size in (1, 2, 3, 4, 5):
            seen = 0
            for chosen in small.antichains(size):
                model = __import__("qtree").minimal_model_containing(chosen)
                c = classify(IntersectionDescriptor(model, singles(*chosen)))
                assert c.maximal_ideal_count == size
                assert c.irredundant is Verdict.YES
                assert c.essential is Verdict.YES
                seen += 1
            assert seen > 0

    def test_removing_non_minimal_members_changes_nothing(self):
        rng = __import__("oracles").seeded_rng(default=4242)
        exercised = 0
        for _ in range(300):
            atoms = SymbolicPointSet.empty()
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    atoms = atoms.union(singles(TREE.random_point(rng, 1)))
                else:
                    base = TREE.random_point(rng)
                    if base.level < TREE.max_level:
                        atoms = atoms.union(SymbolicPointSet.fan(base))
            if atoms.is_empty:
                continue
            minimal = atoms.minimal_points()
            non_minimal = [
                p for p in TREE.members(atoms) if p not in minimal
            ]
            for p in non_minimal[:3]:
                assert atoms.minus([p]).minimal_points() == minimal
                exercised += 1
        assert exercised > 0

    def test_henselian_flag_only_upgrades(self):
        rng = __import__("oracles").seeded_rng(default=11)
        upgraded = 0
        for _ in range(200):
            base = TREE.random_downward_closed(rng, 5)
            model = NonsingularModel(BasePointSet(base))
            closed = model.closed_points()
            members = sorted(TREE.members(closed), key=lambda p: p.sort_key())
            atoms = SymbolicPointSet.empty()
            if rng.random() < 0.7:
                keep = [f for f in closed.fans if rng.random() < 0.6]
                atoms = atoms.union(SymbolicPointSet(fans=tuple(keep)))
            picks = rng.sample(members, k=min(len(members), rng.randint(0, 3)))
            picks = [p for p in picks if p not in atoms]
            atoms = atoms.union(singles(*picks))
            if atoms.is_empty:
                continue
            plain = classify(IntersectionDescriptor(model, atoms, henselian=False))
            hens = classify(IntersectionDescriptor(model, atoms, henselian=True))
            assert plain.maximal_ideal_count == hens.maximal_ideal_count
            assert plain.essential is hens.essential
            if plain.irredundant is Verdict.YES:
                assert hens.irredundant is Verdict.YES
            elif plain.irredundant is Verdict.NO:
                assert hens.irredundant is Verdict.NO
            else:
                assert hens.irredundant in (Verdict.YES, Verdict.UNKNOWN)
                if hens.irredundant is Verdict.YES:
                    upgraded += 1
        assert upgraded > 0


class TestMinimalPoints:
    def test_finite_antichain_is_fixed(self):
        d = IntersectionDescriptor(EX_MODEL, singles(P("X", "Y"), P("Y", "X")))
        assert d.subset.minimal_points() == d.subset

    def test_fan_absorbs_deeper_single(self):
        subset = fan(ROOT).union(singles(P("X", "Y")))
        assert subset.minimal_points() == fan(ROOT)

    def test_classify_flags_non_minimal_subsets(self):
        # a set with comparable members is no descriptor's subset: the fan
        # holds the base point X, below the single
        subset = fan(ROOT).union(singles(P("X", "Y")))
        assert subset.minimal_points() != subset
        with pytest.raises(InvalidDescriptor, match="fan Q1\\(D\\) holds the base point X"):
            IntersectionDescriptor(model_of(ROOT, P("X")), subset)


class TestCompleteRepresentation:
    def test_full_closed_point_set_is_complete(self):
        for model in (BLOWUP, EX_MODEL, DOUBLE_POINT_MODEL):
            d = IntersectionDescriptor(model, model.closed_points())
            assert is_complete_representation(d) is Verdict.YES

    def test_first_neighborhood_minus_a_point_is_not(self):
        d = IntersectionDescriptor(BLOWUP, fan(ROOT, "X"))
        assert is_complete_representation(d) is Verdict.NO

    def test_henselian_proper_subsets_are_not(self):
        subset = fan(ROOT, "Y")
        d = IntersectionDescriptor(DOUBLE_POINT_MODEL, subset, henselian=True)
        assert is_complete_representation(d) is Verdict.NO

    def test_proper_subsets_of_the_root_neighborhood_are_never_complete(self):
        # regardless of the ambient model and without the Henselian flag
        d = IntersectionDescriptor(DOUBLE_POINT_MODEL, fan(ROOT, "Y"))
        assert is_complete_representation(d) is Verdict.NO

    def test_subsets_above_a_fixed_point_are_never_complete(self):
        # every member contains the y-direction point, hence so does the
        # intersection, which therefore is not the root ring
        d = IntersectionDescriptor(DOUBLE_POINT_MODEL, fan(P("Y")))
        assert is_complete_representation(d) is Verdict.NO

    def test_fallback_is_unknown(self):
        # infinite proper subset spreading over both directions, not within
        # the root's first neighborhood, no Henselian hypothesis
        subset = fan(P("X")).union(fan(P("Y")))
        d = IntersectionDescriptor(EX_MODEL, subset, henselian=False)
        assert is_complete_representation(d) is Verdict.UNKNOWN


def test_ring_identity_ignores_redundant_members():
    # a descriptor's subset holds no redundant member: it is an antichain
    lean = IntersectionDescriptor(BLOWUP, fan(ROOT))
    assert represents_same_ring(lean, IntersectionDescriptor(model_of(ROOT), fan(ROOT)))
    other = IntersectionDescriptor(BLOWUP, fan(ROOT, "t1"))
    assert not represents_same_ring(lean, other)


labels = st.sampled_from(["X", "Y", "A", "t1"])
tips = st.lists(st.lists(labels, max_size=4).map(tuple), max_size=6)


@given(tips, st.booleans(), st.data())
def test_recorded_facts_match_the_sweep(paths, closure_made, data):
    # a base set of given points or a closure of them; each fan's base is
    # the model's own point or an equal one, so both ways of matching a
    # base run
    if closure_made:
        base = BasePointSet.downward_closure(map(Point, paths))
    else:
        base = BasePointSet.of({ROOT} | {Point(p[:i]) for p in paths for i in range(len(p) + 1)})
    model = NonsingularModel(base)
    singles, fans, holding = [], [], False
    for member, above in base.labels_above():
        b = member if data.draw(st.booleans()) else Point(member.path)
        kind = data.draw(st.sampled_from(["none", "inside", "holding", "single"]))
        if kind == "inside":
            # every closed point over the base, or all but some of them
            fans.append(CofiniteFan(b, above + tuple(data.draw(st.lists(labels, max_size=2)))))
        elif kind == "holding" and above:
            # the fan holds at least one base point directly above its base
            kept = data.draw(st.lists(st.sampled_from(above), max_size=len(above) - 1))
            fans.append(CofiniteFan(b, kept))
            holding = True
        elif kind == "single":
            label = data.draw(st.sampled_from(["X", "Y", "A", "t1", "t2"]))
            if label not in above:
                singles.append(member.child(label))
    if data.draw(st.booleans()):
        singles, fans, holding = [], list(model.closed_points().fans), False
    if not singles and not fans:
        return
    subset = SymbolicPointSet(tuple(singles), tuple(fans))
    if holding:
        # a descriptor names closed points only
        with pytest.raises(InvalidDescriptor, match="holds the base point"):
            IntersectionDescriptor(model, subset)
        return
    d = IntersectionDescriptor(model, subset)
    # an equal set the constructor makes, whose queries run the sweep
    again = SymbolicPointSet(
        d.subset.singles, tuple(CofiniteFan(f.base, f.excluded) for f in d.subset.fans)
    )
    assert again == d.subset
    assert d.subset.is_antichain() is again.is_antichain()
    assert again.is_antichain() is oracles.reference_set_antichain(again)
    assert d.subset.minimal_points() == again.minimal_points()
    complete = is_complete_representation(d) is Verdict.YES
    assert complete is oracles.reference_is_full_closed_set(d)
