import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CofiniteFan,
    CompleteIdeal,
    Point,
    RootHasNoParent,
    SymbolicPointSet,
    minimal_incomparable_set,
    minimal_model_containing,
    sorted_points,
)
from oracles import TruncatedTree
from qtree.points import label_key
from qtree.serialize import point_from_json, pointset_from_json

# "X1" sorts between "X" and "Y" as a plain string, but after both in
# canonical label order
labels = st.sampled_from(["X", "Y", "t1", "t2", "X1"])
points = st.builds(lambda ls: Point(tuple(ls)), st.lists(labels, max_size=4))


def test_parent():
    assert P("X", "Y").parent() == P("X")
    assert P("Y").parent() == ROOT
    with pytest.raises(RootHasNoParent):
        ROOT.parent()


def test_last_label():
    assert P("X", "Y").last_label == "Y"
    with pytest.raises(RootHasNoParent):
        ROOT.last_label


def test_chain():
    assert ROOT.chain() == (ROOT,)
    assert P("X", "Y").chain() == (ROOT, P("X"), P("X", "Y"))
    # the second-level point reached from the y-direction through the
    # x-direction passes through exactly the y-direction point
    assert P("Y", "X").chain() == (ROOT, P("Y"), P("Y", "X"))


def test_leq():
    assert ROOT.leq(ROOT)
    assert ROOT.leq(P("X", "Y", "t1"))
    assert P("X").leq(P("X", "Y"))
    assert not P("X").leq(P("Y"))
    assert not P("X", "Y").leq(P("X"))


def test_meet():
    assert P("X", "Y").meet(P("X", "X")) == P("X")
    assert P("X").meet(P("Y")) == ROOT
    p = P("X", "Y", "t1")
    assert p.meet(p) == p


def test_is_antichain():
    def is_antichain(points):
        return SymbolicPointSet.of_points(points).is_antichain()

    assert is_antichain({P("X"), P("Y")})
    assert not is_antichain({ROOT, P("X")})
    assert is_antichain({P("X", "Y"), P("Y", "X")})
    assert is_antichain(set())


def test_constructors_check_and_normalize_their_input():
    # every way a label enters the library refuses the same bad labels the
    # same way
    for label in ("", 3, True, b"X", None):
        for make in (
            lambda: Point(("a", label)),
            lambda: P("X").child(label),
            lambda: CofiniteFan(ROOT, ("t1", label)),
            lambda: TruncatedTree(("X", label), 1).points,
            lambda: point_from_json({"path": ["a", label]}),
            lambda: pointset_from_json(
                {"cofinite": [{"base": {"path": []}, "excluded": ["t1", label]}]}
            ),
        ):
            with pytest.raises(ValueError, match="^direction labels must be nonempty strings$"):
                make()
    # a bare string is refused where a label sequence is taken, is one
    # label for ``child``, spells an alphabet letter by letter, and is no
    # JSON list
    for make in (lambda: Point("XY"), lambda: CofiniteFan(ROOT, "XY")):
        with pytest.raises(ValueError, match="^labels come as a sequence of strings, not as one string$"):
            make()
    assert P("X").child("XY").path == ("X", "XY")
    assert TruncatedTree("YX", 1).points == (ROOT, P("X"), P("Y"))
    with pytest.raises(ValueError, match="^a point path is a list of label strings$"):
        point_from_json({"path": "XY"})
    # a truncation to the root alone reads no label
    assert TruncatedTree(("",), 0).points == (ROOT,)

    class Label(str):
        pass

    class Path(tuple):
        pass

    path = Path(("X", Label("t1")))
    assert Point(path).path is path
    assert P("X").child(Label("t1")) == P("X", "t1")
    assert CofiniteFan(ROOT, (Label("t1"), "X")).excluded == ("X", "t1")
    made = Point(["X", "Y"])
    assert made.path == ("X", "Y") and type(made.path) is tuple
    # a fan with one bad excluded label: test_fan_refuses_an_empty_excluded_label
    assert CofiniteFan(ROOT, ("t1", "t1")).excluded == ("t1",)
    assert CofiniteFan(ROOT, ("t1", "X")).excluded == ("X", "t1")
    assert CofiniteFan(ROOT, ["t1"]).excluded == ("t1",)
    assert CofiniteFan(ROOT, iter(["t2", "Y"])).excluded == ("Y", "t2")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Point("t1"),
        lambda: CofiniteFan(ROOT, "t1"),
        lambda: SymbolicPointSet.fan(ROOT, "XY"),
    ],
    ids=["point", "fan", "set of a fan"],
)
def test_a_bare_string_is_not_a_label_sequence(make):
    # it was split into one-letter labels: the point t.1, the fan
    # Q1(D) - {1, t}, and a fan excluding both X and Y
    with pytest.raises(ValueError, match="^labels come as a sequence of strings, not as one string$"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: SymbolicPointSet.of_points("XY"),
        lambda: SymbolicPointSet.of_points([P("X")]).minus("XY"),
        lambda: BasePointSet.of("XY"),
        lambda: CompleteIdeal.of("XY"),
        lambda: minimal_model_containing("XY"),
        lambda: minimal_incomparable_set("XY"),
    ],
    ids=["of_points", "minus", "base set", "ideal", "minimal model", "minimal incomparable"],
)
def test_a_bare_string_is_not_a_point_sequence(make):
    # each failed on the one-letter strings with an AttributeError
    with pytest.raises(ValueError, match="^labels come as a sequence of strings, not as one string$"):
        make()


# "A" sorts before "X" as a plain string and "X1" between "X" and "Y", but
# both after "Y" in canonical label order
order_labels = st.sampled_from(["X", "Y", "A", "X1", "t1"])
order_paths = st.lists(order_labels, max_size=4).map(tuple)


@given(
    st.lists(order_paths, max_size=8),
    st.lists(st.tuples(order_paths, st.lists(order_labels, max_size=3)), max_size=4),
)
def test_parts_come_out_in_sort_key_order(single_paths, fan_parts):
    s = SymbolicPointSet(
        tuple(map(Point, single_paths)),
        tuple(CofiniteFan(Point(base), tuple(excluded)) for base, excluded in fan_parts),
    )
    for keys in (
        [p.sort_key() for p in s.singles],
        [f.base.sort_key() for f in s.fans],
    ):
        # strictly increasing: in order and without repeats
        assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(f.excluded == tuple(sorted(f.excluded, key=label_key)) for f in s.fans)


def test_partial_order_axioms_exhaustive():
    # every point of level <= 5 over a 3-letter alphabet
    tree = TruncatedTree(alphabet=("X", "Y", "t1"), max_level=5)
    pts = tree.points
    for a in pts:
        assert a.leq(a)
    for a, b in itertools.combinations(pts, 2):
        assert not (a.leq(b) and b.leq(a))
    comparable = [(a, b) for b in pts for a in b.chain()]
    for a, b in comparable:
        for c in pts:
            if b.leq(c):
                assert a.leq(c)


def test_chain_is_the_unique_totally_ordered_ancestor_set():
    tree = TruncatedTree(max_level=4)
    for p in tree.points:
        chain = p.chain()
        assert len(chain) == p.level + 1
        assert chain[0] == ROOT and chain[-1] == p
        for a, b in zip(chain, chain[1:]):
            assert a.leq(b) and a != b
        ancestors = {q for q in tree.points if q.leq(p)}
        assert ancestors == set(chain)


@given(points, points)
def test_meet_commutes(a, b):
    assert a.meet(b) == b.meet(a)


@given(points, points, points)
def test_meet_associative(a, b, c):
    assert a.meet(b).meet(c) == a.meet(b.meet(c))


@given(points, points)
def test_meet_is_the_greatest_lower_bound(a, b):
    m = a.meet(b)
    assert m.leq(a) and m.leq(b)
    common = set(a.chain()) & set(b.chain())
    assert m in common
    for c in common:
        assert c.leq(m)


def test_sorted_points_orders_reserved_labels_first():
    pts = [P("t1"), P("Y"), P("X"), ROOT, P("X", "t1"), P("X", "Y")]
    assert sorted_points(pts) == (
        ROOT,
        P("X"),
        P("Y"),
        P("t1"),
        P("X", "Y"),
        P("X", "t1"),
    )
    # fewer than two points are in order as they come
    assert sorted_points(iter([P("t1")])) == (P("t1"),)
    assert sorted_points(()) == ()


class TestSymbolicPointSet:
    def test_fan_membership(self):
        s = SymbolicPointSet.fan(ROOT, ("X",))
        assert P("Y") in s
        assert P("t1") in s
        assert P("X") not in s
        assert ROOT not in s
        assert P("Y", "X") not in s

    def test_single_membership(self):
        s = SymbolicPointSet.of_points([P("X", "Y")])
        assert P("X", "Y") in s
        assert P("X") not in s

    def test_union_subsumes_singles_into_fans(self):
        s = SymbolicPointSet.fan(ROOT, ("X",)).union(
            SymbolicPointSet.of_points([P("X")])
        )
        assert s == SymbolicPointSet.fan(ROOT)
        assert not s.singles

    def test_union_merges_fans_over_one_base(self):
        s = SymbolicPointSet.fan(ROOT, ("X",)).union(SymbolicPointSet.fan(ROOT, ("Y",)))
        # a point excluded from only one of the two fans is in the union
        assert s == SymbolicPointSet.fan(ROOT)

    def test_minus_grows_excluded_sets(self):
        q1 = SymbolicPointSet.fan(ROOT)
        assert q1.minus([P("X")]) == SymbolicPointSet.fan(ROOT, ("X",))
        assert P("X") not in q1.minus([P("X")])

    def test_minus_drops_singles_and_ignores_nonmembers(self):
        s = SymbolicPointSet.of_points([P("X"), P("Y")])
        assert s.minus([P("X")]) == SymbolicPointSet.of_points([P("Y")])
        assert s.minus([P("t1", "t2")]) == s

    def test_root_single_survives_canonicalization(self):
        s = SymbolicPointSet.of_points([ROOT]).union(SymbolicPointSet.fan(ROOT))
        assert ROOT in s
        assert s.singles == (ROOT,)

    def test_minimal_points_comparable_singles(self):
        s = SymbolicPointSet.of_points([P("X"), P("X", "Y")])
        assert s.minimal_points() == SymbolicPointSet.of_points([P("X")])

    def test_minimal_points_fan_absorbs_deeper_single(self):
        s = SymbolicPointSet.fan(ROOT).union(
            SymbolicPointSet.of_points([P("X", "Y")])
        )
        assert s.minimal_points() == SymbolicPointSet.fan(ROOT)

    def test_minimal_points_drops_dominated_fan(self):
        s = SymbolicPointSet.fan(P("X")).union(SymbolicPointSet.of_points([P("X")]))
        assert s.minimal_points() == SymbolicPointSet.of_points([P("X")])

    def test_antichain_detection(self):
        assert SymbolicPointSet.fan(ROOT).is_antichain()
        assert SymbolicPointSet.of_points([P("X", "Y"), P("Y", "X")]).is_antichain()
        assert not SymbolicPointSet.of_points([P("X"), P("X", "Y")]).is_antichain()
        # the fan at the root contains the parent of the deeper single
        mixed = SymbolicPointSet.fan(ROOT).union(
            SymbolicPointSet.of_points([P("X", "Y")])
        )
        assert not mixed.is_antichain()
        # excluding that parent's direction restores incomparability
        assert (
            SymbolicPointSet.fan(ROOT, ("X",))
            .union(SymbolicPointSet.of_points([P("X", "Y")]))
            .is_antichain()
        )
        # fan over fan: the deeper fan's base lies in the shallower fan
        assert not SymbolicPointSet(
            fans=(CofiniteFan(ROOT), CofiniteFan(P("X")))
        ).is_antichain()
        assert SymbolicPointSet(
            fans=(CofiniteFan(ROOT, ("X",)), CofiniteFan(P("X")))
        ).is_antichain()

    def test_str_lists_fans_then_singles(self):
        assert str(SymbolicPointSet.empty()) == "{}"
        assert str(SymbolicPointSet.of_points([P("X", "Y"), P("t1")])) == "{t1, X.Y}"
        s = SymbolicPointSet((P("X", "Y"), P("t1")), (CofiniteFan(P("Y"), ("t2", "X")),))
        assert str(s) == "Q1(Y) - {X, t2} + {t1, X.Y}"

    def test_fan_refuses_an_empty_excluded_label(self):
        # no point carries the label "", so Q1(D) - {""} would be the full
        # fan under another name; it is refused as an empty path label is
        for make in (
            lambda: Point(("",)),
            lambda: CofiniteFan(ROOT, ("",)),
            lambda: SymbolicPointSet.fan(ROOT, ("X", "")),
            lambda: CofiniteFan(ROOT, (3,)),
        ):
            with pytest.raises(ValueError, match="^direction labels must be nonempty strings$"):
                make()

    def test_fan_refuses_a_base_that_is_not_a_point(self):
        # as a complete ideal refuses a factor that is not a point
        for base in ("X", ("X",), None):
            with pytest.raises(ValueError, match="^a fan's base must be a point$"):
                CofiniteFan(base)


# randomized soundness of the symbolic representation against enumeration

atoms = st.lists(
    st.one_of(
        points.map(lambda p: SymbolicPointSet.of_points([p])),
        st.tuples(
            st.builds(lambda ls: Point(tuple(ls)), st.lists(labels, max_size=3)),
            st.sets(labels, max_size=3),
        ).map(lambda t: SymbolicPointSet.fan(t[0], tuple(t[1]))),
    ),
    max_size=4,
)

TREE = TruncatedTree(alphabet=("X", "Y", "t1", "t2", "X1"), max_level=4)


def naive_members(s: SymbolicPointSet) -> frozenset[Point]:
    out = set()
    for p in TREE.points:
        if p in set(s.singles):
            out.add(p)
        for fan in s.fans:
            if (
                not p.is_root
                and p.parent() == fan.base
                and p.last_label not in fan.excluded
            ):
                out.add(p)
    return frozenset(out)


@given(atoms)
def test_membership_matches_enumeration(parts):
    s = SymbolicPointSet.empty().union(*parts)
    assert TREE.members(s) == naive_members(s)


@given(atoms, atoms)
def test_union_matches_enumeration(parts1, parts2):
    s1 = SymbolicPointSet.empty().union(*parts1)
    s2 = SymbolicPointSet.empty().union(*parts2)
    assert TREE.members(s1.union(s2)) == TREE.members(s1) | TREE.members(s2)


@given(atoms, st.sets(points, max_size=3))
def test_minus_matches_enumeration(parts, removed):
    s = SymbolicPointSet.empty().union(*parts)
    assert TREE.members(s.minus(removed)) == TREE.members(s) - removed


@given(atoms, atoms)
def test_subset_matches_enumeration_one_way(parts1, parts2):
    s1 = SymbolicPointSet.empty().union(*parts1)
    s2 = SymbolicPointSet.empty().union(*parts2)
    if s1.union(s2) == s2:
        assert TREE.members(s1) <= TREE.members(s2)


@given(atoms)
def test_minimal_points_matches_enumeration(parts):
    s = SymbolicPointSet.empty().union(*parts)
    members = TREE.members(s)
    expected = {
        p for p in members if not any(q != p and q.leq(p) for q in members)
    }
    got = TREE.members(s.minimal_points())
    # enumeration only sees the truncation, but fan members at one level all
    # behave alike, so agreement on the truncation pins the general claim
    assert got == expected


@given(atoms)
def test_antichain_iff_minimal_points_fixed(parts):
    s = SymbolicPointSet.empty().union(*parts)
    assert s.is_antichain() == (s.minimal_points() == s)
