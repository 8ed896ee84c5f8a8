"""The indexed point core against quadratic reference definitions.

Base-set queries are answered from an index that links each member to its
parent's node, found by the parent's path, fan and antichain queries from a
path-keyed index and one sweep; ``oracles`` keeps the pairwise definitions
they replace.  A base set's members may come with their parents (made by
``child`` or ``parent``), or each alone from its path, or both mixed; the
index must answer alike.  The label alphabet includes
``A``, which sorts before ``X`` as a plain string, and ``X1``, which sorts
between ``X`` and ``Y``, but both after ``Y`` in canonical label order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
import qtree
from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CofiniteFan,
    CompleteIdeal,
    EmptyInput,
    InvalidBasePoints,
    NonsingularModel,
    NotAntichain,
    Point,
    RootNotAllowed,
    SymbolicPointSet,
    TruncatedTree,
    minimal_model_containing,
    sorted_points,
)
from qtree.cli import main

labels = st.sampled_from(["X", "Y", "A", "X1", "t1"])
paths = st.lists(labels, max_size=5).map(tuple)
points = paths.map(Point)


def closure(path_list):
    """Every prefix of every path, as points: a rooted downward-closed set."""
    return {Point(p[:i]) for p in path_list for i in range(len(p) + 1)} | {ROOT}


def linked_closure(path_list):
    """The same set, each member made by ``child`` from its parent."""
    made = {(): ROOT}
    for path in path_list:
        for i in range(1, len(path) + 1):
            if path[:i] not in made:
                made[path[:i]] = made[path[: i - 1]].child(path[i - 1])
    return set(made.values())


def mixed_closure(path_lists):
    """Members made alone and members made by ``child``, one set."""
    alone, linked = path_lists
    return closure(alone) | linked_closure(linked)


path_lists = st.lists(paths, max_size=25)
base_sets = st.one_of(
    path_lists.map(closure),
    path_lists.map(linked_closure),
    st.tuples(path_lists, path_lists).map(mixed_closure),
)
fans = st.tuples(points, st.lists(labels, max_size=3)).map(
    lambda t: CofiniteFan(t[0], tuple(t[1]))
)
raw_sets = st.tuples(st.lists(points, max_size=8), st.lists(fans, max_size=5))
symbolic_sets = raw_sets.map(lambda r: SymbolicPointSet(tuple(r[0]), tuple(r[1])))


@given(base_sets)
def test_sorted_is_canonical_order(pts):
    assert BasePointSet.of(pts).sorted() == oracles.reference_sorted(pts)
    assert tuple(BasePointSet.of(pts)) == oracles.reference_sorted(pts)


@given(base_sets)
def test_terminals_are_the_maximal_members(pts):
    assert BasePointSet.of(pts).terminals() == oracles.reference_terminals(pts)


@given(base_sets, points)
def test_child_labels(pts, base):
    above = dict(BasePointSet.of(pts).labels_above())
    for p in list(pts) + [base]:
        assert above.get(p, ()) == oracles.reference_child_labels(pts, p)


@given(base_sets)
def test_closed_points(pts):
    model = NonsingularModel(BasePointSet.of(pts))
    assert oracles.parts(model.closed_points()) == oracles.reference_closed_points(pts)


@given(path_lists, path_lists)
def test_union_of_linked_sets(left, right):
    # each side's members link to their own parents; the union keeps one
    # of two equal points, so some parents are equal to members, not them
    union = BasePointSet.of(linked_closure(left)).union(BasePointSet.of(linked_closure(right)))
    pts = closure(left + right)
    assert union.points == pts
    assert union.sorted() == oracles.reference_sorted(pts)
    assert union.terminals() == oracles.reference_terminals(pts)


@given(st.lists(points, min_size=1, max_size=4), st.integers(1, 3))
def test_is_saturated_matches_the_support_definition(support, mult):
    ideal = CompleteIdeal.of({p: mult for p in support})
    assert ideal.is_saturated() == oracles.reference_is_saturated(ideal)
    assert ideal.saturate().is_saturated()


@given(path_lists, st.data())
def test_a_missing_root_or_parent_is_refused(path_list, data):
    parents = {path[:i] for path in path_list for i in range(1, len(path))}
    gap = data.draw(st.sampled_from(sorted(parents))) if parents else None
    for make in (closure, linked_closure):
        pts = make(path_list)
        with pytest.raises(InvalidBasePoints):
            BasePointSet.of(pts - {ROOT})
        if gap is not None:
            with pytest.raises(InvalidBasePoints):
                BasePointSet.of(pts - {Point(gap)})


def by_child(path):
    """The point on ``path``, made by ``child`` from the root up."""
    p = ROOT
    for label in path:
        p = p.child(label)
    return p


def from_a_closure(path):
    """The point on ``path`` as a closure made it, below a longer path."""
    return BasePointSet.downward_closure([Point(path + ("X",))]).sorted()[len(path)]


@given(st.lists(paths, max_size=10), st.data())
def test_downward_closure_is_the_union_of_chains(path_list, data):
    # the support may hold the root and points that are prefixes of one
    # another, made from paths, by ``child`` or by another closure
    support = path_list + [p[: data.draw(st.integers(0, len(p)))] for p in path_list]
    makers = st.sampled_from([Point, by_child, from_a_closure])
    given_points = [data.draw(makers)(p) for p in support]
    base = BasePointSet.downward_closure(given_points)
    expected = closure(support)
    assert base.points == expected and len(base) == len(expected)
    assert base.sorted() == oracles.reference_sorted(expected)
    assert base.terminals() == oracles.reference_terminals(expected)
    above = dict(base.labels_above())
    assert all(above[p] == oracles.reference_child_labels(expected, p) for p in expected)


def closure_made(path_list):
    """A closure's members in canonical order, beside the plain points on
    their paths; no member has read its path yet."""
    made = BasePointSet.downward_closure(Point(p) for p in path_list).sorted()
    return made, oracles.reference_sorted(closure(path_list))


@given(st.lists(st.lists(labels, min_size=2, max_size=5).map(tuple), min_size=1, max_size=6))
def test_closure_made_points_act_as_plain_points(path_list):
    made, plain = closure_made(path_list)
    assert any(type(q) is not Point for q in made)
    # deepest first, so a path is built from an ancestor that has none yet
    for q, p in reversed(list(zip(made, plain))):
        assert p == q and q == p and not (q != p)
    made, plain = closure_made(path_list)
    assert [hash(q) for q in made] == [hash(p) for p in plain]
    assert sorted_points(made[::-1]) == plain
    assert set(made) == set(plain) and all(p in set(made) for p in plain)
    for q, p in zip(made, plain):
        assert repr(q) == repr(p) and str(q) == str(p)
        assert (q.level, q.is_root, q.sort_key()) == (p.level, p.is_root, p.sort_key())
        if not p.is_root:
            assert q.parent() == p.parent() and q.last_label == p.last_label
        for q2, p2 in zip(made, plain):
            assert q.leq(q2) == p.leq(p2)
            assert q.meet(q2) == p.meet(p2)


@given(raw_sets)
def test_fan_fold(raw):
    singles, fan_list = raw
    s = SymbolicPointSet(tuple(singles), tuple(fan_list))
    assert oracles.parts(s) == oracles.reference_fold(
        singles, [(f.base, f.excluded) for f in fan_list]
    )


@given(symbolic_sets, st.lists(points, max_size=6))
def test_minus(s, removed):
    assert oracles.parts(s.minus(removed)) == oracles.reference_minus(s, removed)


@given(symbolic_sets)
def test_minimal_points(s):
    assert oracles.parts(s.minimal_points()) == oracles.reference_minimal_points(s)


@given(symbolic_sets)
def test_set_is_antichain(s):
    assert s.is_antichain() == oracles.reference_set_antichain(s)


@given(symbolic_sets)
def test_is_antichain_iff_the_set_is_its_own_minimal_points(s):
    assert s.is_antichain() == (s.minimal_points() == s)


def given_and_closure_made(path_lists):
    """A base set of given points (made from their paths) united with a
    downward closure's, so that some members are closure-made."""
    given_paths, tips = path_lists
    made = BasePointSet.downward_closure(map(Point, tips))
    return BasePointSet.of(closure(given_paths)).union(made)


mixed_base_sets = st.one_of(
    path_lists.map(lambda tips: BasePointSet.downward_closure(map(Point, tips))),
    st.tuples(path_lists, path_lists).map(given_and_closure_made),
)


@given(mixed_base_sets, symbolic_sets, st.data())
def test_derived_sets_are_built_canonical(base, s, data):
    # closed points, minimal points and a set minus points are not passed
    # through the constructors; equality of point sets compares their parts
    # in order, so each must come out as the constructors would make it
    # (the set's constructor keeps a fan as given, so each fan is rebuilt)
    closed = NonsingularModel(base).closed_points()
    above = st.builds(Point.child, st.sampled_from(base.sorted()), labels)
    removed = data.draw(
        st.lists(st.one_of(above, st.sampled_from(s.singles or (ROOT,)), points), max_size=6)
    )
    derived = [closed, closed.minimal_points(), closed.minus(removed)]
    derived += [s.minimal_points(), s.minus(removed), s.minus(removed).minimal_points()]
    for d in derived:
        again = SymbolicPointSet(d.singles, tuple(CofiniteFan(f.base, f.excluded) for f in d.fans))
        assert again.singles == d.singles and again.fans == d.fans
        assert again == d


@given(st.lists(labels, min_size=1, max_size=4, unique=True), st.integers(0, 3))
def test_truncated_tree_lists_its_points_in_canonical_order(alphabet, level):
    pts = TruncatedTree(alphabet=tuple(alphabet), max_level=level).points
    assert pts == sorted_points(pts)
    assert len(set(pts)) == sum(len(alphabet) ** i for i in range(level + 1))


@given(
    st.lists(labels, min_size=1, max_size=4, unique=True),
    st.integers(0, 3),
    st.lists(points, max_size=5),
)
def test_truncated_minimal_incomparable_matches_the_pairwise_scan(alphabet, level, targets):
    # any targets: the root, repeats and comparable pairs included
    tree = TruncatedTree(alphabet=tuple(alphabet), max_level=level)
    expected = oracles.brute_force_minimal_incomparable(tree.points, targets)
    assert tree.minimal_incomparable(iter(targets)) == expected


@given(st.lists(points, max_size=6))
def test_points_is_antichain(pts):
    # the rule behind ``minimal_model_containing``, which refuses an empty
    # list and the root before it tests the antichain
    if not pts:
        with pytest.raises(EmptyInput):
            minimal_model_containing(pts)
    elif ROOT in pts:
        with pytest.raises(RootNotAllowed):
            minimal_model_containing(pts)
    else:
        try:
            minimal_model_containing(pts)
            antichain = True
        except NotAntichain:
            antichain = False
        assert antichain == oracles.reference_points_antichain(pts)


def test_repeated_point_is_no_antichain():
    with pytest.raises(NotAntichain):
        minimal_model_containing([P("X"), P("X")])
    with pytest.raises(NotAntichain):
        minimal_model_containing([P("X", "Y"), P("X", "Y")])


def test_cli_rejects_repeated_point(capsys):
    doc = '{"points":[{"path":["X","Y"]},{"path":["X","Y"]}]}'
    code = main(["minimal-model", doc])
    assert code == 1
    assert capsys.readouterr().err.startswith("NotAntichain:")


def test_trusted_constructor_admits_no_bad_label():
    with pytest.raises(ValueError):
        Point(("",))
    with pytest.raises(ValueError):
        Point(("X", 3))
    with pytest.raises(ValueError):
        ROOT.child("")
    with pytest.raises(ValueError):
        P("X").child(3)


def test_derived_points_equal_validated_ones():
    p = P("X", "Y", "t1")
    assert p.parent() == P("X", "Y") and p.parent() is p.parent()
    assert p.chain() == (ROOT, P("X"), P("X", "Y"), p)
    assert ROOT.child("X").child("Y") == P("X", "Y")
    assert hash(ROOT.child("X")) == hash(P("X"))
    assert p.meet(P("X", "t1")) == P("X")


def test_pickled_point_rehashes_in_another_process():
    # the hash is cached at construction; a pickle must not carry it over
    # into a process with another hash seed.  A point a closure made
    # arrives as a plain point.
    src = str(Path(qtree.__file__).resolve().parents[1])
    dump = (
        "import pickle, sys; from qtree import BasePointSet, Point; "
        "made = BasePointSet.downward_closure([Point(('X', 'Y', 't1'))]).sorted()[2]; "
        "sys.stdout.buffer.write(pickle.dumps((Point(('X', 'Y')), made)))"
    )
    load = (
        "import pickle, sys; from qtree import Point\n"
        "for p in pickle.loads(sys.stdin.buffer.read()):\n"
        "    assert type(p) is Point and p in {Point(('X', 'Y'))} "
        "and p.parent() == Point(('X',))"
    )

    def python(code, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True
        ).stdout

    python(load, "2", python(dump, "1"))
