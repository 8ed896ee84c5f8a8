"""Each value is made canonical once: input by its constructor, derived
sets by being built canonical.

A derived set keeps the fans it is given and never runs the canonicalizing
constructor, a predicate reads the sweep instead of building a set to
compare, a query validates its input once, a ``--truncate`` call enumerates
its tree once, a downward closure builds no path it is not asked for, and a
union of base sets merges their indexes without building one.
These tests count the constructions, so a pass that redoes one fails here.
"""

import gc
from functools import cached_property

import pytest

from conftest import P
from qtree import (
    BasePointSet,
    CofiniteFan,
    CompleteIdeal,
    IntersectionDescriptor,
    MonomialIdeal,
    NonsingularModel,
    Point,
    SymbolicPointSet,
    TruncatedTree,
    Verdict,
    base_points,
    classify,
    is_complete_representation,
    minimal_desingularization,
    minimal_incomparable_set,
    represents_same_ring,
)
from qtree import models, pointsets, serialize
from qtree.cli import main
from qtree.points import ROOT, _LinkedPoint


@pytest.fixture
def built(monkeypatch):
    """The point sets and fans constructed while a test runs, by class:
    those made canonical by their constructor and those built canonical."""
    made = {SymbolicPointSet: [], CofiniteFan: []}
    # the method of each class that makes its input canonical
    for cls, name in ((SymbolicPointSet, "__post_init__"), (CofiniteFan, "__init__")):

        def counted(self, *args, construct=getattr(cls, name), values=made[cls], **kwargs):
            values.append(self)
            construct(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    def trusted_fan(base, excluded, construct=pointsets._trusted_fan):
        fan = construct(base, excluded)
        made[CofiniteFan].append(fan)
        return fan

    # models reads it from pointsets on each call
    monkeypatch.setattr(pointsets, "_trusted_fan", trusted_fan)

    def trusted_set(cls, singles, fans, construct=SymbolicPointSet._canonical.__func__):
        s = construct(cls, singles, fans)
        made[SymbolicPointSet].append(s)
        return s

    monkeypatch.setattr(SymbolicPointSet, "_canonical", classmethod(trusted_set))
    return made


@pytest.fixture
def canonicalized(monkeypatch):
    """The point sets that the canonicalizing constructor ran on while a
    test runs."""
    made = []

    def counted(self, construct=SymbolicPointSet.__post_init__):
        made.append(self)
        construct(self)

    monkeypatch.setattr(SymbolicPointSet, "__post_init__", counted)
    return made


@pytest.fixture
def sweeps(monkeypatch):
    """The point sets that the ``_member_below`` sweep ran on while a test
    runs."""
    swept = []
    sweep = SymbolicPointSet._member_below.func

    def counted(self):
        swept.append(self)
        return sweep(self)

    below = cached_property(counted)
    below.__set_name__(SymbolicPointSet, "_member_below")
    monkeypatch.setattr(SymbolicPointSet, "_member_below", below)
    return swept


def _model():
    # seven base points: D, X, X.Y, X.Y.t1, X.t2, Y, Y.Y
    tips = [P("X", "Y", "t1"), P("X", "t2"), P("Y", "Y")]
    return NonsingularModel(BasePointSet.downward_closure(tips))


def test_closed_points_build_one_fan_per_base_point(built, canonicalized):
    model = _model()
    closed = model.closed_points()
    assert len(built[CofiniteFan]) == len(model.base.points) == 7
    assert all(made is kept for made, kept in zip(built[CofiniteFan], closed.fans))
    assert built[SymbolicPointSet] == [closed]
    assert canonicalized == []


@pytest.mark.parametrize(
    "derive",
    [
        lambda s: s.minimal_points(),
        lambda s: s.minus([P("X", "Y", "t1"), P("Y", "t3"), P("Y", "Y")]),
        lambda s: s.minus([]),
    ],
    ids=["minimal points", "minus", "minus nothing"],
)
@pytest.mark.parametrize(
    "make",
    [
        lambda: _model().closed_points(),
        lambda: SymbolicPointSet((P("X"), P("X", "Y"), P("Y", "Y")), (CofiniteFan(P("Y"), ("Y",)),)),
    ],
    ids=["closed points", "singles and a fan"],
)
def test_derived_sets_are_built_canonical(canonicalized, make, derive):
    s = make()
    canonicalized.clear()
    derive(s)
    assert canonicalized == []


@pytest.mark.parametrize(
    "make, antichain",
    [
        (lambda: _model().closed_points(), True),
        (lambda: SymbolicPointSet.of_points([P("X", "Y"), P("Y")]), True),
        (lambda: SymbolicPointSet((P("X"), P("X", "Y")), ()), False),
        (lambda: SymbolicPointSet((P("Y"),), (CofiniteFan(P("Y")),)), False),
        (lambda: SymbolicPointSet.fan(P("X")).union(SymbolicPointSet.fan(P("X", "Y"))), False),
    ],
    ids=["closed points", "singles", "single below a single", "fan over a single", "fan below a fan"],
)
def test_is_antichain_builds_no_set_or_fan(built, make, antichain):
    s = make()
    built[SymbolicPointSet].clear()
    built[CofiniteFan].clear()
    assert s.is_antichain() is antichain
    assert built == {SymbolicPointSet: [], CofiniteFan: []}


def test_complete_representation_builds_no_set_or_fan(built):
    # the full closed-point set is recognised from the model's base index,
    # and a proper part of it, Henselian or inside Q1(D), from its parts
    model = _model()
    closed = model.closed_points()
    d = IntersectionDescriptor(model, closed)
    hens = IntersectionDescriptor(model, SymbolicPointSet(fans=closed.fans[:2]), henselian=True)
    root = IntersectionDescriptor(model, SymbolicPointSet.of_points([P("t1"), P("t2")]))
    built[SymbolicPointSet].clear()
    built[CofiniteFan].clear()
    assert is_complete_representation(d) is Verdict.YES
    assert is_complete_representation(hens) is Verdict.NO
    assert is_complete_representation(root) is Verdict.NO
    assert built == {SymbolicPointSet: [], CofiniteFan: []}


def test_the_sweep_runs_once_per_point_set(sweeps):
    # closed points, a part of them and a descriptor's subset inside them
    # are antichains by construction: no sweep runs on them
    model = _model()
    d = IntersectionDescriptor(model, model.closed_points())
    classify(d)
    assert d.subset.is_antichain()
    assert d.subset.minimal_points() is d.subset
    classify(d)
    rest = d.subset.minus([P("X", "Y", "t1", "X")])
    assert rest.is_antichain() and rest.minimal_points() is rest
    e = IntersectionDescriptor(model, rest)
    assert not represents_same_ring(d, e)
    assert represents_same_ring(e, e)
    inside = SymbolicPointSet((P("X", "Y", "t1", "X"),), d.subset.fans[:2])
    hens = IntersectionDescriptor(model, inside, henselian=True)
    assert classify(hens).irredundant is Verdict.YES
    assert sweeps == []
    # a set the constructor made, queried twice: one sweep, for it alone
    s = SymbolicPointSet((P("X"), P("X", "Y")), (CofiniteFan(P("Y")),))
    assert not s.is_antichain() and not s.is_antichain()
    minimal = s.minimal_points()
    assert s.minimal_points() == minimal == SymbolicPointSet((P("X"),), (CofiniteFan(P("Y")),))
    assert len(sweeps) == 1 and sweeps[0] is s
    # the minimal points are an antichain by construction
    assert minimal.is_antichain() and minimal.minimal_points() is minimal
    assert len(sweeps) == 1


def test_minimal_incomparable_set_validates_its_antichain_once(monkeypatch):
    calls = []
    validate = models._validated_antichain

    def counted(points):
        calls.append(points)
        return validate(points)

    monkeypatch.setattr(models, "_validated_antichain", counted)
    antichain = [P("X", "Y"), P("Y", "X")]
    result = minimal_incomparable_set(antichain)
    assert len(calls) == 1
    # a one-pass iterable is read once and gives the same answer
    assert minimal_incomparable_set(iter(antichain)) == result


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("closed-points", '{"base":[{"path":[]},{"path":["X"]},{"path":["Y"]}]}'),
        ("min-incomparable", '{"points":[{"path":["X","Y"]},{"path":["Y","X"]}]}'),
    ],
)
def test_truncate_enumerates_the_tree_once(capsys, monkeypatch, verb, payload):
    calls = []
    enumerate_points = TruncatedTree.points.func

    def counted(self):
        calls.append(self)
        return enumerate_points(self)

    points = cached_property(counted)
    points.__set_name__(TruncatedTree, "points")
    monkeypatch.setattr(TruncatedTree, "points", points)
    assert main([verb, payload, "--truncate", "3"]) == 0
    assert len(calls) == 1


def test_minus_keeps_the_fans_it_does_not_change(built, canonicalized):
    # the minimal model is {D, X, X.Y, Y}: four fans from its closed points,
    # and three new ones over X.Y, X and Y, the parents of the removed points
    antichain = [P("X", "Y", "t1"), P("X", "t2"), P("Y", "Y")]
    result = minimal_incomparable_set(antichain)
    assert len(built[CofiniteFan]) == 7
    # the constructor ran once, on the antichain it validates
    (validated,) = canonicalized
    assert set(validated.singles) == set(antichain) and not validated.fans
    assert result == SymbolicPointSet(
        (),
        (
            CofiniteFan(P(), ("X", "Y")),
            CofiniteFan(P("X"), ("Y", "t2")),
            CofiniteFan(P("Y"), ("Y",)),
            CofiniteFan(P("X", "Y"), ("t1",)),
        ),
    )


def _parting_chains(level):
    """Two factors of one level whose chains part halfway up."""
    labels = ("X", "Y", "t1")
    first = tuple(labels[i % 3] for i in range(level))
    second = first[: level // 2] + ("t2",) * (level - level // 2)
    return CompleteIdeal.of({Point(first): 2, Point(second): 1}), first, second


def _unread(point):
    """True iff a closure-made point has built neither its path nor its hash."""
    return Point.path.__get__(point) is None and Point._hash.__get__(point) is None


def test_closed_points_of_a_long_chain_read_no_path():
    ideal, _, _ = _parting_chains(4000)
    model = minimal_desingularization(ideal)
    closed = model.closed_points()
    # one fan over each base point, in the base set's order
    assert not closed.singles and len(closed.fans) == len(model.base)
    assert all(fan.base is p for fan, p in zip(closed.fans, model.base.sorted()))
    assert all(_unread(p) for p in model.base if type(p) is _LinkedPoint)


def test_classify_on_a_long_chain_runs_no_sweep_and_reads_no_path(sweeps):
    # the closed points are recorded as an antichain when they are built,
    # and the descriptor finds each fan's base among the model's own points
    ideal, _, _ = _parting_chains(4000)
    model = minimal_desingularization(ideal)
    closed = model.closed_points()
    d = IntersectionDescriptor(model, closed)
    c = classify(d)
    assert c.maximal_ideal_count == "INFINITE" and c.irredundant is Verdict.UNKNOWN
    assert closed.minimal_points() is closed
    assert is_complete_representation(d) is Verdict.YES
    assert sweeps == []
    assert all(_unread(p) for p in model.base if type(p) is _LinkedPoint)


def test_a_descriptor_over_decoded_bases_walks_the_members_once(monkeypatch):
    # the root's fan, read from paths, is not the model's own root: its
    # identity scan stops at the first member above level 0, and every fan
    # is then looked up in the path table, built in one pass
    ideal, _, _ = _parting_chains(300)
    model = minimal_desingularization(ideal)
    fans = model.closed_points().fans
    decoded = SymbolicPointSet(
        fans=tuple(CofiniteFan(Point(f.base.path), f.excluded) for f in fans)
    )
    read = []

    def labels_above(self, walk=BasePointSet.labels_above):
        for item in walk(self):
            read.append(item)
            yield item

    monkeypatch.setattr(BasePointSet, "labels_above", labels_above)
    d = IntersectionDescriptor(model, decoded)
    assert is_complete_representation(d) is Verdict.YES
    assert len(read) == 2 + len(model.base)


def test_minus_reads_only_the_fan_bases_it_changes():
    _, first, second = _parting_chains(4000)
    result = minimal_incomparable_set([Point(first), Point(second)])
    # one fan per base point of the minimal model, whose chains end at the
    # parents of the two points
    assert not result.singles and len(result.fans) == 2 * 3999 - 1999
    linked = [fan.base for fan in result.fans if type(fan.base) is _LinkedPoint]
    assert len(linked) == len(result.fans) - 3
    assert all(map(_unread, linked))


@pytest.mark.parametrize("level", [300, 4000])
def test_a_closure_builds_no_path_or_hash(level):
    ideal, first, second = _parting_chains(level)
    saturated = ideal.saturate()
    base = ideal.base_points()
    terminals = ideal.terminal_base_points()
    made = [p for p in base if type(p) is _LinkedPoint]
    # every member but the root and the two factor points
    assert len(made) == len(base) - 3 == 2 * level - level // 2 - 2
    assert all(map(_unread, made))
    assert saturated.is_saturated() and len(saturated.factors) == len(base)
    assert [p.path for p in terminals] == [first, second]
    if level > 300:
        return  # every path of a 4000-level base set holds 14 million labels
    # serialized afterwards, the values read as if made from paths
    plain = {Point(path[:i]) for path in (first, second) for i in range(level + 1)}
    assert serialize.dumps(serialize.ideal_to_json(saturated)) == serialize.dumps(
        serialize.ideal_to_json(CompleteIdeal.of(plain))
    )
    assert serialize.base_points_to_json(base) == serialize.base_points_to_json(
        BasePointSet.of(plain)
    )
    assert base == BasePointSet.of(plain)


def test_a_closure_keeps_no_container_per_member_but_the_points():
    # the index is three tuples, so a base set keeps alive the points a
    # closure makes and a few containers of its own, however long it is
    ideal, _, _ = _parting_chains(4000)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        base = ideal.base_points()
        made = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(base) == 2 * 4000 - 4000 // 2 + 1
    assert made <= len(base) + 10


def test_join_and_dominates_build_no_path_or_hash():
    # the two one-factor models of two parting chains, merged member by
    # member along their labels
    _, first, second = _parting_chains(4000)
    one, two = (minimal_desingularization(CompleteIdeal.simple(Point(p))) for p in (first, second))
    joined = one.join(two)
    assert joined.dominates(one) and joined.dominates(two)
    assert not one.dominates(two) and not two.dominates(one) and one.dominates(one)
    assert len(joined.base) == 2 * 4000 - 4000 // 2 + 1
    assert joined.base.terminals() == (Point(first), Point(second))
    made = [p for model in (one, two) for p in model.base if type(p) is _LinkedPoint]
    assert len(made) == 2 * 3999 and all(map(_unread, made))
    assert all(map(_unread, (p for p in joined.base if type(p) is _LinkedPoint)))


@pytest.mark.parametrize("d", [300, 4000])
def test_monomial_base_points_build_no_path_or_hash_but_the_terminal(d):
    base = base_points(MonomialIdeal.from_text(f"x^{d}, y"))
    # the chain X, X.X, ... of the valuation (1, d), up to level d - 1
    assert len(base) == d
    (terminal,) = base.terminals()
    assert terminal.path == ("X",) * (d - 1)
    members = base.sorted()
    assert members[0] is ROOT and members[-1] is terminal
    assert all(map(_unread, members[1:-1]))
