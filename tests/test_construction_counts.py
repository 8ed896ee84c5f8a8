"""Each value is made canonical once, by its constructor.

A derived set keeps the fans it is given, a predicate reads the sweep
instead of building a set to compare, a query validates its input once,
and a ``--truncate`` call enumerates its tree once.  These tests count the
constructions, so a pass that redoes one fails here.
"""

from functools import cached_property

import pytest

from conftest import P
from qtree import (
    BasePointSet,
    CofiniteFan,
    NonsingularModel,
    SymbolicPointSet,
    TruncatedTree,
    minimal_incomparable_set,
)
from qtree import models
from qtree.cli import main


@pytest.fixture
def built(monkeypatch):
    """The point sets and fans constructed while a test runs, by class."""
    made = {SymbolicPointSet: [], CofiniteFan: []}
    for cls, values in made.items():

        def counted(self, construct=cls.__post_init__, values=values):
            values.append(self)
            construct(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return made


def _model():
    # seven base points: D, X, X.Y, X.Y.t1, X.t2, Y, Y.Y
    tips = [P("X", "Y", "t1"), P("X", "t2"), P("Y", "Y")]
    return NonsingularModel(BasePointSet.downward_closure(tips))


def test_closed_points_build_one_fan_per_base_point(built):
    model = _model()
    closed = model.closed_points()
    assert len(built[CofiniteFan]) == len(model.base.points) == 7
    assert all(made is kept for made, kept in zip(built[CofiniteFan], closed.fans))
    assert built[SymbolicPointSet] == [closed]


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
