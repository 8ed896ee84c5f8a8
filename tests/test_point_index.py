"""The indexed point core against quadratic reference definitions.

Base-set, fan and antichain queries are answered from a path-keyed index
and one sweep; ``oracles`` keeps the pairwise definitions they replace.  The
label alphabet includes ``A``, which sorts before ``X`` as a plain string
but after ``Y`` in canonical label order.
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
    NotAntichain,
    Point,
    SymbolicPointSet,
    is_antichain,
    minimal_model_containing,
)
from qtree.cli import main

labels = st.sampled_from(["X", "Y", "A", "t1"])
paths = st.lists(labels, max_size=5).map(tuple)
points = paths.map(Point)


def closure(path_list):
    """Every prefix of every path, as points: a rooted downward-closed set."""
    return {Point(p[:i]) for p in path_list for i in range(len(p) + 1)} | {ROOT}


base_sets = st.lists(paths, max_size=25).map(closure)
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
    base_set = BasePointSet.of(pts)
    for p in list(pts) + [base]:
        assert base_set.child_labels(p) == oracles.reference_child_labels(pts, p)


@given(st.lists(paths, max_size=10))
def test_downward_closure_is_the_union_of_chains(path_list):
    given_points = [Point(p) for p in path_list]
    assert BasePointSet.downward_closure(given_points).points == closure(path_list)


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


@given(st.lists(points, max_size=6))
def test_points_is_antichain(pts):
    assert is_antichain(pts) == oracles.reference_points_antichain(pts)


def test_repeated_point_is_no_antichain():
    assert not is_antichain([P("X"), P("X")])
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
    # into a process with another hash seed
    src = str(Path(qtree.__file__).resolve().parents[1])
    dump = (
        "import pickle, sys; from qtree import Point; "
        "sys.stdout.buffer.write(pickle.dumps(Point(('X', 'Y'))))"
    )
    load = (
        "import pickle, sys; from qtree import Point; "
        "p = pickle.loads(sys.stdin.buffer.read()); "
        "assert p in {Point(('X', 'Y'))} and p.parent() == Point(('X',))"
    )

    def python(code, seed, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", code], input=data, env=env, capture_output=True, check=True
        ).stdout

    python(load, "2", python(dump, "1"))
