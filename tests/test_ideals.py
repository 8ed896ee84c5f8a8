import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CompleteIdeal,
    InvalidBasePoints,
    NonsingularModel,
    OrderValuation,
    Point,
    TruncatedTree,
    UnitIdeal,
    minimal_desingularization,
    model_from_ideal,
)

labels = st.sampled_from(["X", "Y", "t1", "t2"])
points = st.builds(lambda ls: Point(tuple(ls)), st.lists(labels, max_size=4))
ideals = st.dictionaries(points, st.integers(1, 3), min_size=1, max_size=4).map(
    CompleteIdeal.of
)


class TestBasePointSet:
    def test_requires_root(self):
        with pytest.raises(InvalidBasePoints):
            BasePointSet.of([P("X")])

    def test_requires_downward_closure(self):
        with pytest.raises(InvalidBasePoints):
            BasePointSet.of([ROOT, P("X", "Y")])

    @pytest.mark.parametrize(
        "points, message",
        [
            ([P("X"), P("X", "Y")], "a base-point set must contain the root"),
            (
                [ROOT.child("X"), ROOT.child("X").child("Y")],
                "a base-point set must contain the root",
            ),
            ([ROOT, P("X", "Y")], "X.Y is present but its parent X is not"),
            ([ROOT, ROOT.child("X").child("Y")], "X.Y is present but its parent X is not"),
            # X.Y.t1's parent is present, but not X.Y's
            ([ROOT, P("X", "Y"), P("X", "Y", "t1")], "X.Y is present but its parent X is not"),
        ],
        ids=[
            "no-root-from-paths",
            "no-root-by-child",
            "no-parent-from-paths",
            "no-parent-by-child",
            "no-parent-below-a-parent",
        ],
    )
    def test_refusals_read_the_same_for_paths_and_children(self, points, message):
        with pytest.raises(InvalidBasePoints) as refused:
            BasePointSet.of(points)
        assert str(refused.value) == message

    def test_downward_closure_builder(self):
        base = BasePointSet.downward_closure([P("X", "Y")])
        assert base.points == {ROOT, P("X"), P("X", "Y")}

    def test_terminals(self):
        base = BasePointSet.of([ROOT, P("X"), P("Y")])
        assert base.terminals() == (P("X"), P("Y"))
        assert BasePointSet.of([ROOT]).terminals() == (ROOT,)

    def test_child_labels(self):
        base = BasePointSet.of([ROOT, P("X"), P("Y"), P("X", "Y")])
        above = dict(base.labels_above())
        assert above[ROOT] == ("X", "Y")
        assert above[P("X")] == ("Y",)
        assert above[P("Y")] == ()


def test_multiply_unit_is_identity():
    j = CompleteIdeal.of({P("Y"): 2})
    assert CompleteIdeal.unit() * j == j
    assert j * CompleteIdeal.unit() == j


def test_multiply_adds_multiplicities():
    m = CompleteIdeal.simple(ROOT)
    assert m * m == CompleteIdeal.of({ROOT: 2})


def test_multiply_three_simple_factors():
    # the product of the ideals at the root and the two coordinate points
    product = (
        CompleteIdeal.simple(ROOT)
        * CompleteIdeal.simple(P("X"))
        * CompleteIdeal.simple(P("Y"))
    )
    assert product == CompleteIdeal.of([ROOT, P("X"), P("Y")])


def test_base_points():
    assert CompleteIdeal.simple(ROOT).base_points().points == {ROOT}
    assert CompleteIdeal.simple(P("Y")).base_points().points == {ROOT, P("Y")}
    three = CompleteIdeal.of([ROOT, P("X"), P("Y")])
    assert three.base_points().points == {ROOT, P("X"), P("Y")}


def test_terminal_base_points():
    assert CompleteIdeal.simple(ROOT).terminal_base_points() == (ROOT,)
    assert CompleteIdeal.simple(P("Y")).terminal_base_points() == (P("Y"),)
    three = CompleteIdeal.of([ROOT, P("X"), P("Y")])
    assert three.terminal_base_points() == (P("X"), P("Y"))


def test_rees_valuations():
    assert CompleteIdeal.simple(ROOT).rees_valuations() == {OrderValuation(ROOT)}
    assert CompleteIdeal.simple(P("Y")).rees_valuations() == {OrderValuation(P("Y"))}
    # multiplicities collapse
    squared = CompleteIdeal.of({ROOT: 2, P("X"): 1})
    assert squared.rees_valuations() == {OrderValuation(ROOT), OrderValuation(P("X"))}


def test_is_saturated():
    assert CompleteIdeal.simple(ROOT).is_saturated()
    assert not CompleteIdeal.simple(P("Y")).is_saturated()
    assert CompleteIdeal.of([ROOT, P("X"), P("Y")]).is_saturated()


def test_saturate():
    assert CompleteIdeal.simple(P("Y")).saturate() == CompleteIdeal.of([ROOT, P("Y")])
    assert CompleteIdeal.simple(ROOT).saturate() == CompleteIdeal.simple(ROOT)
    # chain closure of a level-2 simple ideal
    assert CompleteIdeal.simple(P("X", "Y")).saturate() == CompleteIdeal.of(
        [ROOT, P("X"), P("X", "Y")]
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CompleteIdeal(((P("X"), 1.5),)), "factor multiplicities must be integers"),
        (lambda: CompleteIdeal.simple(P("X"), True), "factor multiplicities must be integers"),
        (lambda: CompleteIdeal.of({P("X"): 2.0}), "factor multiplicities must be integers"),
        (lambda: CompleteIdeal.simple(P("X"), 0), "factor multiplicities must be positive"),
        (lambda: CompleteIdeal.simple(P("X")).power(1.5), "powers must be integers"),
        (lambda: CompleteIdeal.unit().power(1.5), "powers must be integers"),
        (lambda: CompleteIdeal.simple(P("X")).power(True), "powers must be integers"),
        (
            lambda: CompleteIdeal.simple(P("X")).power(0),
            "only positive powers are meaningful here",
        ),
        # the canonical sort reads no point of a one-factor ideal, so the
        # constructor checks each factor itself
        (lambda: CompleteIdeal((("X", 1),)), "ideal factors must be points"),
        (
            lambda: CompleteIdeal(((P("X"), 1), (("X",), 2))),
            "ideal factors must be points",
        ),
    ],
    ids=["float-mult", "bool-mult", "integral-float-mult", "zero-mult", "float-power",
         "float-power-of-unit", "bool-power", "zero-power", "string-factor",
         "path-factor-second-of-two"],
)
def test_multiplicities_and_powers_are_positive_integers(build, message):
    # a float used to be kept, and printed as X^1.5
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


def test_unit_text_form():
    assert str(CompleteIdeal.unit()) == "(1)"


def test_unit_is_rejected_outside_multiplication():
    unit = CompleteIdeal.unit()
    for op in ("base_points", "terminal_base_points", "rees_valuations",
               "is_saturated", "saturate"):
        with pytest.raises(UnitIdeal):
            getattr(unit, op)()


@given(ideals)
def test_saturation_is_idempotent(j):
    s = j.saturate()
    assert s.saturate() == s
    assert s.is_saturated()


@given(ideals)
def test_saturation_preserves_base_points(j):
    assert j.saturate().base_points().points == j.base_points().points


@given(ideals, ideals)
def test_base_points_and_rees_are_multiplicative(i, j):
    ij = i * j
    assert ij.base_points().points == i.base_points().points | j.base_points().points
    assert ij.rees_valuations() == i.rees_valuations() | j.rees_valuations()


@given(ideals, st.integers(1, 4))
def test_saturation_ignores_multiplicity_scaling(j, k):
    assert j.power(k).saturate() == j.saturate()


def test_saturated_iff_every_base_point_on_a_factor_chain_is_a_factor():
    # exhaustive over supports of size <= 3 drawn from points of level <= 3
    tree = TruncatedTree(alphabet=("X", "Y", "t1"), max_level=3)
    pts = tree.points
    for size in (1, 2, 3):
        for support in itertools.combinations(pts, size):
            j = CompleteIdeal.of(support)
            chain_points = set()
            for p in support:
                chain_points.update(p.chain())
            condition = all(q in set(support) for q in chain_points)
            assert j.is_saturated() == condition


def test_canonical_factor_order():
    j = CompleteIdeal.of([P("t1"), ROOT, P("X")])
    assert j.support == (ROOT, P("X"), P("t1"))
    assert str(j) == "D * X * t1"


# The base set of an ideal is built once per value and shared by every
# query that reads it.  These are count gates, not wall-clock gates.


@pytest.fixture
def builds(monkeypatch):
    """The base sets constructed while a test runs."""
    built = []
    construct = BasePointSet.__post_init__

    def counted(self):
        built.append(self)
        construct(self)

    monkeypatch.setattr(BasePointSet, "__post_init__", counted)
    return built


def _ideal():
    # built from paths alone, so no point carries its parent yet
    return CompleteIdeal.of({Point(("X", "Y", "t1")): 2, Point(("X", "t2")): 1})


@pytest.mark.parametrize(
    "query",
    ["base_points", "saturate", "terminal_base_points", "is_saturated"],
)
def test_each_query_builds_the_base_set_once(builds, query):
    ideal = _ideal()
    getattr(ideal, query)()
    assert len(builds) == 1
    for other in ("base_points", "saturate", "terminal_base_points", "is_saturated"):
        getattr(ideal, other)()
    assert len(builds) == 1
    assert ideal.base_points() is ideal.saturate().base_points() is builds[0]


def test_models_of_an_ideal_build_one_base_set(builds):
    saturated = CompleteIdeal.of(_ideal().saturate().support)
    builds.clear()
    model = model_from_ideal(saturated)
    assert len(builds) == 1 and model.base is builds[0]
    builds.clear()
    model = minimal_desingularization(_ideal())
    assert len(builds) == 1 and model.base is builds[0]
    builds.clear()
    # a model's ideal and a saturation's model reuse the base set they came from
    assert model.ideal().base_points() is model.base
    assert model_from_ideal(model.ideal()).base is model.base
    assert minimal_desingularization(model.ideal()).base is model.base
    assert builds == []


def test_a_saturated_value_carries_its_base_set(builds):
    base = BasePointSet.downward_closure([P("X", "Y"), P("t1")])
    builds.clear()
    ideal = CompleteIdeal.saturated(base)
    assert ideal.base_points() is base and ideal.is_saturated()
    assert ideal.terminal_base_points() == base.terminals()
    assert NonsingularModel(base).ideal() == ideal
    assert builds == []
