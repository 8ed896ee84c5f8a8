import json

import pytest

from conftest import P
from qtree import (
    ROOT,
    BasePointSet,
    CompleteIdeal,
    IntersectionDescriptor,
    MonomialIdeal,
    NonsingularModel,
    SymbolicPointSet,
    classify,
)
from qtree import serialize as ser


def test_point_round_trip():
    for p in (ROOT, P("X"), P("X", "Y", "t1")):
        assert ser.point_from_json(ser.point_to_json(p)) == p
    assert ser.point_to_json(P("X", "Y")) == {"path": ["X", "Y"]}


def test_pointset_round_trip_and_canonical_order():
    s = SymbolicPointSet.fan(P("Y")).union(
        SymbolicPointSet.fan(ROOT, ("Y", "X")),
        SymbolicPointSet.of_points([P("t1", "t2")]),
    )
    obj = ser.pointset_to_json(s)
    assert obj["cofinite"][0]["base"] == {"path": []}
    assert obj["cofinite"][0]["excluded"] == ["X", "Y"]
    assert ser.pointset_from_json(obj) == s


def test_ideal_round_trip():
    j = CompleteIdeal.of({P("Y"): 2, ROOT: 1})
    obj = ser.ideal_to_json(j)
    assert obj == {
        "factors": [
            {"point": {"path": []}, "mult": 1},
            {"point": {"path": ["Y"]}, "mult": 2},
        ]
    }
    assert ser.ideal_from_json(obj) == j
    # a mult of 1 may be omitted on input
    assert ser.ideal_from_json(
        {"factors": [{"point": {"path": ["Y"]}}]}
    ) == CompleteIdeal.simple(P("Y"))


def test_model_round_trip():
    m = NonsingularModel(BasePointSet.of([ROOT, P("X")]))
    assert ser.model_from_json(ser.model_to_json(m)) == m


def descriptor_to_json(d):
    # the CLI never prints a descriptor, so its encoder lives here
    return {
        "model": ser.model_to_json(d.model),
        "subset": ser.pointset_to_json(d.subset),
        "henselian": d.henselian,
    }


def test_descriptor_round_trip_and_flag_override():
    d = IntersectionDescriptor(
        NonsingularModel(BasePointSet.of([ROOT])),
        SymbolicPointSet.fan(ROOT),
        henselian=False,
    )
    obj = descriptor_to_json(d)
    assert ser.descriptor_from_json(obj) == d
    assert ser.descriptor_from_json(obj, henselian=True).henselian


def test_classification_is_flat_json():
    d = IntersectionDescriptor(
        NonsingularModel(BasePointSet.of([ROOT])), SymbolicPointSet.fan(ROOT)
    )
    obj = ser.classification_to_json(classify(d))
    json.dumps(obj)  # serializable
    assert obj["noetherian"] == "YES"
    assert obj["maximalIdealCount"] == "INFINITE"
    assert obj["irredundant"] == "YES"
    assert obj["essential"] == "NO"
    assert obj["ringPoint"] == {"path": []}
    assert isinstance(obj["irredundantBasis"], str)


def test_monomial_round_trip():
    ideal = MonomialIdeal.from_text("x^2, x y, y^3")
    obj = ser.monomial_to_json(ideal)
    assert obj == {"gens": [[2, 0], [1, 1], [0, 3]]}
    assert ser.monomial_from_json(obj) == ideal


def test_malformed_inputs_raise_value_error():
    for loader, bad in [
        (ser.point_from_json, {"path": "XY"}),
        (ser.pointset_from_json, {"cofinite": [{"excluded": []}]}),
        (ser.ideal_from_json, {"factors": [{"point": {"path": []}, "mult": 0}]}),
        (ser.model_from_json, {"base": "no"}),
        (ser.monomial_from_json, {"gens": []}),
        (ser.monomial_from_json, {"gens": [[1]]}),
        (ser.valuation_from_json, {"p": 1}),
    ]:
        with pytest.raises(ValueError):
            loader(bad)
