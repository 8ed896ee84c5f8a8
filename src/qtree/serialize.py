"""JSON encodings for every value of the calculus.

All encoders emit canonical form (sorted labels, sorted points, merged
fans), so equal values serialize to identical JSON.  Decoders check JSON
shape only (an object, a list, a required key, a generator being a pair,
the schema tag) and raise ``ValueError`` when it is wrong.  Each value's
constructor checks its values: a label, multiplicity, exponent, weight or
flag it refuses raises its ``ValueError``, and a domain fault (for example
a base set that is not downward closed) one of the library's own errors.

Shapes:

* point                ``{"path": ["X", "Y", "t1", ...]}``  ("X"/"Y" reserved)
* symbolic point set   ``{"singles": [point...],
                          "cofinite": [{"base": point, "excluded": [label...]}...]}``
* complete ideal       ``{"factors": [{"point": point, "mult": n}...]}``
* model                ``{"base": [point...]}``
* descriptor           ``{"model": model, "subset": set, "henselian": bool}``
* monomial ideal       ``{"gens": [[a, b]...]}``
* valuation            ``{"p": p, "q": q}``

Two request shapes carry a verb's several arguments:

* points               ``{"points": [point...]}``
* two models           ``{"models": [model, model]}``

Output text is the encoded value as one JSON object, tagged
``"schema": "qtree/1"``, keys sorted; a tagged input object must carry that
same tag.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from .points import OrderValuation, Point, sorted_points

if TYPE_CHECKING:
    from .ideals import BasePointSet, CompleteIdeal
    from .intersections import Classification, IntersectionDescriptor
    from .models import NonsingularModel
    from .monomial import MonomialIdeal, MonomialValuation
    from .pointsets import SymbolicPointSet

SCHEMA = "qtree/1"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def loads(raw: str) -> Any:
    """The JSON value of input text, refused unless it is tagged with this
    schema or untagged."""
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the parser recurses once per level of nesting, so input nested
        # deeper than the recursion limit is refused like any bad JSON
        raise ValueError(f"invalid JSON: {exc}") from exc
    if isinstance(obj, dict):
        tag = obj.get("schema")
        _expect(
            tag is None or tag == SCHEMA,
            f"unsupported schema {tag!r}; this tool speaks {SCHEMA!r}",
        )
    return obj


def dumps(payload: dict) -> str:
    """The output text of an encoded value."""
    return json.dumps({"schema": SCHEMA, **payload}, sort_keys=True)


def point_to_json(p: Point) -> dict:
    return {"path": list(p.path)}


def point_from_json(obj: Any) -> Point:
    _expect(isinstance(obj, dict) and "path" in obj, "a point is {'path': [...]}")
    path = obj["path"]
    _expect(isinstance(path, list), "a point path is a list of label strings")
    return Point(tuple(path))


def point_list_from_json(obj: Any) -> tuple[Point, ...]:
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("points"), list),
        "expected {'points': [point...]}",
    )
    return tuple(point_from_json(p) for p in obj["points"])


def pointset_to_json(s: SymbolicPointSet) -> dict:
    return {
        "singles": [point_to_json(p) for p in s.singles],
        "cofinite": [
            {"base": point_to_json(f.base), "excluded": list(f.excluded)}
            for f in s.fans
        ],
    }


def pointset_from_json(obj: Any) -> SymbolicPointSet:
    from .pointsets import CofiniteFan, SymbolicPointSet

    _expect(isinstance(obj, dict), "a point set is an object")
    singles = obj.get("singles", [])
    _expect(isinstance(singles, list), "singles are a list of points")
    points = tuple(point_from_json(p) for p in singles)
    cofinite = obj.get("cofinite", [])
    _expect(isinstance(cofinite, list), "cofinite atoms are a list")
    fans = []
    for fan in cofinite:
        _expect(
            isinstance(fan, dict) and "base" in fan,
            "a cofinite atom is {'base': point, 'excluded': [...]}",
        )
        excluded = fan.get("excluded", [])
        _expect(isinstance(excluded, list), "excluded directions are a list of label strings")
        fans.append(CofiniteFan(point_from_json(fan["base"]), tuple(excluded)))
    return SymbolicPointSet(points, tuple(fans))


def ideal_to_json(ideal: CompleteIdeal) -> dict:
    return {
        "factors": [
            {"point": point_to_json(p), "mult": m} for p, m in ideal.factors
        ]
    }


def ideal_from_json(obj: Any) -> CompleteIdeal:
    from .ideals import CompleteIdeal

    _expect(
        isinstance(obj, dict) and isinstance(obj.get("factors"), list),
        "a complete ideal is {'factors': [{'point': ..., 'mult': n}...]}",
    )
    factors = []
    for f in obj["factors"]:
        _expect(
            isinstance(f, dict) and "point" in f,
            "a factor is {'point': ..., 'mult': n}",
        )
        factors.append((point_from_json(f["point"]), f.get("mult", 1)))
    return CompleteIdeal(tuple(factors))


def base_points_to_json(base: BasePointSet) -> dict:
    return {"points": [point_to_json(p) for p in base.sorted()]}


def valuations_to_json(valuations: frozenset[OrderValuation]) -> dict:
    centers = sorted_points(v.center for v in valuations)
    return {"valuations": [{"center": point_to_json(c)} for c in centers]}


def model_to_json(model: NonsingularModel) -> dict:
    return {"base": [point_to_json(p) for p in model.base.sorted()]}


def model_from_json(obj: Any) -> NonsingularModel:
    from .ideals import BasePointSet
    from .models import NonsingularModel

    _expect(
        isinstance(obj, dict) and isinstance(obj.get("base"), list),
        "a model is {'base': [point...]}",
    )
    return NonsingularModel(
        BasePointSet.of(point_from_json(p) for p in obj["base"])
    )


def model_pair_from_json(obj: Any) -> tuple[NonsingularModel, NonsingularModel]:
    _expect(
        isinstance(obj, dict) and isinstance(obj.get("models"), list),
        "expected {'models': [model, model]}",
    )
    _expect(len(obj["models"]) == 2, "the join takes exactly two models")
    left, right = obj["models"]
    return model_from_json(left), model_from_json(right)


def descriptor_from_json(obj: Any, henselian: bool | None = None) -> IntersectionDescriptor:
    from .intersections import IntersectionDescriptor, _henselian_flag

    _expect(
        isinstance(obj, dict) and "model" in obj and "subset" in obj,
        "a descriptor is {'model': ..., 'subset': ..., 'henselian': bool}",
    )
    # the descriptor's own check, run before the model is read: a bad flag
    # is a parse error even when the model is a domain error too
    flag = _henselian_flag(obj.get("henselian", False))
    return IntersectionDescriptor(
        model=model_from_json(obj["model"]),
        subset=pointset_from_json(obj["subset"]),
        henselian=flag if henselian is None else henselian,
    )


def classification_to_json(c: Classification) -> dict:
    return {
        "noetherian": "YES" if c.noetherian else "NO",
        "noetherianBasis": c.noetherian_basis,
        "maximalIdealCount": c.maximal_ideal_count,
        "maximalIdealCountBasis": c.count_basis,
        "irredundant": c.irredundant.value,
        "irredundantBasis": c.irredundant_basis,
        "essential": c.essential.value,
        "essentialBasis": c.essential_basis,
        "ringPoint": point_to_json(c.ring_point) if c.ring_point else None,
        "singularity": c.singularity,
    }


def monomial_to_json(ideal: MonomialIdeal) -> dict:
    return {"gens": [[a, b] for a, b in reversed(ideal.gens)]}


def monomial_from_json(obj: Any) -> MonomialIdeal:
    from .monomial import MonomialIdeal

    _expect(
        isinstance(obj, dict) and isinstance(obj.get("gens"), list),
        "a monomial ideal is {'gens': [[a, b]...]}",
    )
    for g in obj["gens"]:
        _expect(
            isinstance(g, list) and len(g) == 2,
            "a generator is a pair of non-negative integers",
        )
    return MonomialIdeal(tuple(map(tuple, obj["gens"])))


def valuation_from_json(obj: Any) -> MonomialValuation:
    from .monomial import MonomialValuation

    _expect(isinstance(obj, dict), "a valuation is {'p': int, 'q': int}")
    return MonomialValuation(obj.get("p"), obj.get("q"))
