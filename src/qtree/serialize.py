"""JSON encodings for every value of the calculus.

All encoders emit canonical form (sorted labels, sorted points, merged
fans), so equal values serialize to identical JSON.  Decoders re-canonicalize
on construction and raise ``ValueError`` on malformed shapes; domain errors
(for example a base set that is not downward closed) surface as the library's
own error types.

Shapes:

* point                ``{"path": ["X", "Y", "t1", ...]}``  ("X"/"Y" reserved)
* symbolic point set   ``{"singles": [point...],
                          "cofinite": [{"base": point, "excluded": [label...]}...]}``
* complete ideal       ``{"factors": [{"point": point, "mult": n}...]}``
* model                ``{"base": [point...]}``
* descriptor           ``{"model": model, "subset": set, "henselian": bool}``
* monomial ideal       ``{"gens": [[a, b]...]}``
* valuation            ``{"p": p, "q": q}``
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .ideals import BasePointSet, CompleteIdeal
from .points import CofiniteFan, OrderValuation, Point, SymbolicPointSet, sorted_points

if TYPE_CHECKING:
    from .intersections import Classification, IntersectionDescriptor
    from .models import NonsingularModel
    from .monomial import MonomialIdeal, MonomialValuation

SCHEMA = "qtree/1"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` decode to bools, which Python
    counts as ints, and are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def point_to_json(p: Point) -> dict:
    return {"path": list(p.path)}


def point_from_json(obj: Any) -> Point:
    _expect(isinstance(obj, dict) and "path" in obj, "a point is {'path': [...]}")
    path = obj["path"]
    _expect(
        isinstance(path, list) and all(isinstance(l, str) for l in path),
        "a point path is a list of label strings",
    )
    return Point(tuple(path))


def pointset_to_json(s: SymbolicPointSet) -> dict:
    return {
        "singles": [point_to_json(p) for p in s.singles],
        "cofinite": [
            {"base": point_to_json(f.base), "excluded": list(f.excluded)}
            for f in s.fans
        ],
    }


def pointset_from_json(obj: Any) -> SymbolicPointSet:
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
        _expect(
            isinstance(excluded, list) and all(isinstance(l, str) for l in excluded),
            "excluded directions are a list of label strings",
        )
        fans.append(CofiniteFan(point_from_json(fan["base"]), tuple(excluded)))
    return SymbolicPointSet(points, tuple(fans))


def ideal_to_json(ideal: CompleteIdeal) -> dict:
    return {
        "factors": [
            {"point": point_to_json(p), "mult": m} for p, m in ideal.factors
        ]
    }


def ideal_from_json(obj: Any) -> CompleteIdeal:
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
        mult = f.get("mult", 1)
        _expect(_is_int(mult) and mult >= 1, "mult must be a positive integer")
        factors.append((point_from_json(f["point"]), mult))
    return CompleteIdeal(tuple(factors))


def base_points_to_json(base: BasePointSet) -> dict:
    return {"points": [point_to_json(p) for p in base.sorted()]}


def valuations_to_json(valuations: frozenset[OrderValuation]) -> dict:
    centers = sorted_points(v.center for v in valuations)
    return {"valuations": [{"center": point_to_json(c)} for c in centers]}


def model_to_json(model: NonsingularModel) -> dict:
    return {"base": [point_to_json(p) for p in model.base.sorted()]}


def model_from_json(obj: Any) -> NonsingularModel:
    from .models import NonsingularModel

    _expect(
        isinstance(obj, dict) and isinstance(obj.get("base"), list),
        "a model is {'base': [point...]}",
    )
    return NonsingularModel(
        BasePointSet.of(point_from_json(p) for p in obj["base"])
    )


def descriptor_to_json(d: IntersectionDescriptor) -> dict:
    return {
        "model": model_to_json(d.model),
        "subset": pointset_to_json(d.subset),
        "henselian": d.henselian,
    }


def descriptor_from_json(obj: Any, henselian: bool | None = None) -> IntersectionDescriptor:
    from .intersections import IntersectionDescriptor

    _expect(
        isinstance(obj, dict) and "model" in obj and "subset" in obj,
        "a descriptor is {'model': ..., 'subset': ..., 'henselian': bool}",
    )
    flag = obj.get("henselian", False)
    _expect(isinstance(flag, bool), "henselian must be a boolean")
    if henselian is not None:
        flag = henselian
    return IntersectionDescriptor(
        model=model_from_json(obj["model"]),
        subset=pointset_from_json(obj["subset"]),
        henselian=flag,
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
        isinstance(obj, dict) and isinstance(obj.get("gens"), list) and obj["gens"],
        "a monomial ideal is {'gens': [[a, b]...]}",
    )
    gens = []
    for g in obj["gens"]:
        _expect(
            isinstance(g, list)
            and len(g) == 2
            and all(_is_int(e) and e >= 0 for e in g),
            "a generator is a pair of non-negative integers",
        )
        gens.append((g[0], g[1]))
    return MonomialIdeal(tuple(gens))


def valuation_from_json(obj: Any) -> MonomialValuation:
    from .monomial import MonomialValuation

    _expect(
        isinstance(obj, dict)
        and _is_int(obj.get("p"))
        and _is_int(obj.get("q")),
        "a valuation is {'p': int, 'q': int}",
    )
    return MonomialValuation(obj["p"], obj["q"])
