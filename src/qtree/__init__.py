"""Calculus for the quadratic tree of a 2-dimensional regular local ring.

Points of the tree, complete m-primary ideals as Zariski factor multisets,
nonsingular projective models as base-point sets, intersection
classification, and a concrete monomial-ideal backend over k[x, y].
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the submodule that defines it; a name is imported
# on first use, so ``import qtree`` loads no submodule
_EXPORTS = {
    "errors": (
        "EmptyInput",
        "InvalidBasePoints",
        "InvalidDescriptor",
        "NonToricPoint",
        "NotAntichain",
        "NotComplete",
        "NotCoprime",
        "NotMPrimary",
        "NotSaturated",
        "OracleMismatch",
        "OutputTooLarge",
        "QTreeError",
        "RootHasNoParent",
        "RootNotAllowed",
        "UnitIdeal",
    ),
    "ideals": ("BasePointSet", "CompleteIdeal"),
    "intersections": (
        "INFINITE",
        "Classification",
        "IntersectionDescriptor",
        "Verdict",
        "classify",
        "is_complete_representation",
    ),
    "models": (
        "NonsingularModel",
        "minimal_desingularization",
        "minimal_incomparable_set",
        "minimal_model_containing",
        "model_from_ideal",
    ),
    "monomial": (
        "MonomialIdeal",
        "MonomialValuation",
        "base_points",
        "factorize",
        "generators_for_ideal",
        "point_for_valuation",
        "valuation_for_point",
    ),
    "points": ("ROOT", "OrderValuation", "Point", "sorted_points"),
    "pointsets": ("CofiniteFan", "SymbolicPointSet"),
    "truncation": ("TruncatedTree",),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "render", "serialize"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
