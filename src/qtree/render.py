"""Diagram emission: models as DOT trees.

The DOT rendering draws the base-point set as a rooted tree.  Base points
are filled nodes, terminal base points are double-circled, and each base
point carries one dashed wedge standing for its cofinite fan of closed
points (the first neighborhood minus the directions that lead deeper into
the base set).
"""

from __future__ import annotations

from .models import NonsingularModel
from .points import Point


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_id(p: Point) -> str:
    # a dot or backslash inside a label is escaped, so that the paths
    # ("X", "Y") and ("X.Y",) get different ids
    return "D" + "".join("." + l.replace("\\", "\\\\").replace(".", "\\.") for l in p.path)


def model_to_dot(model: NonsingularModel) -> str:
    base = model.base
    terminals = set(base.terminals())
    lines = [
        "digraph quadratic_tree {",
        "  rankdir=TB;",
        '  node [fontname="Helvetica"];',
    ]
    ids = {p: _quoted(_node_id(p)) for p in base.sorted()}
    for p, node in ids.items():
        shape = "peripheries=2, " if p in terminals else ""
        lines.append(
            f"  {node} [label={_quoted(str(p))}, {shape}style=filled, "
            "fillcolor=lightgrey];"
        )
    for p, node in ids.items():
        if not p.is_root:
            lines.append(f"  {ids[p.parent()]} -> {node};")
    for fan in model.closed_points().fans:
        fan_id = _quoted("fan:" + _node_id(fan.base))
        lines.append(
            f"  {fan_id} [label={_quoted(str(fan))}, shape=triangle, style=dashed];"
        )
        lines.append(f"  {ids[fan.base]} -> {fan_id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
