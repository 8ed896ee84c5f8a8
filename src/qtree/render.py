"""Diagram emission: models as DOT trees.

The DOT rendering draws the base-point set as a rooted tree.  Base points
are filled nodes, terminal base points are double-circled, and each base
point carries one dashed wedge standing for its cofinite fan of closed
points (the first neighborhood minus the directions that lead deeper into
the base set).
"""

from __future__ import annotations

from .models import NonsingularModel


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def model_to_dot(model: NonsingularModel) -> str:
    lines = [
        "digraph quadratic_tree {",
        "  rankdir=TB;",
        '  node [fontname="Helvetica"];',
    ]
    # the members come breadth first, each one's labels above in label
    # order, so the ids of the members above queue up in the order the
    # members come; a dot or backslash inside a label is escaped, so that
    # the paths ("X", "Y") and ("X.Y",) get different ids
    ids = ["D"]
    edges = []
    for i, (p, labels) in enumerate(model.base.labels_above()):
        node = ids[i]
        shape = "" if labels else "peripheries=2, "
        lines.append(
            f"  {_quoted(node)} [label={_quoted(str(p))}, {shape}style=filled, "
            "fillcolor=lightgrey];"
        )
        for label in labels:
            ids.append(node + "." + label.replace("\\", "\\\\").replace(".", "\\."))
            edges.append(f"  {_quoted(node)} -> {_quoted(ids[-1])};")
    lines += edges
    for fan, node in zip(model.closed_points().fans, ids):
        fan_id = _quoted("fan:" + node)
        lines.append(
            f"  {fan_id} [label={_quoted(str(fan))}, shape=triangle, style=dashed];"
        )
        lines.append(f"  {_quoted(node)} -> {fan_id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
