"""DOT output: one node per base point, and well-formed quoted strings
whatever the direction labels hold."""

import re

from conftest import P
from qtree import ROOT, BasePointSet, NonsingularModel
from qtree.render import model_to_dot

QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def unquote(token):
    return re.sub(r"\\(.)", r"\1", token[1:-1])


def node_lines(dot):
    """(id, label) of every base-point node, in order."""
    return [
        tuple(unquote(t) for t in QUOTED.findall(line)[:2])
        for line in dot.splitlines()
        if "style=filled" in line
    ]


def test_node_ids_are_one_to_one_on_paths():
    # ("X", "Y") and ("X.Y",) used to share the id "D.X.Y"
    base = BasePointSet.of([ROOT, P("X"), P("X", "Y"), P("X.Y")])
    dot = model_to_dot(NonsingularModel(base))
    nodes = node_lines(dot)
    assert len(nodes) == 4
    assert len({node_id for node_id, _ in nodes}) == 4
    edges = [line for line in dot.splitlines() if "->" in line and "dashed" not in line]
    assert len(edges) == len(set(edges)) == 3


def test_every_quote_is_inside_a_quoted_string():
    label = 'a"b\\'
    base = BasePointSet.of([ROOT, P(label), P(label, "X")])
    dot = model_to_dot(NonsingularModel(base))
    for line in dot.splitlines():
        assert '"' not in QUOTED.sub("", line), line
    labels = [node_label for _, node_label in node_lines(dot)]
    assert labels == ["D", label, f"{label}.X"]
    fans = [unquote(QUOTED.findall(line)[1]) for line in dot.splitlines() if "triangle" in line]
    assert fans == ["Q1(D) - {" + label + "}", f"Q1({label}) - {{X}}", f"Q1({label}.X)"]


def test_plain_labels_keep_their_ids():
    base = BasePointSet.of([ROOT, P("X"), P("X", "t1")])
    nodes = node_lines(model_to_dot(NonsingularModel(base)))
    assert nodes == [("D", "D"), ("D.X", "X"), ("D.X.t1", "X.t1")]
