"""Every verb with each of its flags prints exactly these bytes.

The expected stdout was recorded once and is kept here as literal text, so
a change anywhere behind the command line that moves one byte of output,
or an exit code, fails this test.
"""

import pytest

from qtree.cli import main

Y_FACTOR = '{"factors":[{"point":{"path":["Y"]},"mult":1}]}'
THREE_FACTORS = '{"factors":[{"point":{"path":[]},"mult":1},{"point":{"path":["X"]},"mult":1},{"point":{"path":["Y"]},"mult":1}]}'
EX111_MODEL = '{"base":[{"path":[]},{"path":["X"]},{"path":["Y"]}]}'
TWO_MODELS = '{"models":[{"base":[{"path":[]},{"path":["X"]}]},{"base":[{"path":[]},{"path":["Y"]}]}]}'
ANTICHAIN = '{"points":[{"path":["X","Y"]},{"path":["Y","X"]}]}'
ONE_POINT = '{"points":[{"path":["X"]}]}'
EX111_DESCRIPTOR = '{"model":{"base":[{"path":[]},{"path":["X"]},{"path":["Y"]}]},"subset":{"singles":[{"path":["X","Y"]},{"path":["Y","X"]}],"cofinite":[]},"henselian":false}'
FAN_DESCRIPTOR = '{"model":{"base":[{"path":[]},{"path":["Y"]}]},"subset":{"singles":[],"cofinite":[{"base":{"path":[]},"excluded":["Y"]},{"base":{"path":["Y"]},"excluded":[]}]}}'
ROOT_FAN_DESCRIPTOR = '{"model":{"base":[{"path":[]}]},"subset":{"cofinite":[{"base":{"path":[]}}]}}'
DOUBLE_POINT_DESCRIPTOR = '{"model":{"base":[{"path":[]},{"path":["Y"]}]},"subset":{"singles":[{"path":["Y","X"]}],"cofinite":[{"base":{"path":[]},"excluded":["Y"]}]}}'
COMPARABLE_DESCRIPTOR = '{"model":{"base":[{"path":[]},{"path":["X"]}]},"subset":{"singles":[{"path":["X","Y"]}],"cofinite":[{"base":{"path":[]}}]}}'
GENS = 'x^4, x^2 y, x y^2, y^4'
VALUATION = '{"p":1,"q":2}'

GOLDEN = [
    (("saturate", Y_FACTOR), 0, '{"factors": [{"mult": 1, "point": {"path": []}}, {"mult": 1, "point": {"path": ["Y"]}}], "schema": "qtree/1"}\n'),
    (("saturate", Y_FACTOR, "--pretty"), 0, 'D * Y\n'),
    (("saturate", Y_FACTOR, "--generators"), 0, 'x^2, x y, y^3\n'),
    (("base-points", Y_FACTOR), 0, '{"points": [{"path": []}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    (("base-points", Y_FACTOR, "--pretty"), 0, '{D, Y}\n'),
    (("rees", THREE_FACTORS), 0, '{"schema": "qtree/1", "valuations": [{"center": {"path": []}}, {"center": {"path": ["X"]}}, {"center": {"path": ["Y"]}}]}\n'),
    (("rees", THREE_FACTORS, "--pretty"), 0, 'ord(D), ord(X), ord(Y)\n'),
    (("closed-points", EX111_MODEL), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": []}, {"base": {"path": ["Y"]}, "excluded": []}], "schema": "qtree/1", "singles": []}\n'),
    (("closed-points", EX111_MODEL, "--pretty"), 0, 'Q1(D) - {X, Y} + Q1(X) + Q1(Y)\n'),
    (("closed-points", EX111_MODEL, "--truncate", "3"), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": []}, {"base": {"path": ["Y"]}, "excluded": []}], "schema": "qtree/1", "singles": []}\n'),
    (("desingularize", Y_FACTOR), 0, '{"base": [{"path": []}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    (("desingularize", Y_FACTOR, "--pretty"), 0, 'base: {D, Y}\nterminal: {Y}\n'),
    (("desingularize", Y_FACTOR, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    (("join", TWO_MODELS), 0, '{"base": [{"path": []}, {"path": ["X"]}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    (("join", TWO_MODELS, "--pretty"), 0, 'base: {D, X, Y}\nterminal: {X, Y}\n'),
    (("join", TWO_MODELS, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    (("minimal-model", ANTICHAIN), 0, '{"base": [{"path": []}, {"path": ["X"]}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    (("minimal-model", ANTICHAIN, "--pretty"), 0, 'base: {D, X, Y}\nterminal: {X, Y}\n'),
    (("minimal-model", ANTICHAIN, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    (("min-incomparable", ANTICHAIN), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": ["Y"]}, {"base": {"path": ["Y"]}, "excluded": ["X"]}], "schema": "qtree/1", "singles": []}\n'),
    (("min-incomparable", ANTICHAIN, "--pretty"), 0, 'Q1(D) - {X, Y} + Q1(X) - {Y} + Q1(Y) - {X}\n'),
    (("min-incomparable", ANTICHAIN, "--truncate", "3"), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": ["Y"]}, {"base": {"path": ["Y"]}, "excluded": ["X"]}], "schema": "qtree/1", "singles": []}\n'),
    (("min-incomparable", ONE_POINT, "--truncate", "3", "--pretty"), 0, 'Q1(D) - {X}\n'),
    (("classify", EX111_DESCRIPTOR), 0, '{"essential": "YES", "essentialBasis": "each member of a finite incomparable family is a localization of the intersection", "irredundant": "YES", "irredundantBasis": "each member of a finite incomparable family is the localization of the intersection at one of its maximal ideals, so none can be dropped", "maximalIdealCount": 2, "maximalIdealCountBasis": "a finite family of 2 pairwise incomparable points intersects to a semilocal regular ring with exactly 2 maximal ideals", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    (("classify", EX111_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: 2\n  (a finite family of 2 pairwise incomparable points intersects to a semilocal regular ring with exactly 2 maximal ideals)\nirredundant: YES\n  (each member of a finite incomparable family is the localization of the intersection at one of its maximal ideals, so none can be dropped)\nessential: YES\n  (each member of a finite incomparable family is a localization of the intersection)\n'),
    (("classify", FAN_DESCRIPTOR), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "UNKNOWN", "irredundantBasis": "irredundance of general infinite families over a non-Henselian base is outside the implemented criteria", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    (("classify", FAN_DESCRIPTOR, "--henselian"), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "YES", "irredundantBasis": "over a Henselian base, every family of pairwise incomparable points intersects irredundantly", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    (("classify", FAN_DESCRIPTOR, "--henselian", "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: YES\n  (over a Henselian base, every family of pairwise incomparable points intersects irredundantly)\nessential: UNKNOWN\n  (essentiality of mixed infinite families is outside the implemented criteria)\n'),
    (("factorize", GENS), 0, '{"factors": [{"mult": 1, "point": {"path": []}}, {"mult": 1, "point": {"path": ["X"]}}, {"mult": 1, "point": {"path": ["Y"]}}], "schema": "qtree/1"}\n'),
    (("factorize", GENS, "--pretty"), 0, 'D * X * Y\n'),
    (("closure", GENS), 0, '{"gens": [[4, 0], [2, 1], [1, 2], [0, 4]], "schema": "qtree/1"}\n'),
    (("closure", GENS, "--pretty"), 0, 'x^4, x^2 y, x y^2, y^4\n'),
    (("transform", GENS, "--dir", "X"), 0, '{"gens": [[1, 0], [0, 1]], "schema": "qtree/1"}\n'),
    (("transform", GENS, "--dir", "Y", "--pretty"), 0, 'x, y\n'),
    (("point-of-valuation", VALUATION), 0, '{"path": ["X"], "schema": "qtree/1"}\n'),
    (("point-of-valuation", VALUATION, "--pretty"), 0, 'X\n'),
    (("generators", THREE_FACTORS), 0, '{"gens": [[4, 0], [2, 1], [1, 2], [0, 4]], "schema": "qtree/1"}\n'),
    (("generators", THREE_FACTORS, "--pretty"), 0, 'x^4, x^2 y, x y^2, y^4\n'),
    (("emit-dot", EX111_MODEL), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    (("emit-dot", EX111_MODEL, "--pretty"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    (("emit-dot", EX111_MODEL, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
]


@pytest.mark.parametrize(
    "argv, code, stdout",
    GOLDEN,
    ids=[" ".join(argv[:1] + argv[2:]) for argv, _, _ in GOLDEN],
)
def test_stdout_is_byte_identical(capsys, argv, code, stdout):
    assert main(list(argv)) == code
    out = capsys.readouterr()
    assert out.out == stdout
    assert out.err == ""


# a ring point, a named singularity and an irredundant NO: the --pretty lines
# that no case above prints, each with its JSON
OPTIONAL_LINES = {
    "ring point": (("classify", ROOT_FAN_DESCRIPTOR), 0, '{"essential": "NO", "essentialBasis": "a full first neighborhood intersects to the point beneath it, and no member is a localization of that local ring", "irredundant": "YES", "irredundantBasis": "the full first neighborhood of the root represents the root ring irredundantly", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": {"path": []}, "schema": "qtree/1", "singularity": null}\n'),
    "ring point --pretty": (("classify", ROOT_FAN_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: YES\n  (the full first neighborhood of the root represents the root ring irredundantly)\nessential: NO\n  (a full first neighborhood intersects to the point beneath it, and no member is a localization of that local ring)\nringPoint: D\n'),
    "singularity": (("classify", DOUBLE_POINT_DESCRIPTOR), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "UNKNOWN", "irredundantBasis": "irredundance of general infinite families over a non-Henselian base is outside the implemented criteria", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": "ordinary double point"}\n'),
    "singularity --pretty": (("classify", DOUBLE_POINT_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: UNKNOWN\n  (irredundance of general infinite families over a non-Henselian base is outside the implemented criteria)\nessential: UNKNOWN\n  (essentiality of mixed infinite families is outside the implemented criteria)\nsingularity: ordinary double point\n'),
    "irredundant NO": (("classify", COMPARABLE_DESCRIPTOR), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "NO", "irredundantBasis": "the subset has comparable members; every non-minimal member contains a minimal one and can be dropped without changing the intersection", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    "irredundant NO --pretty": (("classify", COMPARABLE_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: NO\n  (the subset has comparable members; every non-minimal member contains a minimal one and can be dropped without changing the intersection)\nessential: UNKNOWN\n  (essentiality of mixed infinite families is outside the implemented criteria)\n'),
}


@pytest.mark.parametrize("argv, code, stdout", list(OPTIONAL_LINES.values()), ids=list(OPTIONAL_LINES))
def test_optional_lines_are_byte_identical(capsys, argv, code, stdout):
    test_stdout_is_byte_identical(capsys, argv, code, stdout)
