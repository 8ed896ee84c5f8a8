"""Every verb with each of its flags prints exactly these bytes.

The expected stdout was recorded once and is kept here as literal text, so
a change anywhere behind the command line that moves one byte of output,
or an exit code, fails this test.  Each case is keyed by its test id, a
short label naming the verb, the input where the verb takes more than one,
and the flags, so a new case renames none of the others.
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
GENS = 'x^4, x^2 y, x y^2, y^4'
VALUATION = '{"p":1,"q":2}'

GOLDEN = {
    "saturate": (("saturate", Y_FACTOR), 0, '{"factors": [{"mult": 1, "point": {"path": []}}, {"mult": 1, "point": {"path": ["Y"]}}], "schema": "qtree/1"}\n'),
    "saturate --pretty": (("saturate", Y_FACTOR, "--pretty"), 0, 'D * Y\n'),
    "saturate --generators": (("saturate", Y_FACTOR, "--generators"), 0, 'x^2, x y, y^3\n'),
    "base-points": (("base-points", Y_FACTOR), 0, '{"points": [{"path": []}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    "base-points --pretty": (("base-points", Y_FACTOR, "--pretty"), 0, '{D, Y}\n'),
    "rees": (("rees", THREE_FACTORS), 0, '{"schema": "qtree/1", "valuations": [{"center": {"path": []}}, {"center": {"path": ["X"]}}, {"center": {"path": ["Y"]}}]}\n'),
    "rees --pretty": (("rees", THREE_FACTORS, "--pretty"), 0, 'ord(D), ord(X), ord(Y)\n'),
    "closed-points": (("closed-points", EX111_MODEL), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": []}, {"base": {"path": ["Y"]}, "excluded": []}], "schema": "qtree/1", "singles": []}\n'),
    "closed-points --pretty": (("closed-points", EX111_MODEL, "--pretty"), 0, 'Q1(D) - {X, Y} + Q1(X) + Q1(Y)\n'),
    "closed-points --truncate 3": (("closed-points", EX111_MODEL, "--truncate", "3"), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": []}, {"base": {"path": ["Y"]}, "excluded": []}], "schema": "qtree/1", "singles": []}\n'),
    "desingularize": (("desingularize", Y_FACTOR), 0, '{"base": [{"path": []}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    "desingularize --pretty": (("desingularize", Y_FACTOR, "--pretty"), 0, 'base: {D, Y}\nterminal: {Y}\n'),
    "desingularize --dot": (("desingularize", Y_FACTOR, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    "join": (("join", TWO_MODELS), 0, '{"base": [{"path": []}, {"path": ["X"]}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    "join --pretty": (("join", TWO_MODELS, "--pretty"), 0, 'base: {D, X, Y}\nterminal: {X, Y}\n'),
    "join --dot": (("join", TWO_MODELS, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    "minimal-model": (("minimal-model", ANTICHAIN), 0, '{"base": [{"path": []}, {"path": ["X"]}, {"path": ["Y"]}], "schema": "qtree/1"}\n'),
    "minimal-model --pretty": (("minimal-model", ANTICHAIN, "--pretty"), 0, 'base: {D, X, Y}\nterminal: {X, Y}\n'),
    "minimal-model --dot": (("minimal-model", ANTICHAIN, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    "min-incomparable": (("min-incomparable", ANTICHAIN), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": ["Y"]}, {"base": {"path": ["Y"]}, "excluded": ["X"]}], "schema": "qtree/1", "singles": []}\n'),
    "min-incomparable --pretty": (("min-incomparable", ANTICHAIN, "--pretty"), 0, 'Q1(D) - {X, Y} + Q1(X) - {Y} + Q1(Y) - {X}\n'),
    "min-incomparable --truncate 3": (("min-incomparable", ANTICHAIN, "--truncate", "3"), 0, '{"cofinite": [{"base": {"path": []}, "excluded": ["X", "Y"]}, {"base": {"path": ["X"]}, "excluded": ["Y"]}, {"base": {"path": ["Y"]}, "excluded": ["X"]}], "schema": "qtree/1", "singles": []}\n'),
    "min-incomparable --truncate 3 --pretty": (("min-incomparable", ONE_POINT, "--truncate", "3", "--pretty"), 0, 'Q1(D) - {X}\n'),
    "classify ex111": (("classify", EX111_DESCRIPTOR), 0, '{"essential": "YES", "essentialBasis": "each member of a finite incomparable family is a localization of the intersection", "irredundant": "YES", "irredundantBasis": "each member of a finite incomparable family is the localization of the intersection at one of its maximal ideals, so none can be dropped", "maximalIdealCount": 2, "maximalIdealCountBasis": "a finite family of 2 pairwise incomparable points intersects to a semilocal regular ring with exactly 2 maximal ideals", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    "classify ex111 --pretty": (("classify", EX111_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: 2\n  (a finite family of 2 pairwise incomparable points intersects to a semilocal regular ring with exactly 2 maximal ideals)\nirredundant: YES\n  (each member of a finite incomparable family is the localization of the intersection at one of its maximal ideals, so none can be dropped)\nessential: YES\n  (each member of a finite incomparable family is a localization of the intersection)\n'),
    "classify fan": (("classify", FAN_DESCRIPTOR), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "UNKNOWN", "irredundantBasis": "irredundance of general infinite families over a non-Henselian base is outside the implemented criteria", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    "classify fan --henselian": (("classify", FAN_DESCRIPTOR, "--henselian"), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "YES", "irredundantBasis": "over a Henselian base, every family of pairwise incomparable points intersects irredundantly", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": null}\n'),
    "classify fan --henselian --pretty": (("classify", FAN_DESCRIPTOR, "--henselian", "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: YES\n  (over a Henselian base, every family of pairwise incomparable points intersects irredundantly)\nessential: UNKNOWN\n  (essentiality of mixed infinite families is outside the implemented criteria)\n'),
    "factorize": (("factorize", GENS), 0, '{"factors": [{"mult": 1, "point": {"path": []}}, {"mult": 1, "point": {"path": ["X"]}}, {"mult": 1, "point": {"path": ["Y"]}}], "schema": "qtree/1"}\n'),
    "factorize --pretty": (("factorize", GENS, "--pretty"), 0, 'D * X * Y\n'),
    "closure": (("closure", GENS), 0, '{"gens": [[4, 0], [2, 1], [1, 2], [0, 4]], "schema": "qtree/1"}\n'),
    "closure --pretty": (("closure", GENS, "--pretty"), 0, 'x^4, x^2 y, x y^2, y^4\n'),
    "transform --dir X": (("transform", GENS, "--dir", "X"), 0, '{"gens": [[1, 0], [0, 1]], "schema": "qtree/1"}\n'),
    "transform --dir Y --pretty": (("transform", GENS, "--dir", "Y", "--pretty"), 0, 'x, y\n'),
    "point-of-valuation": (("point-of-valuation", VALUATION), 0, '{"path": ["X"], "schema": "qtree/1"}\n'),
    "point-of-valuation --pretty": (("point-of-valuation", VALUATION, "--pretty"), 0, 'X\n'),
    "generators": (("generators", THREE_FACTORS), 0, '{"gens": [[4, 0], [2, 1], [1, 2], [0, 4]], "schema": "qtree/1"}\n'),
    "generators --pretty": (("generators", THREE_FACTORS, "--pretty"), 0, 'x^4, x^2 y, x y^2, y^4\n'),
    "emit-dot": (("emit-dot", EX111_MODEL), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    "emit-dot --pretty": (("emit-dot", EX111_MODEL, "--pretty"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    "emit-dot --dot": (("emit-dot", EX111_MODEL, "--dot"), 0, 'digraph quadratic_tree {\n  rankdir=TB;\n  node [fontname="Helvetica"];\n  "D" [label="D", style=filled, fillcolor=lightgrey];\n  "D.X" [label="X", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D.Y" [label="Y", peripheries=2, style=filled, fillcolor=lightgrey];\n  "D" -> "D.X";\n  "D" -> "D.Y";\n  "fan:D" [label="Q1(D) - {X, Y}", shape=triangle, style=dashed];\n  "D" -> "fan:D" [style=dashed];\n  "fan:D.X" [label="Q1(X)", shape=triangle, style=dashed];\n  "D.X" -> "fan:D.X" [style=dashed];\n  "fan:D.Y" [label="Q1(Y)", shape=triangle, style=dashed];\n  "D.Y" -> "fan:D.Y" [style=dashed];\n}\n\n'),
    # a ring point, a named singularity and an irredundant NO: the --pretty lines
    # that no case above prints, each with its JSON
    "classify root fan": (("classify", ROOT_FAN_DESCRIPTOR), 0, '{"essential": "NO", "essentialBasis": "a full first neighborhood intersects to the point beneath it, and no member is a localization of that local ring", "irredundant": "YES", "irredundantBasis": "the full first neighborhood of the root represents the root ring irredundantly", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": {"path": []}, "schema": "qtree/1", "singularity": null}\n'),
    "classify root fan --pretty": (("classify", ROOT_FAN_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: YES\n  (the full first neighborhood of the root represents the root ring irredundantly)\nessential: NO\n  (a full first neighborhood intersects to the point beneath it, and no member is a localization of that local ring)\nringPoint: D\n'),
    "classify double point": (("classify", DOUBLE_POINT_DESCRIPTOR), 0, '{"essential": "UNKNOWN", "essentialBasis": "essentiality of mixed infinite families is outside the implemented criteria", "irredundant": "UNKNOWN", "irredundantBasis": "irredundance of general infinite families over a non-Henselian base is outside the implemented criteria", "maximalIdealCount": "INFINITE", "maximalIdealCountBasis": "a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite", "noetherian": "YES", "noetherianBasis": "an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2", "ringPoint": null, "schema": "qtree/1", "singularity": "ordinary double point"}\n'),
    "classify double point --pretty": (("classify", DOUBLE_POINT_DESCRIPTOR, "--pretty"), 0, 'noetherian: YES\n  (an intersection of closed points of a nonsingular projective model is a normal Noetherian domain with all maximal ideals of height 2)\nmaximalIdealCount: INFINITE\n  (a cofinite first-neighborhood fan contributes one maximal ideal per member, and first neighborhoods are infinite)\nirredundant: UNKNOWN\n  (irredundance of general infinite families over a non-Henselian base is outside the implemented criteria)\nessential: UNKNOWN\n  (essentiality of mixed infinite families is outside the implemented criteria)\nsingularity: ordinary double point\n'),
}


@pytest.mark.parametrize("argv, code, stdout", list(GOLDEN.values()), ids=list(GOLDEN))
def test_stdout_is_byte_identical(capsys, argv, code, stdout):
    assert main(list(argv)) == code
    out = capsys.readouterr()
    assert out.out == stdout
    assert out.err == ""
