"""The command line under arbitrary input, called in process.

Every verb gets random flags and JSON that is mostly well shaped, with
garbage anywhere.  Whatever the input, ``cli.main`` returns 0, 1 or 2, or
argparse exits; a refusal names its error class on stderr; and a second
call prints the same bytes.  Random token lists check the canonical-line
parser against argparse.
"""

import contextlib
import io
import json
import re
from unittest import mock

from hypothesis import given, settings, strategies as st

from qtree.argparser import build_parser
from qtree.cli import _parse_canonical, main

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False), st.text(max_size=4)
)
garbage = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def mostly(strategy):
    """The strategy, or one time in ten any JSON value in its place."""
    return st.sampled_from(range(10)).flatmap(lambda i: strategy if i < 9 else garbage)


labels = mostly(st.sampled_from(["X", "Y", "t1", "A"] * 3 + [""]))
paths = st.lists(labels, max_size=4)
points = mostly(st.fixed_dictionaries({"path": paths}))
# prefix closures of a few paths, so that many models are valid
closed_paths = st.lists(st.lists(st.sampled_from(["X", "Y", "t1"]), max_size=3), max_size=4).map(
    lambda ps: sorted({tuple(p[:i]) for p in ps for i in range(len(p) + 1)} | {()})
)
closed_bases = closed_paths.map(lambda ps: [{"path": list(p)} for p in ps])
models = mostly(
    st.fixed_dictionaries({"base": st.one_of(closed_bases, st.lists(points, max_size=4))})
)
ideals = st.fixed_dictionaries(
    {
        "factors": st.lists(
            mostly(st.fixed_dictionaries({"point": points, "mult": mostly(st.integers(1, 5))})),
            max_size=3,
        )
    }
)
point_lists = st.fixed_dictionaries({"points": st.lists(points, max_size=4)})


@st.composite
def descriptors(draw):
    """A model and a subset mostly of its closed points and its fans."""
    base = draw(closed_paths)
    near = st.tuples(st.sampled_from(base), labels).map(lambda t: {"path": list(t[0]) + [t[1]]})
    fan = st.fixed_dictionaries(
        {
            "base": st.sampled_from(base).map(lambda p: {"path": list(p)}),
            "excluded": st.lists(labels, max_size=3),
        }
    )
    subset = {
        "singles": draw(st.lists(mostly(near), max_size=3)),
        "cofinite": draw(st.lists(mostly(fan), max_size=2)),
    }
    doc = {"model": {"base": [{"path": list(p)} for p in base]}, "subset": subset}
    doc["henselian"] = draw(mostly(st.booleans()))
    return doc


exponents = st.lists(st.integers(0, 40), min_size=2, max_size=2)
# with a pure power of each variable among the generators or not
gens = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.lists(exponents, max_size=3)).map(
        lambda t: [[t[0], 0], [0, t[1]]] + t[2]
    ),
    st.lists(mostly(exponents), max_size=4),
)
monomials = st.fixed_dictionaries({"gens": gens})
monomial_text = st.text(alphabet="xy^0123456789, *", min_size=1, max_size=16)
valuations = st.fixed_dictionaries(
    {"p": mostly(st.integers(-1, 40)), "q": mostly(st.integers(-1, 40))}
)

DOCUMENTS = {
    "saturate": ideals,
    "base-points": ideals,
    "rees": ideals,
    "closed-points": models,
    "desingularize": ideals,
    "join": st.fixed_dictionaries({"models": mostly(st.lists(models, min_size=2, max_size=2))}),
    "minimal-model": point_lists,
    "min-incomparable": point_lists,
    "classify": mostly(descriptors()),
    "factorize": monomials,
    "closure": monomials,
    "transform": monomials,
    "point-of-valuation": valuations,
    "generators": ideals,
    "emit-dot": models,
}
MONOMIAL_VERBS = {"factorize", "closure", "transform"}
# valid --truncate levels stop at 4, since each further level costs four
# times the one before
TRUNCATE = [["--truncate", level] for level in ("0", "1", "2", "4", "9")]
OWN_FLAGS = {verb: [["--pretty"]] for verb in DOCUMENTS}
for verb in ("desingularize", "join", "minimal-model", "emit-dot"):
    OWN_FLAGS[verb].append(["--dot"])
OWN_FLAGS["saturate"].append(["--generators"])
OWN_FLAGS["classify"].append(["--henselian"])
OWN_FLAGS["closed-points"] += TRUNCATE
OWN_FLAGS["min-incomparable"] += TRUNCATE
ANY_FLAG = [flag for flags in OWN_FLAGS.values() for flag in flags] + [["--dir", "Z"]]


@st.composite
def calls(draw):
    """A verb, its input, and mostly its own flags, now and then another."""
    verb = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = draw(mostly(DOCUMENTS[verb]))
    text = json.dumps(doc)
    if verb in MONOMIAL_VERBS:
        text = draw(st.one_of(st.just(text), monomial_text))
    argv = [verb, text]
    if verb == "transform":
        argv += ["--dir", draw(st.sampled_from(["X", "Y"]))]
    flags = st.sampled_from(range(10)).flatmap(
        lambda i: st.sampled_from(OWN_FLAGS[verb] if i < 9 else ANY_FLAG)
    )
    for flag in draw(st.lists(flags, max_size=3)):
        argv += flag
    return argv


Y_FACTOR = '{"factors":[{"point":{"path":["Y"]},"mult":1}]}'


def call(argv):
    """(exit code, stdout, stderr, whether argparse exited), with
    ``Y_FACTOR`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch(
        "sys.stdin", io.StringIO(Y_FACTOR)
    ):
        try:
            code, exited = main(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


@settings(max_examples=300)
@given(calls())
def test_any_input_exits_cleanly_and_repeatably(argv):
    first = call(argv)
    code, out, err, exited = first
    if exited:
        assert code == 2 and out == "" and err.startswith("usage: ")
    else:
        assert code in (0, 1, 2)
        if code:
            assert out == "" and re.match(r"[A-Z][A-Za-z]*: ", err)
    assert call(argv) == first


verbs = st.sampled_from(sorted(DOCUMENTS))
tokens = st.one_of(
    verbs,
    st.sampled_from(["--pretty", "--dot", "--generators", "--henselian", "--truncate", "--dir"]),
    st.sampled_from(["-h", "-", "--", "-1", " 6", "\u0666", "1_0", "X", "Z", Y_FACTOR]),
)
# mostly a verb first, as every line the parser could answer starts
lines = st.one_of(
    st.lists(tokens, max_size=6),
    st.tuples(verbs, st.lists(tokens, max_size=5)).map(lambda t: [t[0], *t[1]]),
)


@settings(max_examples=400)
@given(lines)
def test_the_canonical_parser_agrees_with_argparse(argv):
    got = _parse_canonical(argv)
    if got is not None:
        assert vars(got) == vars(build_parser(argv).parse_args(argv))
    # argparse alone reads every line, as before the canonical parser
    with mock.patch("qtree.cli._parse_canonical", return_value=None):
        expected = call(argv)
    assert call(argv) == expected
