import argparse
import json

import pytest

from qtree import ROOT, SymbolicPointSet
from qtree.argparser import build_parser
from qtree.cli import _COMMANDS, _OPTIONS, _parse_canonical, main

Y_FACTOR = '{"factors":[{"point":{"path":["Y"]},"mult":1}]}'
EX111_MODEL = '{"base":[{"path":[]},{"path":["X"]},{"path":["Y"]}]}'
EX111_DESCRIPTOR = json.dumps(
    {
        "model": {"base": [{"path": []}, {"path": ["X"]}, {"path": ["Y"]}]},
        "subset": {
            "singles": [{"path": ["X", "Y"]}, {"path": ["Y", "X"]}],
            "cofinite": [],
        },
        "henselian": False,
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_saturate(capsys):
    code, out, _ = run(capsys, "saturate", Y_FACTOR)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "qtree/1"
    assert payload["factors"] == [
        {"mult": 1, "point": {"path": []}},
        {"mult": 1, "point": {"path": ["Y"]}},
    ]


def test_saturate_output_is_a_fixed_point(capsys):
    _, first, _ = run(capsys, "saturate", Y_FACTOR)
    code, second, _ = run(capsys, "saturate", first.strip())
    assert code == 0
    assert second == first


def test_saturate_generators(capsys):
    code, out, _ = run(capsys, "saturate", Y_FACTOR, "--generators")
    assert code == 0
    assert out.strip() == "x^2, x y, y^3"


def test_pretty_outputs(capsys):
    code, out, _ = run(capsys, "saturate", Y_FACTOR, "--pretty")
    assert code == 0
    assert out.strip() == "D * Y"
    code, out, _ = run(capsys, "classify", EX111_DESCRIPTOR, "--pretty")
    assert code == 0
    assert "maximalIdealCount: 2" in out
    assert "irredundant: YES" in out
    code, out, _ = run(capsys, "closed-points", '{"base":[{"path":[]}]}', "--pretty")
    assert code == 0
    assert out.strip() == "Q1(D)"
    code, out, _ = run(capsys, "rees", Y_FACTOR, "--pretty")
    assert code == 0
    assert out.strip() == "ord(Y)"


def test_outputs_are_byte_identical_across_runs(capsys):
    _, a, _ = run(capsys, "saturate", Y_FACTOR)
    _, b, _ = run(capsys, "saturate", Y_FACTOR)
    assert a == b


def test_base_points_and_rees(capsys):
    code, out, _ = run(capsys, "base-points", Y_FACTOR)
    assert code == 0
    assert json.loads(out)["points"] == [{"path": []}, {"path": ["Y"]}]
    code, out, _ = run(capsys, "rees", Y_FACTOR)
    assert code == 0
    assert json.loads(out)["valuations"] == [{"center": {"path": ["Y"]}}]


def test_closed_points(capsys):
    code, out, _ = run(capsys, "closed-points", '{"base":[{"path":[]}]}')
    assert code == 0
    payload = json.loads(out)
    assert payload["cofinite"] == [{"base": {"path": []}, "excluded": []}]
    assert payload["singles"] == []


def test_closed_points_with_oracle_cross_check(capsys):
    code, _, _ = run(capsys, "closed-points", EX111_MODEL, "--truncate", "3")
    assert code == 0


def test_desingularize(capsys):
    code, out, _ = run(capsys, "desingularize", Y_FACTOR)
    assert code == 0
    assert json.loads(out)["base"] == [{"path": []}, {"path": ["Y"]}]


def test_desingularize_dot(capsys):
    code, out, _ = run(capsys, "desingularize", Y_FACTOR, "--dot")
    assert code == 0
    assert out.startswith("digraph")


def test_join(capsys):
    payload = json.dumps(
        {
            "models": [
                {"base": [{"path": []}, {"path": ["X"]}]},
                {"base": [{"path": []}, {"path": ["Y"]}]},
            ]
        }
    )
    code, out, _ = run(capsys, "join", payload)
    assert code == 0
    assert json.loads(out)["base"] == [
        {"path": []},
        {"path": ["X"]},
        {"path": ["Y"]},
    ]


def test_minimal_model(capsys):
    code, out, _ = run(
        capsys,
        "minimal-model",
        '{"points":[{"path":["X","Y"]},{"path":["Y","X"]}]}',
    )
    assert code == 0
    assert json.loads(out)["base"] == [
        {"path": []},
        {"path": ["X"]},
        {"path": ["Y"]},
    ]


def test_min_incomparable(capsys):
    code, out, _ = run(
        capsys, "min-incomparable", '{"points":[{"path":["X"]}]}', "--truncate", "4"
    )
    assert code == 0
    assert json.loads(out)["cofinite"] == [
        {"base": {"path": []}, "excluded": ["X"]}
    ]


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", EX111_DESCRIPTOR)
    assert code == 0
    payload = json.loads(out)
    assert payload["maximalIdealCount"] == 2
    assert payload["irredundant"] == "YES"
    assert payload["essential"] == "YES"


def test_classify_henselian_flag(capsys):
    descriptor = json.dumps(
        {
            "model": {"base": [{"path": []}, {"path": ["Y"]}]},
            "subset": {
                "singles": [],
                "cofinite": [
                    {"base": {"path": []}, "excluded": ["Y"]},
                    {"base": {"path": ["Y"]}, "excluded": []},
                ],
            },
        }
    )
    _, plain, _ = run(capsys, "classify", descriptor)
    assert json.loads(plain)["irredundant"] == "UNKNOWN"
    _, flagged, _ = run(capsys, "classify", descriptor, "--henselian")
    assert json.loads(flagged)["irredundant"] == "YES"


def test_factorize_then_generators_round_trips_through_the_cli(capsys):
    code, factors, _ = run(capsys, "factorize", "x^4, x^2 y, x y^2, y^4")
    assert code == 0
    code, text, _ = run(capsys, "generators", factors.strip(), "--pretty")
    assert code == 0
    assert text.strip() == "x^4, x^2 y, x y^2, y^4"


def test_factorize_accepts_text_and_json(capsys):
    code, out, _ = run(capsys, "factorize", "x^2, x y, y^3")
    assert code == 0
    assert json.loads(out)["factors"] == [
        {"mult": 1, "point": {"path": []}},
        {"mult": 1, "point": {"path": ["Y"]}},
    ]
    code, out2, _ = run(capsys, "factorize", '{"gens":[[2,0],[1,1],[0,3]]}')
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_closure_and_transform(capsys):
    code, out, _ = run(capsys, "closure", "x^2, y^2", "--pretty")
    assert code == 0
    assert out.strip() == "x^2, x y, y^2"
    code, out, _ = run(capsys, "transform", "x, y^2", "--dir", "Y", "--pretty")
    assert code == 0
    assert out.strip() == "x, y"


def test_point_of_valuation(capsys):
    code, out, _ = run(capsys, "point-of-valuation", '{"p":1,"q":2}')
    assert code == 0
    assert json.loads(out)["path"] == ["X"]
    _, out, _ = run(capsys, "point-of-valuation", '{"p":2,"q":1}')
    assert json.loads(out)["path"] == ["Y"]


def test_generators(capsys):
    ideal = json.dumps(
        {
            "factors": [
                {"point": {"path": []}, "mult": 1},
                {"point": {"path": ["X"]}, "mult": 1},
                {"point": {"path": ["Y"]}, "mult": 1},
            ]
        }
    )
    code, out, _ = run(capsys, "generators", ideal, "--pretty")
    assert code == 0
    assert out.strip() == "x^4, x^2 y, x y^2, y^4"


def test_emit_dot(capsys):
    code, out, _ = run(capsys, "emit-dot", EX111_MODEL)
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("peripheries=2") == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(Y_FACTOR))
    code, out, _ = run(capsys, "saturate", "-")
    assert code == 0
    assert json.loads(out)["factors"][0]["point"] == {"path": []}


def test_file_input(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(Y_FACTOR, encoding="utf-8")
    code, out, _ = run(capsys, "saturate", str(path))
    assert code == 0
    assert len(json.loads(out)["factors"]) == 2


@pytest.mark.parametrize("verb", ["closure", "factorize"])
def test_generator_text_from_a_file_and_stdin(capsys, monkeypatch, tmp_path, verb):
    import io

    gens = "x^2, x y, y^3"
    path = tmp_path / "gens.txt"
    path.write_text(gens + "\n", encoding="utf-8")
    inline = run(capsys, verb, gens, "--pretty")
    assert inline[0] == 0
    assert run(capsys, verb, str(path), "--pretty") == inline
    monkeypatch.setattr("sys.stdin", io.StringIO(gens + "\n"))
    assert run(capsys, verb, "-", "--pretty") == inline
    path.write_text("not a monomial\n", encoding="utf-8")
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:")


@pytest.mark.parametrize("verb", ["closure", "factorize", "transform"])
@pytest.mark.parametrize(
    "source, text_error",
    [
        ("x^-1, y", "cannot parse monomial 'x^-1'"),
        ("x^2,,y", "cannot parse monomial ''"),
        ("X^2, y", "cannot parse monomial 'X^2'"),
        ("missing.json", "cannot parse monomial 'missing.json'"),
    ],
)
def test_input_that_is_neither_generator_text_nor_a_file_names_both(
    capsys, monkeypatch, tmp_path, verb, source, text_error
):
    monkeypatch.chdir(tmp_path)
    flags = ["--dir", "X"] if verb == "transform" else []
    code, out, err = run(capsys, verb, source, *flags)
    assert (code, out) == (2, "")
    assert err == (
        f"ParseError: cannot read input {source!r}: as generator text, {text_error}; "
        f"as a path, [Errno 2] No such file or directory: {source!r}\n"
    )


@pytest.mark.parametrize("verb", ["saturate", "closed-points", "classify"])
def test_a_missing_json_path_is_a_file_error(capsys, monkeypatch, tmp_path, verb):
    # a verb that reads no generator text tries the file alone
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, verb, "missing.json")
    assert (code, out) == (2, "")
    assert err == (
        "ParseError: cannot read input 'missing.json': "
        "[Errno 2] No such file or directory: 'missing.json'\n"
    )


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "saturate", '{"factors":[]}')
    assert code == 1
    assert err.startswith("UnitIdeal:")
    code, _, err = run(capsys, "transform", "x^2, y^2", "--dir", "X")
    assert code == 1
    assert err.startswith("NotComplete:")
    code, _, err = run(
        capsys, "closed-points", '{"base":[{"path":[]},{"path":["X","Y"]}]}'
    )
    assert code == 1
    assert err.startswith("InvalidBasePoints:")
    bad_descriptor = json.dumps(
        {
            "model": {"base": [{"path": []}]},
            "subset": {"singles": [{"path": ["X", "Y"]}], "cofinite": []},
        }
    )
    code, _, err = run(capsys, "classify", bad_descriptor)
    assert code == 1
    assert err.startswith("InvalidDescriptor:")
    # a descriptor names closed points only: a fan holding a base point is
    # refused
    holding = json.dumps(
        {
            "model": {"base": [{"path": []}, {"path": ["X"]}]},
            "subset": {"singles": [{"path": ["X", "Y"]}], "cofinite": [{"base": {"path": []}}]},
        }
    )
    for flags in ((), ("--pretty",)):
        assert run(capsys, "classify", holding, *flags) == (
            1,
            "",
            "InvalidDescriptor: fan Q1(D) holds the base point X\n",
        )


@pytest.mark.parametrize(
    "model, message",
    [
        ('{"base":[{"path":[]},{"path":["X","Y"]}]}', "X.Y is present but its parent X is not"),
        ('{"base":[{"path":["X"]}]}', "a base-point set must contain the root"),
    ],
    ids=["no-parent", "no-root"],
)
@pytest.mark.parametrize("verb", ["closed-points", "emit-dot"])
def test_an_invalid_model_is_refused_by_name(capsys, verb, model, message):
    assert run(capsys, verb, model) == (1, "", f"InvalidBasePoints: {message}\n")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "saturate", "{not json")
    assert code == 2
    assert err.startswith("ParseError:")
    code, _, err = run(capsys, "saturate", "/no/such/file.json")
    assert code == 2
    code, _, err = run(capsys, "minimal-model", '{"wrong": true}')
    assert code == 2
    code, _, err = run(
        capsys, "saturate", '{"schema":"qtree/999","factors":[]}'
    )
    assert code == 2
    assert "schema" in err


def test_empty_excluded_label_is_a_parse_error(capsys):
    # Q1(D) - {""} was read as the full first neighborhood under another
    # name, and classified essential with no ring point
    fan = {"base": {"path": []}, "excluded": [""]}
    descriptor = json.dumps({"model": {"base": [{"path": []}]}, "subset": {"cofinite": [fan]}})
    error = "ParseError: direction labels must be nonempty strings\n"
    assert run(capsys, "classify", descriptor, "--pretty") == (2, "", error)
    assert run(capsys, "minimal-model", '{"points":[{"path":[""]}]}') == (2, "", error)


ROOT_X_MODEL = {"base": [{"path": []}, {"path": ["X"]}]}


def _descriptor(excluded=("X",), **extra):
    fan = {"base": {"path": []}, "excluded": list(excluded)}
    return json.dumps({"model": ROOT_X_MODEL, "subset": {"cofinite": [fan]}, **extra})


@pytest.mark.parametrize(
    "argv, message",
    [
        (("base-points", '{"factors":[{"point":{"path":[1]},"mult":1}]}'),
         "direction labels must be nonempty strings"),
        (("classify", _descriptor(excluded=[3])), "direction labels must be nonempty strings"),
        (("saturate", '{"factors":[{"point":{"path":["Y"]},"mult":0}]}'),
         "factor multiplicities must be positive"),
        (("saturate", '{"factors":[{"point":{"path":["Y"]},"mult":1.5}]}'),
         "factor multiplicities must be integers"),
        (("closure", '{"gens":[]}'), "a monomial ideal needs at least one generator"),
        (("closure", '{"gens":[[-1,0],[0,1]]}'), "exponents must be non-negative"),
        (("closure", '{"gens":[[1.5,0],[0,1]]}'), "exponents must be integers"),
        (("point-of-valuation", '{"p":2}'), "weights must be integers"),
        (("point-of-valuation", '{"p":true,"q":3}'), "weights must be integers"),
        (("classify", _descriptor(henselian="no")), "henselian must be a boolean"),
        (("classify", _descriptor(henselian="no"), "--henselian"), "henselian must be a boolean"),
        # the model is a domain error too, but the flag is read first
        (("classify", json.dumps({"model": {"base": [{"path": ["X"]}]},
                                  "subset": {"singles": [{"path": ["X", "Y"]}]},
                                  "henselian": "no"})),
         "henselian must be a boolean"),
    ],
    ids=["path label", "excluded label", "zero mult", "float mult", "no generator",
         "negative exponent", "float exponent", "missing weight", "bool weight",
         "henselian string", "henselian string --henselian", "henselian before model"],
)
def test_a_value_its_constructor_refuses_is_a_parse_error(capsys, argv, message):
    # serialize checks only the JSON shape; the value's constructor words
    # the refusal
    assert run(capsys, *argv) == (2, "", f"ParseError: {message}\n")


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("closure", '{"gens": [[true, 0], [0, 1]]}'),
        ("generators", '{"factors":[{"point":{"path":["Y"]},"mult":true}]}'),
        ("point-of-valuation", '{"p": true, "q": 2}'),
        ("point-of-valuation", '{"p": 3, "q": true}'),
    ],
    ids=["exponent", "mult", "p", "q"],
)
def test_json_booleans_are_not_integers(capsys, monkeypatch, verb, payload):
    import io

    code, out, err = run(capsys, verb, payload)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert run(capsys, verb, "-")[0] == 2


# nested past the recursion limit, where json.loads raises RecursionError
DEEP = {"array": "[" * 100000, "object": '{"a":' * 50000}


@pytest.mark.parametrize("mode", ["inline", "file", "stdin"])
# a monomial verb reads anything but an object as generator text
@pytest.mark.parametrize("verb, shape", [("saturate", "array"), ("saturate", "object"), ("closure", "object")])
def test_deeply_nested_json_is_a_parse_error(capsys, monkeypatch, tmp_path, verb, shape, mode):
    import io

    source = DEEP[shape]
    if mode == "file":
        path = tmp_path / "deep.json"
        path.write_text(source, encoding="utf-8")
        source = str(path)
    elif mode == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        source = "-"
    code, out, err = run(capsys, verb, source)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError: invalid JSON: ") and "recursion" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field", ["singles", "cofinite"])
def test_point_set_fields_must_be_lists(capsys, field):
    descriptor = json.dumps({"model": {"base": [{"path": []}]}, "subset": {field: 5}})
    code, out, err = run(capsys, "classify", descriptor)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "list" in err


@pytest.mark.parametrize("level", ["0", "-1", "9", "99"])
@pytest.mark.parametrize("verb", ["closed-points", "min-incomparable"])
def test_truncate_level_out_of_range_is_refused_before_any_work(capsys, verb, level):
    # the input does not parse, so the refusal can only come from the level
    # check, which runs first; a missing check fails here on the input
    # instead of enumerating 4**99 points
    code, out, err = run(capsys, verb, "{not json", "--truncate", level)
    assert (code, out) == (2, "")
    assert err == f"ParseError: --truncate takes a level from 1 to 8, not {level}\n"


@pytest.mark.parametrize("verb, payload", [
    ("closed-points", EX111_MODEL),
    ("min-incomparable", '{"points":[{"path":["X"]}]}'),
])
def test_truncate_level_range_ends_are_accepted(capsys, verb, payload):
    assert run(capsys, verb, payload, "--truncate", "1")[0] == 0
    assert run(capsys, verb, payload, "--truncate", "0")[0] == 2


@pytest.mark.parametrize(
    "verb, payload, target, wrong",
    [
        # the root's full fan holds the base points X and Y
        (
            "closed-points",
            EX111_MODEL,
            "qtree.models.NonsingularModel.closed_points",
            lambda model: SymbolicPointSet.fan(ROOT),
        ),
        # the target X itself is not incomparable to X
        (
            "min-incomparable",
            '{"points":[{"path":["X"]}]}',
            "qtree.models.minimal_incomparable_set",
            SymbolicPointSet.of_points,
        ),
    ],
    ids=["closed-points", "min-incomparable"],
)
def test_a_wrong_symbolic_answer_fails_the_cross_check(
    capsys, monkeypatch, verb, payload, target, wrong
):
    monkeypatch.setattr(target, wrong)
    code, out, err = run(capsys, verb, payload, "--truncate", "2")
    assert (code, out) == (1, "")
    assert err.startswith("OracleMismatch: symbolic membership of ")
    assert err.endswith(" disagrees with the brute-force oracle at level cap 2\n")


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("closure", "x^1000000000000, y^999999999999"),
        ("generators", '{"factors":[{"point":{"path":[]},"mult":1000000}]}'),
    ],
    ids=["closure", "generators"],
)
def test_huge_closures_are_refused_by_name(capsys, monkeypatch, verb, payload):
    def no_generator(*args):
        raise AssertionError("a generator was made before the size check")

    # both polygons are one edge at least as wide as tall, whose generators
    # come from _ceil_div: without the check this fails instead of running on
    monkeypatch.setattr("qtree.monomial._ceil_div", no_generator)
    code, out, err = run(capsys, verb, payload)
    assert (code, out) == (1, "")
    assert err.startswith("OutputTooLarge:") and "1000000" in err


# Help and usage text at 80 columns, as printed when every run built the
# parsers of all 15 verbs.  Python 3.10 titles the options section
# "optional arguments:"; everything else is as printed there.
TOP_USAGE = (
    "usage: qtree [-h]\n"
    "             {saturate,base-points,rees,closed-points,desingularize,join,"
    "minimal-model,min-incomparable,classify,factorize,closure,transform,"
    "point-of-valuation,generators,emit-dot}\n"
    "             ...\n"
)

HELP = {  # keyed by verb; None is qtree --help
    None: TOP_USAGE + (
        "\n"
        "calculus for the quadratic tree of a 2-dimensional regular local ring\n"
        "\n"
        "positional arguments:\n"
        "  {saturate,base-points,rees,closed-points,desingularize,join,minimal-model,min-incomparable,classify,factorize,closure,transform,point-of-valuation,generators,emit-dot}\n"
        "    saturate            saturation of a complete ideal\n"
        "    base-points         base points of a complete ideal\n"
        "    rees                Rees valuations of a complete ideal\n"
        "    closed-points       closed points of a model\n"
        "    desingularize       minimal desingularization of a blowup\n"
        "    join                join of two models\n"
        "    minimal-model       least model containing an antichain\n"
        "    min-incomparable    points minimal with respect to incomparability with an\n"
        "                        antichain\n"
        "    classify            classify an intersection of closed points\n"
        "    factorize           factor a complete monomial ideal\n"
        "    closure             integral closure of a monomial ideal\n"
        "    transform           quadratic transform of a monomial ideal\n"
        "    point-of-valuation  tree point of a monomial valuation\n"
        "    generators          monomial generators of a toric ideal\n"
        "    emit-dot            DOT drawing of a model\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "saturate": (
        "usage: qtree saturate [-h] [--pretty] [--generators] input\n"
        "\n"
        "positional arguments:\n"
        "  input         file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --pretty      human-readable output\n"
        "  --generators  print monomial generators (toric factors only)\n"
    ),
    "base-points": (
        "usage: qtree base-points [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "rees": (
        "usage: qtree rees [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "closed-points": (
        "usage: qtree closed-points [-h] [--pretty] [--truncate L] input\n"
        "\n"
        "positional arguments:\n"
        "  input         file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --pretty      human-readable output\n"
        "  --truncate L  cross-check the output against the brute-force oracle up to\n"
        "                level L\n"
    ),
    "desingularize": (
        "usage: qtree desingularize [-h] [--pretty] [--dot] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
        "  --dot       emit DOT instead of JSON\n"
    ),
    "join": (
        "usage: qtree join [-h] [--pretty] [--dot] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
        "  --dot       emit DOT instead of JSON\n"
    ),
    "minimal-model": (
        "usage: qtree minimal-model [-h] [--pretty] [--dot] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
        "  --dot       emit DOT instead of JSON\n"
    ),
    "min-incomparable": (
        "usage: qtree min-incomparable [-h] [--pretty] [--truncate L] input\n"
        "\n"
        "positional arguments:\n"
        "  input         file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --pretty      human-readable output\n"
        "  --truncate L  cross-check the output against the brute-force oracle up to\n"
        "                level L\n"
    ),
    "classify": (
        "usage: qtree classify [-h] [--pretty] [--henselian] input\n"
        "\n"
        "positional arguments:\n"
        "  input        file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --pretty     human-readable output\n"
        "  --henselian  classify over a Henselian base\n"
    ),
    "factorize": (
        "usage: qtree factorize [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "closure": (
        "usage: qtree closure [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "transform": (
        "usage: qtree transform [-h] [--pretty] --dir {X,Y} input\n"
        "\n"
        "positional arguments:\n"
        "  input        file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --pretty     human-readable output\n"
        "  --dir {X,Y}\n"
    ),
    "point-of-valuation": (
        "usage: qtree point-of-valuation [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "generators": (
        "usage: qtree generators [-h] [--pretty] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
    ),
    "emit-dot": (
        "usage: qtree emit-dot [-h] [--pretty] [--dot] input\n"
        "\n"
        "positional arguments:\n"
        "  input       file path, inline JSON, or - for stdin\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --pretty    human-readable output\n"
        "  --dot       emit DOT instead of JSON\n"
    ),
}


def run_exit(capsys, monkeypatch, *argv):
    """(exit code, stdout, stderr) of a call that may exit through argparse."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out.replace("optional arguments:", "options:"), out.err


@pytest.mark.parametrize("verb", list(HELP), ids=lambda v: v or "qtree")
def test_help_is_unchanged(capsys, monkeypatch, verb):
    argv = ("--help",) if verb is None else (verb, "--help")
    assert run_exit(capsys, monkeypatch, *argv) == (0, HELP[verb], "")
    if verb is None:
        assert run_exit(capsys, monkeypatch, "-h", "saturate") == (0, HELP[None], "")
    else:
        assert run_exit(capsys, monkeypatch, verb, "x", "-h") == (0, HELP[verb], "")


# the lines that end in a usage error, keyed by test id
USAGE_ERRORS = {
    "no-verb": ((), TOP_USAGE + "qtree: error: the following arguments are required: verb\n"),
    "unknown-verb": (
        ("nope",),
        TOP_USAGE + "qtree: error: argument verb: invalid choice: 'nope' (choose from "
        "'saturate', 'base-points', 'rees', 'closed-points', 'desingularize', 'join', "
        "'minimal-model', 'min-incomparable', 'classify', 'factorize', 'closure', "
        "'transform', 'point-of-valuation', 'generators', 'emit-dot')\n",
    ),
    "unknown-verb-after-a-flag": (
        ("--pretty", "nope"),
        TOP_USAGE + "qtree: error: argument verb: invalid choice: 'nope' (choose from "
        "'saturate', 'base-points', 'rees', 'closed-points', 'desingularize', 'join', "
        "'minimal-model', 'min-incomparable', 'classify', 'factorize', 'closure', "
        "'transform', 'point-of-valuation', 'generators', 'emit-dot')\n",
    ),
    "unknown-flag": (
        ("saturate", "{}", "--bogus"),
        TOP_USAGE + "qtree: error: unrecognized arguments: --bogus\n",
    ),
    "no-input": (
        ("saturate",),
        "usage: qtree saturate [-h] [--pretty] [--generators] input\n"
        "qtree saturate: error: the following arguments are required: input\n",
    ),
    "no-input-after-a-flag": (
        ("--pretty", "saturate"),
        "usage: qtree saturate [-h] [--pretty] [--generators] input\n"
        "qtree saturate: error: the following arguments are required: input\n",
    ),
    "no-dir": (
        ("transform", "x"),
        "usage: qtree transform [-h] [--pretty] --dir {X,Y} input\n"
        "qtree transform: error: the following arguments are required: --dir\n",
    ),
    "bad-dir": (
        ("transform", "x", "--dir", "Z"),
        "usage: qtree transform [-h] [--pretty] --dir {X,Y} input\n"
        "qtree transform: error: argument --dir: invalid choice: 'Z' (choose from 'X', 'Y')\n",
    ),
    "bad-level": (
        ("closed-points", "x", "--truncate", "abc"),
        "usage: qtree closed-points [-h] [--pretty] [--truncate L] input\n"
        "qtree closed-points: error: argument --truncate: invalid int value: 'abc'\n",
    ),
}


@pytest.mark.parametrize("argv, err", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_are_unchanged(capsys, monkeypatch, argv, err):
    assert run_exit(capsys, monkeypatch, *argv) == (2, "", err)


def test_a_well_formed_call_builds_only_its_own_verb_parser(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording_add_parser(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
    # a canonical line builds no parser at all
    assert run(capsys, "saturate", Y_FACTOR, "--pretty") == (0, "D * Y\n", "")
    assert added == []
    # a line only argparse accepts, here for its abbreviation, builds only
    # its own verb's subparser
    assert run(capsys, "saturate", Y_FACTOR, "--pre") == (0, "D * Y\n", "")
    assert added == ["saturate"]


def parse_outcome(capsys, parser, argv):
    """The namespace of ``argv``, or (exit code, stdout, stderr) when the
    parser exits."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return exc.code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [(verb, "-h") for verb in HELP if verb]
    + [argv for argv, _ in USAGE_ERRORS.values() if argv and argv[0] in HELP]
    + [
        ("rees", "x", "y"),
        ("saturate", "x", "--pretty=1"),
        ("transform", "--dir", "Y", "x", "--pretty"),
    ],
    ids=" ".join,
)
def test_a_line_that_starts_with_a_verb_parses_as_with_every_verb(capsys, monkeypatch, argv):
    # build_parser rests on this: the top-level parser hands the rest of a
    # line to the subparser of its first word alone
    monkeypatch.setenv("COLUMNS", "80")
    alone = parse_outcome(capsys, build_parser(argv), list(argv))
    assert alone == parse_outcome(capsys, build_parser(), list(argv))


# each kind of input: inline JSON, stdin, a file path, generator text, empty
INPUTS = [Y_FACTOR, "-", "inputs/ideal.json", "x^3, y^2", ""]


def canonical_lines(verb):
    """Every canonical line of ``verb``: each subset of its flags in each
    order, with the input before, between and after them."""
    option = _COMMANDS[verb][2]
    flags = [["--pretty"]]
    if option:
        settings = _OPTIONS[option]
        values = settings.get("choices") or (["3"] if "type" in settings else [None])
        flags += [[option] + ([value] if value else []) for value in values]
    orders = [[]] + [[f] for f in flags]
    orders += [[f, g] for f in flags for g in flags if f is not g and f[0] != g[0]]
    for order in orders:
        for at in range(len(order) + 1):
            for source in INPUTS:
                words = [w for f in order[:at] for w in f] + [source]
                yield [verb, *words, *(w for f in order[at:] for w in f)]


@pytest.mark.parametrize("verb", list(_COMMANDS))
def test_a_canonical_line_parses_as_argparse_parses_it(capsys, verb):
    lines = list(canonical_lines(verb))
    assert len(lines) >= 5
    for argv in lines:
        expected = parse_outcome(capsys, build_parser(argv), argv)
        got = _parse_canonical(argv)
        if isinstance(expected, tuple):
            # only transform's required --dir can be missing
            assert verb == "transform" and "--dir" not in argv and got is None
        else:
            assert got is not None and vars(got) == vars(expected), argv


@pytest.mark.parametrize(
    "argv",
    [
        ("saturate", "x", "-h"),
        ("-h", "saturate", "x"),
        ("saturate", "x", "--pre"),
        ("closed-points", "x", "--truncate=3"),
        ("saturate", "x", "--pretty", "--pretty"),
        ("closed-points", "x", "--truncate", "2", "--truncate", "3"),
        ("closed-points", "x", "--truncate", "-1"),
        ("closed-points", "x", "--truncate", "abc"),
        ("closed-points", "x", "--truncate"),
        ("transform", "x", "--dir", "Z"),
        ("transform", "x"),
        ("rees", "x", "y"),
        ("rees",),
        ("rees", "--pretty"),
        ("rees", "--", "x"),
        ("rees", "x", "--"),
        ("rees", "-1"),
        ("rees", "x", "--dot"),
        ("--pretty", "rees", "x"),
        ("nope", "x"),
        (),
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_any_other_line_is_left_to_argparse(argv):
    assert _parse_canonical(list(argv)) is None


@pytest.mark.parametrize(
    "verb, payload",
    [
        ("point-of-valuation", '{"p": 1, "q": 1000000000000}'),
        ("factorize", "x^1000000000000, y"),
    ],
    ids=["point-of-valuation", "factorize"],
)
def test_points_above_the_depth_cap_are_refused_by_name(capsys, monkeypatch, verb, payload):
    def no_label(*args):
        raise AssertionError("a label was made before the depth check")

    # without the check this fails at the first run of labels instead of
    # laying down 10**12 of them
    monkeypatch.setattr("qtree.monomial._path_of_runs", no_label)
    code, out, err = run(capsys, verb, payload)
    assert (code, out) == (1, "")
    assert err.startswith("OutputTooLarge:") and "999999999999" in err and "1000000" in err
