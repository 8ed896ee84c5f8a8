import json

import pytest

from qtree.cli import main

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
