"""Command-line front end for the quadratic tree calculus.

One subcommand per library operation; no command mutates state.  Input is a
file path, inline JSON, or ``-`` for stdin.  Output is JSON tagged with
``"schema": "qtree/1"`` by default, human-readable text with ``--pretty``,
and DOT where a model is produced and ``--dot`` is given.

Exit status: 0 on success, 1 on domain errors (the error class name is
printed on stderr), 2 on parse errors.

This module only parses arguments, reads input, dispatches and maps errors
to exit codes: every verb decodes its input, runs one library operation and
emits the answer.  The JSON format, the schema tag included, belongs to
``serialize``; a malformed input raises ``ValueError`` there or here.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import serialize
from .errors import OracleMismatch, QTreeError
from .points import Point, SymbolicPointSet, sorted_points

if TYPE_CHECKING:
    from .intersections import Classification
    from .monomial import MonomialIdeal
    from .truncation import TruncatedTree

# ``--truncate L`` enumerates every point of the four-label tree up to level
# L, 4**L of them at the deepest level alone: about 2 s at level 8, and each
# level costs four times the one before
MAX_TRUNCATE_LEVEL = 8


def _load(args, decode: Callable[[Any], Any], parse_text: Callable[[str], Any] | None = None):
    """The verb's input, decoded.  A verb that also reads generator text
    passes ``parse_text``, which reads any input that is not a JSON object."""
    source = args.input
    if parse_text and source != "-" and not source.lstrip().startswith("{"):
        # inline generator text wins over a path when it parses as monomials
        try:
            return parse_text(source)
        except ValueError:
            pass
    if source == "-":
        raw = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input {source!r}: {exc}") from exc
    if parse_text and not raw.lstrip().startswith("{"):
        return parse_text(raw.strip())
    return decode(serialize.loads(raw))


def _load_monomial(args) -> MonomialIdeal:
    from .monomial import MonomialIdeal

    return _load(args, serialize.monomial_from_json, MonomialIdeal.from_text)


def _emit(args, value, to_json: Callable[[Any], dict], pretty: Callable[[Any], str] = str) -> str:
    """``value`` as text under ``--pretty``, else as tagged JSON."""
    return pretty(value) if args.pretty else serialize.dumps(to_json(value))


def _emit_model(args, model) -> str:
    if args.dot:
        from .render import model_to_dot

        return model_to_dot(model)
    return _emit(args, model, serialize.model_to_json, _pretty_model)


def _pretty_model(model) -> str:
    base = model.base
    terminal = ", ".join(str(p) for p in base.terminals())
    return f"base: {base}\nterminal: {{{terminal}}}"


def _pretty_valuations(valuations) -> str:
    return ", ".join(f"ord({c})" for c in sorted_points(v.center for v in valuations))


def _pretty_classification(classification: Classification) -> str:
    c = serialize.classification_to_json(classification)
    lines = []
    for key in (
        "noetherian",
        "maximalIdealCount",
        "irredundant",
        "essential",
        "ringPoint",
        "singularity",
    ):
        value = c[key]
        if key == "ringPoint" and value is not None:
            value = str(Point(tuple(value["path"])))
        if value is None:
            continue
        lines.append(f"{key}: {value}")
        basis = c.get(key + "Basis")
        if basis:
            lines.append(f"  ({basis})")
    return "\n".join(lines)


def _to_text(ideal: MonomialIdeal) -> str:
    return ideal.to_text()


def _cross_check(
    args, result: SymbolicPointSet, oracle: Callable[[TruncatedTree], Callable[[Point], bool]]
) -> None:
    """Under ``--truncate``, compare symbolic membership against literal
    enumeration of the tree; ``oracle(tree)`` is the expected membership."""
    if args.truncate is None:
        return
    from .truncation import TruncatedTree

    tree = TruncatedTree(max_level=args.truncate)
    expected_member = oracle(tree)
    for p in tree.points:
        if (p in result) != expected_member(p):
            raise OracleMismatch(
                f"symbolic membership of {p} disagrees with the brute-force "
                f"oracle at level cap {tree.max_level}"
            )


def _cmd_saturate(args) -> str:
    saturated = _load(args, serialize.ideal_from_json).saturate()
    if args.generators:
        from .monomial import generators_for_ideal

        return generators_for_ideal(saturated).to_text()
    return _emit(args, saturated, serialize.ideal_to_json)


def _cmd_base_points(args) -> str:
    base = _load(args, serialize.ideal_from_json).base_points()
    return _emit(args, base, serialize.base_points_to_json)


def _cmd_rees(args) -> str:
    valuations = _load(args, serialize.ideal_from_json).rees_valuations()
    return _emit(args, valuations, serialize.valuations_to_json, _pretty_valuations)


def _cmd_closed_points(args) -> str:
    model = _load(args, serialize.model_from_json)
    closed = model.closed_points()
    _cross_check(args, closed, lambda tree: model.contains_point)
    return _emit(args, closed, serialize.pointset_to_json)


def _cmd_desingularize(args) -> str:
    from .models import minimal_desingularization

    ideal = _load(args, serialize.ideal_from_json)
    return _emit_model(args, minimal_desingularization(ideal))


def _cmd_join(args) -> str:
    left, right = _load(args, serialize.model_pair_from_json)
    return _emit_model(args, left.join(right))


def _cmd_minimal_model(args) -> str:
    from .models import minimal_model_containing

    points = _load(args, serialize.point_list_from_json)
    return _emit_model(args, minimal_model_containing(points))


def _cmd_min_incomparable(args) -> str:
    from .models import minimal_incomparable_set

    points = _load(args, serialize.point_list_from_json)
    result = minimal_incomparable_set(points)
    _cross_check(args, result, lambda tree: tree.minimal_incomparable(points).__contains__)
    return _emit(args, result, serialize.pointset_to_json)


def _cmd_classify(args) -> str:
    from .intersections import classify

    henselian = args.henselian or None
    descriptor = _load(args, lambda obj: serialize.descriptor_from_json(obj, henselian))
    result = classify(descriptor)
    return _emit(args, result, serialize.classification_to_json, _pretty_classification)


def _cmd_factorize(args) -> str:
    from .monomial import factorize

    return _emit(args, factorize(_load_monomial(args)), serialize.ideal_to_json)


def _cmd_closure(args) -> str:
    closed = _load_monomial(args).integral_closure()
    return _emit(args, closed, serialize.monomial_to_json, _to_text)


def _cmd_transform(args) -> str:
    transformed = _load_monomial(args).quadratic_transform(args.dir)
    return _emit(args, transformed, serialize.monomial_to_json, _to_text)


def _cmd_point_of_valuation(args) -> str:
    from .monomial import point_for_valuation

    valuation = _load(args, serialize.valuation_from_json)
    return _emit(args, point_for_valuation(valuation), serialize.point_to_json)


def _cmd_generators(args) -> str:
    from .monomial import generators_for_ideal

    ideal = _load(args, serialize.ideal_from_json)
    return _emit(args, generators_for_ideal(ideal), serialize.monomial_to_json, _to_text)


def _cmd_emit_dot(args) -> str:
    from .render import model_to_dot

    return model_to_dot(_load(args, serialize.model_from_json))


# verb -> (function, help, its one option beyond --pretty)
_COMMANDS = {
    "saturate": (_cmd_saturate, "saturation of a complete ideal", "--generators"),
    "base-points": (_cmd_base_points, "base points of a complete ideal", None),
    "rees": (_cmd_rees, "Rees valuations of a complete ideal", None),
    "closed-points": (_cmd_closed_points, "closed points of a model", "--truncate"),
    "desingularize": (_cmd_desingularize, "minimal desingularization of a blowup", "--dot"),
    "join": (_cmd_join, "join of two models", "--dot"),
    "minimal-model": (_cmd_minimal_model, "least model containing an antichain", "--dot"),
    "min-incomparable": (
        _cmd_min_incomparable,
        "points minimal with respect to incomparability with an antichain",
        "--truncate",
    ),
    "classify": (_cmd_classify, "classify an intersection of closed points", "--henselian"),
    "factorize": (_cmd_factorize, "factor a complete monomial ideal", None),
    "closure": (_cmd_closure, "integral closure of a monomial ideal", None),
    "transform": (_cmd_transform, "quadratic transform of a monomial ideal", "--dir"),
    "point-of-valuation": (_cmd_point_of_valuation, "tree point of a monomial valuation", None),
    "generators": (_cmd_generators, "monomial generators of a toric ideal", None),
    "emit-dot": (_cmd_emit_dot, "DOT drawing of a model", "--dot"),
}

_OPTIONS = {
    "--dot": {"action": "store_true", "help": "emit DOT instead of JSON"},
    "--generators": {
        "action": "store_true", "help": "print monomial generators (toric factors only)"
    },
    "--henselian": {"action": "store_true", "help": "classify over a Henselian base"},
    "--dir": {"required": True, "choices": ("X", "Y")},
    "--truncate": {
        "type": int,
        "metavar": "L",
        "help": "cross-check the output against the brute-force oracle up to level L",
    },
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that words an invalid choice as 3.10-3.12 do, its
    choices quoted, on every Python (later releases print them bare),
    wherever on the line the choice stands."""

    def _check_value(self, action: argparse.Action, value: Any) -> None:
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})"
            )


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command line ``argv``.  A verb in ``argv[0]`` gets
    the only subparser, since the top-level parser hands the rest of such a
    line to that verb's alone; any other line gets every verb's, so that
    help and errors list them all."""
    parser = _Parser(
        prog="qtree",
        # as 3.10-3.12 wrap it at 80 columns, where 3.13 joins the last lines
        usage="qtree [-h]\n             {" + ",".join(_COMMANDS) + "}\n             ...",
        description="calculus for the quadratic tree of a 2-dimensional "
        "regular local ring",
    )
    sub = parser.add_subparsers(dest="verb", required=True, prog="qtree")
    verbs = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for verb in verbs:
        _, help_text, option = _COMMANDS[verb]
        p = sub.add_parser(verb, prog=f"qtree {verb}", help=help_text)
        p.add_argument("input", help="file path, inline JSON, or - for stdin")
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        if option:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    level = getattr(args, "truncate", None)
    try:
        # a level out of range is refused before any input is read
        if level is not None and not 1 <= level <= MAX_TRUNCATE_LEVEL:
            raise ValueError(
                f"--truncate takes a level from 1 to {MAX_TRUNCATE_LEVEL}, not {level}"
            )
        output = _COMMANDS[args.verb][0](args)
    except ValueError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except QTreeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
