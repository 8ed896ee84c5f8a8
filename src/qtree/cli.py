"""Command-line front end for the quadratic tree calculus.

One subcommand per library operation; no command mutates state.  Input is a
file path, inline JSON, or ``-`` for stdin.  Output is JSON tagged with
``"schema": "qtree/1"`` by default, human-readable text with ``--pretty``,
and DOT where a model is produced and ``--dot`` is given.

Exit status: 0 on success, 1 on domain errors (the error class name is
printed on stderr), 2 on parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any

from . import serialize
from .errors import OracleMismatch, QTreeError
from .points import Point, SymbolicPointSet, sorted_points

if TYPE_CHECKING:
    from .monomial import MonomialIdeal
    from .truncation import TruncatedTree

# ``--truncate L`` enumerates every point of the four-label tree up to level
# L, 4**L of them at the deepest level alone: about 2 s at level 8, and each
# level costs four times the one before
MAX_TRUNCATE_LEVEL = 8


class ParseFailure(ValueError):
    """Input could not be read or did not match the expected shape."""


def _read_raw(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    stripped = source.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure(f"cannot read input {source!r}: {exc}") from exc


def _parse_json(raw: str) -> Any:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"invalid JSON: {exc}") from exc
    if isinstance(obj, dict):
        tag = obj.get("schema")
        if tag is not None and tag != serialize.SCHEMA:
            raise ParseFailure(
                f"unsupported schema {tag!r}; this tool speaks {serialize.SCHEMA!r}"
            )
    return obj


def _load_json(source: str) -> Any:
    return _parse_json(_read_raw(source))


def _load_monomial(source: str) -> MonomialIdeal:
    from .monomial import MonomialIdeal

    if source != "-" and not source.lstrip().startswith("{"):
        # inline generator text wins over a path when it parses as monomials
        try:
            return MonomialIdeal.from_text(source)
        except ValueError:
            pass
    raw = _read_raw(source)
    if raw.lstrip().startswith("{"):
        return serialize.monomial_from_json(_parse_json(raw))
    try:
        return MonomialIdeal.from_text(raw.strip())
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _emit_json(payload: dict) -> str:
    payload = {"schema": serialize.SCHEMA, **payload}
    return json.dumps(payload, sort_keys=True)


def _pretty_classification(c: dict) -> str:
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


def _points_argument(obj: Any) -> tuple[Point, ...]:
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise ParseFailure("expected {'points': [point...]}")
    return tuple(serialize.point_from_json(p) for p in obj["points"])


def _truncate_level(args) -> int | None:
    """The ``--truncate`` level, refused outside 1..MAX_TRUNCATE_LEVEL before
    any input is read."""
    level = args.truncate
    if level is not None and not 1 <= level <= MAX_TRUNCATE_LEVEL:
        raise ParseFailure(
            f"--truncate takes a level from 1 to {MAX_TRUNCATE_LEVEL}, not {level}"
        )
    return level


def _cross_check_pointset(
    result: SymbolicPointSet, expected_member, tree: TruncatedTree
) -> None:
    """Compare symbolic membership against literal enumeration of the tree."""
    for p in tree.points:
        if (p in result) != expected_member(p):
            raise OracleMismatch(
                f"symbolic membership of {p} disagrees with the brute-force "
                f"oracle at level cap {tree.max_level}"
            )


def _cmd_saturate(args) -> str:
    ideal = serialize.ideal_from_json(_load_json(args.input))
    saturated = ideal.saturate()
    if args.generators:
        from .monomial import generators_for_ideal

        return generators_for_ideal(saturated).to_text()
    if args.pretty:
        return str(saturated)
    return _emit_json(serialize.ideal_to_json(saturated))


def _cmd_base_points(args) -> str:
    ideal = serialize.ideal_from_json(_load_json(args.input))
    base = ideal.base_points()
    if args.pretty:
        return str(base)
    return _emit_json(serialize.base_points_to_json(base))


def _cmd_rees(args) -> str:
    ideal = serialize.ideal_from_json(_load_json(args.input))
    valuations = ideal.rees_valuations()
    if args.pretty:
        centers = sorted_points(v.center for v in valuations)
        return ", ".join(f"ord({c})" for c in centers)
    return _emit_json(serialize.valuations_to_json(valuations))


def _cmd_closed_points(args) -> str:
    level = _truncate_level(args)
    model = serialize.model_from_json(_load_json(args.input))
    closed = model.closed_points()
    if level is not None:
        from .truncation import TruncatedTree

        tree = TruncatedTree(max_level=level)
        _cross_check_pointset(closed, model.contains_point, tree)
    if args.pretty:
        return str(closed)
    return _emit_json(serialize.pointset_to_json(closed))


def _emit_model(model, args) -> str:
    if args.dot:
        from .render import model_to_dot

        return model_to_dot(model)
    if args.pretty:
        base = model.base
        terminal = ", ".join(str(p) for p in base.terminals())
        return f"base: {base}\nterminal: {{{terminal}}}"
    return _emit_json(serialize.model_to_json(model))


def _cmd_desingularize(args) -> str:
    from .models import minimal_desingularization

    ideal = serialize.ideal_from_json(_load_json(args.input))
    return _emit_model(minimal_desingularization(ideal), args)


def _cmd_join(args) -> str:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or not isinstance(obj.get("models"), list):
        raise ParseFailure("expected {'models': [model, model]}")
    entries = obj["models"]
    if len(entries) != 2:
        raise ParseFailure("the join takes exactly two models")
    left = serialize.model_from_json(entries[0])
    right = serialize.model_from_json(entries[1])
    return _emit_model(left.join(right), args)


def _cmd_minimal_model(args) -> str:
    from .models import minimal_model_containing

    points = _points_argument(_load_json(args.input))
    return _emit_model(minimal_model_containing(points), args)


def _cmd_min_incomparable(args) -> str:
    level = _truncate_level(args)
    from .models import minimal_incomparable_set

    points = _points_argument(_load_json(args.input))
    result = minimal_incomparable_set(points)
    if level is not None:
        from .truncation import TruncatedTree

        tree = TruncatedTree(max_level=level)
        oracle = tree.minimal_incomparable(points)
        _cross_check_pointset(result, lambda p: p in oracle, tree)
    if args.pretty:
        return str(result)
    return _emit_json(serialize.pointset_to_json(result))


def _cmd_classify(args) -> str:
    from .intersections import classify

    descriptor = serialize.descriptor_from_json(
        _load_json(args.input), henselian=True if args.henselian else None
    )
    result = serialize.classification_to_json(classify(descriptor))
    if args.pretty:
        return _pretty_classification(result)
    return _emit_json(result)


def _cmd_factorize(args) -> str:
    from .monomial import factorize

    ideal = factorize(_load_monomial(args.input))
    if args.pretty:
        return str(ideal)
    return _emit_json(serialize.ideal_to_json(ideal))


def _cmd_closure(args) -> str:
    closed = _load_monomial(args.input).integral_closure()
    if args.pretty:
        return closed.to_text()
    return _emit_json(serialize.monomial_to_json(closed))


def _cmd_transform(args) -> str:
    transformed = _load_monomial(args.input).quadratic_transform(args.dir)
    if args.pretty:
        return transformed.to_text()
    return _emit_json(serialize.monomial_to_json(transformed))


def _cmd_point_of_valuation(args) -> str:
    from .monomial import point_for_valuation

    valuation = serialize.valuation_from_json(_load_json(args.input))
    point = point_for_valuation(valuation)
    if args.pretty:
        return str(point)
    return _emit_json(serialize.point_to_json(point))


def _cmd_generators(args) -> str:
    from .monomial import generators_for_ideal

    ideal = serialize.ideal_from_json(_load_json(args.input))
    result = generators_for_ideal(ideal)
    if args.pretty:
        return result.to_text()
    return _emit_json(serialize.monomial_to_json(result))


def _cmd_emit_dot(args) -> str:
    from .render import model_to_dot

    model = serialize.model_from_json(_load_json(args.input))
    return model_to_dot(model)


_COMMANDS = {
    "saturate": (_cmd_saturate, "saturation of a complete ideal"),
    "base-points": (_cmd_base_points, "base points of a complete ideal"),
    "rees": (_cmd_rees, "Rees valuations of a complete ideal"),
    "closed-points": (_cmd_closed_points, "closed points of a model"),
    "desingularize": (_cmd_desingularize, "minimal desingularization of a blowup"),
    "join": (_cmd_join, "join of two models"),
    "minimal-model": (_cmd_minimal_model, "least model containing an antichain"),
    "min-incomparable": (
        _cmd_min_incomparable,
        "points minimal with respect to incomparability with an antichain",
    ),
    "classify": (_cmd_classify, "classify an intersection of closed points"),
    "factorize": (_cmd_factorize, "factor a complete monomial ideal"),
    "closure": (_cmd_closure, "integral closure of a monomial ideal"),
    "transform": (_cmd_transform, "quadratic transform of a monomial ideal"),
    "point-of-valuation": (
        _cmd_point_of_valuation,
        "tree point of a monomial valuation",
    ),
    "generators": (_cmd_generators, "monomial generators of a toric ideal"),
    "emit-dot": (_cmd_emit_dot, "DOT drawing of a model"),
}


def _add_arguments(p: argparse.ArgumentParser, verb: str) -> None:
    p.add_argument("input", help="file path, inline JSON, or - for stdin")
    p.add_argument("--pretty", action="store_true", help="human-readable output")
    if verb in ("desingularize", "join", "minimal-model", "emit-dot"):
        p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    if verb == "saturate":
        p.add_argument(
            "--generators",
            action="store_true",
            help="print monomial generators (toric factors only)",
        )
    if verb == "classify":
        p.add_argument(
            "--henselian",
            action="store_true",
            help="classify over a Henselian base",
        )
    if verb == "transform":
        p.add_argument("--dir", required=True, choices=["X", "Y"])
    if verb in ("closed-points", "min-incomparable"):
        p.add_argument(
            "--truncate",
            type=int,
            metavar="L",
            help="cross-check the output against the brute-force oracle "
            "up to level L",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtree",
        description="calculus for the quadratic tree of a 2-dimensional "
        "regular local ring",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(verb, help=help_text), verb)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the parser of the verb in ``argv[0]`` alone, the one that
    ``build_parser`` would hand the rest of the line to.  Anything it does
    not parse whole -- no verb, an unknown one, an option before the verb,
    arguments left over -- goes through the full parser, so usage, help and
    errors read as they do there."""
    verb = argv[0] if argv else None
    if verb in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qtree {verb}")
        _add_arguments(parser, verb)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.verb = verb
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    handler = _COMMANDS[args.verb][0]
    try:
        output = handler(args)
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
