"""Command-line front end for the quadratic tree calculus.

One subcommand per library operation; no command mutates state.  Input is a
file path, inline JSON, or ``-`` for stdin.  Output is JSON tagged with
``"schema": "qtree/1"`` by default, the value's own text form (its ``str``)
with ``--pretty``, and DOT where a model is produced and ``--dot`` is given.

Exit status: 0 on success, 1 on domain errors (the error class name is
printed on stderr), 2 on parse errors, 141 when stdout is a pipe that
nobody reads any more.

This module only parses arguments, reads input, dispatches and maps errors
to exit codes: every verb decodes its input, runs one library operation and
emits the answer.  The JSON format, the schema tag included, belongs to
``serialize``, the DOT format to ``render`` and each text form to its
value's ``__str__``.  A malformed input raises ``ValueError`` in
``serialize`` or here, and a value its constructor refuses, in that
constructor.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import serialize
from .errors import OracleMismatch, QTreeError

if TYPE_CHECKING:
    from .monomial import MonomialIdeal
    from .points import Point
    from .pointsets import SymbolicPointSet
    from .truncation import TruncatedTree

# ``--truncate L`` enumerates every point of the four-label tree up to level
# L, 4**L of them at the deepest level alone: about 2 s at level 8, and each
# level costs four times the one before
MAX_TRUNCATE_LEVEL = 8


def _load(args, decode: Callable[[Any], Any], parse_text: Callable[[str], Any] | None = None):
    """The verb's input, decoded.  A verb that also reads generator text
    passes ``parse_text``, which reads any input that is not a JSON object."""
    source = args.input
    text_error = None
    if parse_text and source != "-" and not source.lstrip().startswith("{"):
        # inline generator text wins over a path when it parses as monomials
        try:
            return parse_text(source)
        except ValueError as exc:
            text_error = exc
    if source == "-":
        raw = sys.stdin.read()
    elif source.lstrip().startswith(("{", "[")):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            # where the text was refused too, name both readings
            reason = f"as generator text, {text_error}; as a path, {exc}" if text_error else exc
            raise ValueError(f"cannot read input {source!r}: {reason}") from exc
    if parse_text and not raw.lstrip().startswith("{"):
        return parse_text(raw.strip())
    return decode(serialize.loads(raw))


def _load_monomial(args) -> MonomialIdeal:
    from .monomial import MonomialIdeal

    return _load(args, serialize.monomial_from_json, MonomialIdeal.from_text)


def _emit(args, value, to_json: Callable[[Any], dict], pretty: Callable[[Any], str] = str) -> str:
    """``value`` as its own text under ``--pretty``, else as tagged JSON."""
    return pretty(value) if args.pretty else serialize.dumps(to_json(value))


def _emit_model(args, model) -> str:
    if args.dot:
        from .render import model_to_dot

        return model_to_dot(model)
    return _emit(args, model, serialize.model_to_json)


def _pretty_valuations(valuations) -> str:
    # a frozenset, so put in canonical order by center first
    return ", ".join(map(str, sorted(valuations, key=lambda v: v.center.sort_key())))


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
    return _emit(args, result, serialize.classification_to_json)


def _cmd_factorize(args) -> str:
    from .monomial import factorize

    return _emit(args, factorize(_load_monomial(args)), serialize.ideal_to_json)


def _cmd_closure(args) -> str:
    closed = _load_monomial(args).integral_closure()
    return _emit(args, closed, serialize.monomial_to_json)


def _cmd_transform(args) -> str:
    transformed = _load_monomial(args).quadratic_transform(args.dir)
    return _emit(args, transformed, serialize.monomial_to_json)


def _cmd_point_of_valuation(args) -> str:
    from .monomial import point_for_valuation

    valuation = _load(args, serialize.valuation_from_json)
    return _emit(args, point_for_valuation(valuation), serialize.point_to_json)


def _cmd_generators(args) -> str:
    from .monomial import generators_for_ideal

    ideal = _load(args, serialize.ideal_from_json)
    return _emit(args, generators_for_ideal(ideal), serialize.monomial_to_json)


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


def _parse_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``argparser.build_parser`` makes of a canonical line,
    else None: a verb, one input (``-`` or a word not starting with ``-``),
    and ``--pretty`` and the verb's option, each spelled out and at most
    once, in any order, with a value not starting with ``-`` that passes the
    option's ``type`` and ``choices``.  Any other line, help and usage
    errors among them, is argparse's alone, which a canonical line never
    imports."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    option = _COMMANDS[argv[0]][2]
    settings = _OPTIONS.get(option, {})
    flag = settings.get("action") == "store_true"
    args = {"verb": argv[0], "input": None, "pretty": False}
    if option:
        args[option[2:]] = False if flag else None
    words = iter(argv[1:])
    for word in words:
        if word == "-" or not word.startswith("-"):
            if args["input"] is not None:
                return None
            args["input"] = word
        elif word not in ("--pretty", option) or argv.count(word) > 1:
            return None
        elif word == "--pretty" or flag:
            args[word[2:]] = True
        else:
            raw = next(words, "-")
            try:
                value = settings.get("type", str)(raw)
            except ValueError:
                return None
            if raw.startswith("-") or value not in settings.get("choices", (value,)):
                return None
            args[option[2:]] = value
    if args["input"] is None or (settings.get("required") and args[option[2:]] is None):
        return None
    return SimpleNamespace(**args)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_canonical(argv)
    if args is None:
        from .argparser import build_parser

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
    try:
        print(output, flush=True)
    except BrokenPipeError:
        # the reader has gone: stdout now writes to the null device, so the
        # flush at exit cannot fail again, and the status is the one a shell
        # gives a program that SIGPIPE ends
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    # run as ``python -m qtree.cli``: the argparse fallback imports the verb
    # table from ``qtree.cli``, which is this module, not a second copy
    sys.modules["qtree.cli"] = sys.modules[__name__]
    sys.exit(main())
