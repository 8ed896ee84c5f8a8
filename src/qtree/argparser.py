"""The argparse parser of the command line: usage, help and error text.

``cli`` reads a canonical line itself and hands every other line, help and
usage errors among them, to the parser built here, so a canonical line
never imports this module or ``argparse``.  The verbs and their options
come from ``cli``'s one verb table.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from .cli import _COMMANDS, _OPTIONS


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
