"""The public surface is what the command line, the README and the tests use.

Every name in ``qtree.__all__`` must be referenced by ``cli.py``, the README
or a test other than this file, so a name that no caller needs cannot be
exported.  The README's library example runs as written, and so does each
of its command lines that shows its output.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import qtree
from qtree.cli import main

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def test_every_public_name_has_a_caller():
    callers = [REPO / "src" / "qtree" / "cli.py", README]
    callers += [p for p in (REPO / "tests").rglob("*.py") if p.name != Path(__file__).name]
    text = "\n".join(p.read_text(encoding="utf-8") for p in callers)
    unused = [name for name in qtree.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []


def test_readme_library_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    expected = [
        line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_readme_command_lines_print_their_comments(capsys):
    # the output is the comment at the end of the line or on the line below
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines() + [""]
    runs = []
    for line, below in zip(lines, lines[1:]):
        if line.startswith("qtree "):
            command, _, comment = line.partition("# ")
            if not comment and below.startswith("# "):
                comment = below[2:]
            if comment:
                runs.append((shlex.split(command)[1:], comment))
    assert runs
    for argv, comment in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == comment + "\n"
