"""README's examples give the results its comments show: each
`quadrance … # -> X` line of the "Command line" block prints X, and each
commented expression of the "Library" block has that repr."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from quadrance.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The body of the first fenced code block under a '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


# the result is the first word after "# ->"; the rest is a gloss
_COMMANDS = re.findall(r"^quadrance (.+?)\s+# -> (\S+)", _block("Command line"), re.M)


def test_the_command_line_block_has_commented_results():
    assert len(_COMMANDS) == 4


@pytest.mark.parametrize("command, want", _COMMANDS, ids=[c.split()[1] for c, _ in _COMMANDS])
def test_command_line_example_prints_its_commented_result(capsys, command, want):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, want + "\n", "")


def test_library_examples_have_their_commented_reprs():
    block = _block("Library")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if not comment:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), comment
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert repr(value) == comment
        checked += 1
    assert checked == 3
