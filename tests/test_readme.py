"""The README's examples: the command lines, run through cli.run, and
the library sketch, run statement by statement.

In the README's sh blocks, a trailing comment on an `lndkit ...` line is
the first line the command prints, followed by `(exit N)` when the exit
code is shown; a comment on a line of its own is prose.  The example
that reads `my-derivation.json` gets the README's JSON in that file.
In the python block, a trailing comment on an expression statement is
the str() of its value; on any other statement it is prose.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from lndkit.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

EXAMPLES = [
    (match[1], match[2], int(match[3] or 0))
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for match in re.finditer(
        r"^lndkit (.*?) +# (.*?)(?: \(exit (\d+)\))?$", block, re.M
    )
]


def test_every_commented_example_is_collected():
    assert len(EXAMPLES) == 9


@pytest.mark.parametrize(
    "command, first_line, code", EXAMPLES, ids=[e[0] for e in EXAMPLES]
)
def test_readme_example(command, first_line, code, tmp_path, monkeypatch, capsys):
    spec = re.search(r"```json\n(.*?)```", README, re.S)[1]
    (tmp_path / "my-derivation.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(shlex.split(command)) == code
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_library_sketch_values():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        if not isinstance(statement, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        comment = lines[statement.end_lineno - 1].partition("# ")[2]
        assert str(value) == comment, source
        checked += 1
    assert checked == 2
