"""Every public function, class and method of lndkit has a caller.

A public name (no leading underscore) defined in a module of
src/lndkit, __init__.py excluded, must be referenced by name in the
code of src/lndkit outside its own definition, or appear as a word in
perfbench/*.py, tests/test_acceptance.py, or the code of README.md
(its fenced blocks and backtick spans; a prose word such as "monomial"
names no method).  A name that only its own unit test calls is dead
weight: delete it with that test.
References are matched by identifier, not by owner, so a method is
kept alive by any use of a name it shares.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lndkit"

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def markdown_code(text: str) -> str:
    """The fenced code blocks and backtick spans of a Markdown text."""
    prose = _FENCE.sub("", text)
    return "\n".join(_FENCE.findall(text) + re.findall(r"`([^`\n]+)`", prose))


def _scan(tree: ast.AST) -> tuple[list[tuple[int, str]], set[str]]:
    """(line, name) of each public definition, and every identifier
    referenced outside the definitions that carry that name."""
    defined: list[tuple[int, str]] = []
    referenced: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, _DEFINITIONS):
            if not node.name.startswith("_"):
                defined.append((node.lineno, node.name))
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        else:
            ident = None
        if ident is not None and ident not in enclosing:
            referenced.add(ident)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return defined, referenced


def uncalled_public_names() -> list[str]:
    defined: list[str] = []
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names, refs = _scan(ast.parse(path.read_text(), str(path)))
        defined += [f"{path.name}:{line}:{name}" for line, name in names]
        referenced |= refs
    outside = [*sorted((ROOT / "perfbench").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    texts = [p.read_text() for p in outside]
    texts.append(markdown_code((ROOT / "README.md").read_text()))
    words = set(re.findall(r"\w+", "\n".join(texts)))
    return [
        entry for entry in defined
        if (name := entry.rsplit(":", 1)[1]) not in referenced
        and name not in words
    ]


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == []


def test_scan_skips_only_the_defining_scope():
    tree = ast.parse(
        "def used():\n    return used()\n"
        "def caller():\n    return used()\n"
        "class Holder:\n    def method(self):\n        return self.method()\n"
    )
    defined, referenced = _scan(tree)
    assert [name for _, name in defined] == ["used", "caller", "Holder", "method"]
    assert "used" in referenced
    assert "method" not in referenced and "caller" not in referenced


def test_markdown_code_skips_prose():
    text = (
        "a monomial in `loc` and\n"
        "```python\nRing.one()\n```\n"
        "more prose with `kernel_check`.\n"
    )
    words = set(re.findall(r"\w+", markdown_code(text)))
    assert words == {"loc", "Ring", "one", "kernel_check"}
