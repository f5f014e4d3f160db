"""Every whole file kbforge writes goes through ``model.write_atomic``.

An AST walk stands in for a linter: a call to ``write_text`` or
``write_bytes``, or to ``open`` with a mode that writes, is reported with the
function that makes it. Three functions may write directly: ``write_atomic``
itself, ``NdjsonStore.append`` (an append-only log) and ``export.to_html``
(hundreds of small pages, where a rename per page would cost more than the
pages).
"""

import ast
from pathlib import Path

import pytest

import kbforge

PACKAGE = Path(kbforge.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

ALLOWED = {
    ("model.py", "write_atomic"),
    ("model.py", "NdjsonStore.append"),
    ("export.py", "to_html"),
}


def _writes(call: ast.Call) -> bool:
    """True for a call that writes a file: ``write_text``, ``write_bytes``, or
    ``open`` with a mode that is not a constant read mode."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # Builtin ``open(file, mode)``; ``Path.open(mode)``.
    position = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position : position + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def direct_writes(source: str) -> list[tuple[int, str]]:
    """(line, qualified function name) of each direct file write in ``source``."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_whole_file_goes_through_write_atomic(path):
    writes = direct_writes(path.read_text(encoding="utf-8"))
    assert [(line, name) for line, name in writes if (path.name, name) not in ALLOWED] == []


def test_the_check_sees_every_way_to_write():
    source = (
        "def a(p):\n"
        "    p.write_text('x')\n"
        "    p.write_bytes(b'x')\n"
        "    p.read_text()\n"
        "class B:\n"
        "    def c(self, p, mode):\n"
        "        open(p, 'w')\n"
        "        open(p)\n"
        "        open(p, 'rb')\n"
        "        p.open('a')\n"
        "        p.open(mode='r+')\n"
        "        p.open('r')\n"
        "        p.open(mode)\n"
        "        def inner():\n"
        "            p.open('x')\n"
    )
    assert direct_writes(source) == [
        (2, "a"), (3, "a"), (7, "B.c"), (10, "B.c"), (11, "B.c"), (13, "B.c"), (15, "B.c.inner"),
    ]
