"""Every name a kbforge module imports is used by that module, and only
the gateway module imports the HTTP transport.

An AST walk stands in for a linter: an import counts as used when its bound
name appears as a name in the module's code or in a quoted annotation.
Docstrings and comments do not count. The package's ``__init__.py`` imports
only to re-export, so it is exempt from the first check.
"""

import ast
from pathlib import Path

import pytest

import kbforge

PACKAGE = Path(kbforge.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind -> the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _quoted_annotations(tree: ast.Module):
    """Each string annotation in ``tree``, parsed."""
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield ast.parse(part.value, mode="eval")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import whose bound name the module never uses."""
    tree = ast.parse(source)
    used = {
        node.id
        for part in (tree, *_quoted_annotations(tree))
        for node in ast.walk(part)
        if isinstance(node, ast.Name)
    }
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_names_in_code_and_quoted_annotations_only():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from typing import Optional, Sequence\n"
        "from .model import Caps, Triple\n"
        '"""Caps are documented here."""\n'
        "def f(x: 'Optional[int]') -> Sequence[int]:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == [(2, "osp"), (4, "Caps"), (4, "Triple")]


# The standard-library modules that open connections or speak TLS; every
# remote client goes through ``gateway.Session`` instead.
TRANSPORT = {"http.client", "ssl", "urllib.request"}


def imported_modules(source: str) -> set[str]:
    """The full name of each absolute module that ``source`` imports, or
    imports a name from."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from http import client`` imports the module http.client.
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_only_the_gateway_imports_the_transport():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if imported_modules(path.read_text(encoding="utf-8")) & TRANSPORT
    }
    assert importers == {"gateway.py"}


def test_the_transport_check_sees_every_import_form():
    for source in ("import http.client", "import ssl as tls", "from urllib import request",
                   "from urllib.request import urlopen", "def f():\n    from http.client import HTTPConnection"):
        assert imported_modules(source) & TRANSPORT, source
    assert not imported_modules("import urllib.parse\nfrom .gateway import Session") & TRANSPORT
