"""Every public function and class of kbforge has a caller outside the tests,
and no public dataclass only wraps one value.

An AST walk stands in for a dead-code linter: a public (no leading
underscore) module-level function or class of ``src/kbforge`` must be named
in the package's code somewhere outside its own definition, be mentioned in
the benchmark under ``perfbench/``, or be listed in ``kbforge.__all__``.
Names in code are names, attributes, imported names and quoted annotations;
docstrings and comments do not count. A helper that only tests call is
deleted, and its tests use what the package itself calls.

A public dataclass with one field and no methods adds a name and an
attribute lookup to the value it holds; the package hands on the value.
"""

import ast
import re
from pathlib import Path

import pytest

import kbforge

PACKAGE = Path(kbforge.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))

# Public for callers outside the package, each for its reason.
ALLOWED = {
    # Reading an export back is how an export is verified to keep every fact.
    ("export", "read_csv"),
    # Re-parses a crawl's audit log: the base of resuming a crawl from its log.
    ("gateway", "replay_audit"),
}

# One-field dataclasses kept, each for its reason.
WRAPPERS_ALLOWED = {
    # The benchmark's trace reads its ``.buckets``.
    ("popularity", "BucketAssignment"),
}


def _names_in(node: ast.AST) -> set[str]:
    """Every name ``node``'s code uses, quoted annotations included."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.alias):
            names.add(part.name.rpartition(".")[2])
        for annotation in (getattr(part, "annotation", None), getattr(part, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= _names_in(ast.parse(annotation.value, mode="eval"))
    return names


def _definitions(tree: ast.Module) -> list[ast.stmt]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds) and not node.name.startswith("_")]


def uncalled(sources: dict[str, str], mentioned: str, exported: set[str]) -> list[tuple[str, str]]:
    """(module, name) of each public definition in ``sources`` (module -> code)
    that no other code there names, ``mentioned`` never mentions and
    ``exported`` does not hold."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # Each top-level statement's names, so a definition's own body is left out.
    uses = [(stmt, _names_in(stmt)) for tree in trees.values() for stmt in tree.body]
    found = []
    for module, tree in trees.items():
        for definition in _definitions(tree):
            name = definition.name
            if name in exported or re.search(rf"\b{re.escape(name)}\b", mentioned):
                continue
            if not any(name in names for stmt, names in uses if stmt is not definition):
                found.append((module, name))
    return sorted(found)


def test_every_public_definition_has_a_caller_outside_the_tests():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    mentioned = "\n".join(path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py")))
    assert [d for d in uncalled(sources, mentioned, set(kbforge.__all__)) if d not in ALLOWED] == []


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_each_allowed_exception_is_still_defined(module, name):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert name in {d.name for d in _definitions(tree)}


def test_the_check_sees_names_in_code_only():
    sources = {
        "a": (
            "from .b import used_by_import\n"
            "def called():\n"
            '    """Mentions only_in_docstring."""\n'
            "    return used_by_import()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Annotated:\n"
            "    def f(self) -> 'Quoted':\n"
            "        return b.attribute_use\n"
            "def _private():\n"
            "    pass\n"
            "x = called()\n"
        ),
        "b": (
            "def used_by_import(): pass\n"
            "def attribute_use(): pass\n"
            "def only_in_docstring(): pass\n"
            "class Quoted: pass\n"
            "def benched(): pass\n"
            "def exported(): pass\n"
        ),
    }
    assert uncalled(sources, "perfbench calls b.benched()", {"exported"}) == [
        ("a", "Annotated"), ("a", "recursive"), ("b", "only_in_docstring"),
    ]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def wrappers(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each public dataclass in ``sources`` (module -> code)
    that declares one field and defines no method."""
    found = []
    for module, source in sources.items():
        for definition in _definitions(ast.parse(source)):
            if not isinstance(definition, ast.ClassDef) or not _is_dataclass(definition):
                continue
            fields = [part for part in definition.body if isinstance(part, ast.AnnAssign)]
            methods = [part for part in definition.body if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if len(fields) == 1 and not methods:
                found.append((module, definition.name))
    return sorted(found)


def test_no_public_dataclass_only_wraps_one_field():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert [w for w in wrappers(sources) if w not in WRAPPERS_ALLOWED] == []


@pytest.mark.parametrize("module, name", sorted(WRAPPERS_ALLOWED))
def test_each_allowed_wrapper_is_still_one(module, name):
    assert (module, name) in wrappers({module: (PACKAGE / f"{module}.py").read_text(encoding="utf-8")})


def test_the_wrapper_check_counts_fields_and_methods():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Wrapper:\n"
        "    value: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class Qualified:\n"
        "    value: int\n"
        "@dataclass\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "@dataclass\n"
        "class Checked:\n"
        "    value: int\n"
        "    def __post_init__(self): pass\n"
        "class Plain:\n"
        "    value: int\n"
        "@dataclass\n"
        "class _Private:\n"
        "    value: int\n"
    )
    assert wrappers({"m": source}) == [("m", "Qualified"), ("m", "Wrapper")]
