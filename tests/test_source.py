"""Checks on the package source itself, read with `ast`."""
import ast
from pathlib import Path

import pytest

import snapgap

PACKAGE = Path(snapgap.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that no `ast.Name` in the module
    reads. `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom re import sub\nos.sep\n"
    assert unused_imports(source) == ["math (line 2)", "sub (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def caught_names(source: str) -> set[str]:
    """Names of the classes that the `except` clauses of `source` catch."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return names


def uncaught_classes(errors_source: str, module_sources: list[str]) -> list[str]:
    """The classes of `errors_source` that no `except` clause of
    `module_sources` names."""
    classes = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    caught = set().union(*map(caught_names, module_sources))
    return [name for name in classes if name not in caught]


def test_the_check_sees_an_uncaught_error_class():
    errors = "class Base(Exception): pass\nclass Leaf(Base): pass\nclass Other(Base): pass\n"
    modules = ["try:\n    f()\nexcept (OSError, errors.Other):\n    pass\n", "try:\n    g()\nexcept Base:\n    pass\n"]
    assert uncaught_classes(errors, modules) == ["Leaf"]


def test_every_error_class_is_an_exit_code_or_caught():
    # A class that no caller catches tells no one anything its message does not.
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert uncaught_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"), sources) == []
