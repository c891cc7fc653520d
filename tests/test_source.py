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
