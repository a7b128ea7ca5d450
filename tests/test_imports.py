"""Every name a module of hklat imports is used in that module."""

import ast
from pathlib import Path

import pytest

import hklat

MODULES = sorted(
    path for path in Path(hklat.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source):
    """The names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_dead_names():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import a, b as c\nc(os.sep)\n"
    assert unused_imports(source) == ["a", "math"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
