"""Every name a module of hklat imports is used in that module, the package
holds only its eight layers and L's name, each public name is reached only
through its home layer, every dotted `hklat.` reference in the docs
resolves, and the process-wide caches are the seven listed in `CACHES`."""

import ast
import functools
import importlib
import re
import sys
import types
from pathlib import Path

import pytest

import hklat

ROOT = Path(__file__).resolve().parents[1]
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


LAYERS = ("errors", "exact", "fqf", "lattices", "classify", "tables", "involutions", "fixedlocus")


def defined_names(module):
    """The public functions and classes whose home is `module`."""
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    )


@pytest.mark.parametrize("layer", LAYERS)
def test_package_exports_each_name_from_its_home_layer(layer):
    home = getattr(hklat, layer)
    assert home is sys.modules[f"hklat.{layer}"]
    names = defined_names(home)
    assert names
    for name in names:
        assert not hasattr(hklat, name), name
        with pytest.raises(ImportError):
            exec(f"from hklat import {name}", {})


def test_package_has_no_other_names():
    for name in ("realize", "embed_in_L", "no_such_name"):
        with pytest.raises(ImportError):
            exec(f"from hklat import {name}", {})
    with pytest.raises(AttributeError):
        hklat.no_such_name
    # Besides the layers L's name, and only modules: hklat.cli once imported,
    # importlib, sys.
    others = {
        name: value
        for name, value in vars(hklat).items()
        if not name.startswith("_") and name not in LAYERS
    }
    assert [name for name, value in others.items() if not isinstance(value, types.ModuleType)] == [
        "AMBIENT"
    ], others


def dotted_references(text):
    """The dotted `hklat.<name>...` references in `text`, call arguments dropped."""
    return sorted(set(re.findall(r"\bhklat(?:\.[A-Za-z_]\w*)+", text)))


def resolves(reference):
    """Import the longest module prefix of `reference`, getattr the rest."""
    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_resolves_finds_dead_references():
    assert dotted_references("`hklat.cli.main(argv)` and hklat.realize.") == [
        "hklat.cli.main", "hklat.realize",
    ]
    assert resolves("hklat.cli.main") and resolves("hklat.lattices.realize")
    assert not resolves("hklat.realize") and not resolves("hklat.no_such_layer.x")


def test_docs_name_only_what_exists():
    for text in ((ROOT / "README.md").read_text(), hklat.__doc__):
        references = dotted_references(text)
        assert references
        assert [ref for ref in references if not resolves(ref)] == []


CACHES = {
    "exact.prime_factors",
    "lattices.atom_data",
    "lattices.realize",
    "classify.embed_in_L",
    "classify.recognize",
    "cli._command_parser",
}


def cached_callables(module):
    """The `functools.cache`/`lru_cache` callables whose home is `module`, at
    module level or in a class, as `layer.name`."""
    layer = module.__name__.removeprefix("hklat.")
    found = set()
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, functools._lru_cache_wrapper):
            found.add(f"{layer}.{name}")
        elif isinstance(value, type):
            found |= {
                f"{layer}.{name}.{attr}"
                for attr, member in vars(value).items()
                if isinstance(member, functools._lru_cache_wrapper)
            }
    return found


def test_the_process_wide_caches_are_exactly_these():
    # each cache kept was measured against its removal; adding one means
    # adding it here
    modules = [importlib.import_module(f"hklat.{layer}") for layer in (*LAYERS, "cli")]
    assert set().union(*map(cached_callables, modules)) == CACHES
