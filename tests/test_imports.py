"""Every name a module of hklat imports is used in that module, and the
package exports each of its public names from that name's home layer."""

import ast
import importlib
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


# The names `hklat` exports, by home layer; the last four layers load lazily
# and their names resolve through the package's module __getattr__.
PUBLIC = {
    "errors": (
        "DegenerateForm", "HklatError", "InvalidParameter", "NotEvenLattice",
        "NotPElementary", "UnsupportedPrime",
    ),
    "exact": ("det_exact", "signature_of_symmetric"),
    "fqf": (
        "FiniteQuadraticForm", "FormInvariants", "delta_invariant", "even_lattice_exists",
        "even_lattice_exists_report", "form_invariants", "forms_isomorphic",
        "gauss_signature", "jordan_blocks", "normal_key",
    ),
    "lattices": (
        "DiscriminantData", "Lattice", "LatticeExpr", "ambient_lattice", "direct_sum",
        "discriminant_data", "discriminant_form", "parse_expr", "realize", "render_expr",
        "twist",
    ),
    "classify": (
        "EmbeddingReport", "LatticeInvariants", "embed_in_L", "genus_unique",
        "invariants_of", "recognize",
    ),
    "tables": (
        "AdmissibleTriple", "enumerate_triples", "h4_trace", "h_star", "lefschetz_chi",
        "moduli_dimension",
    ),
    "involutions": (
        "InvolutionEmbeddingClass", "TwoElemInvariants", "classify_involution_embeddings",
        "figure_points", "k3_triple_exists", "natural_involution_shift",
        "two_elementary_exists",
    ),
    "fixedlocus": (
        "Hilb2FixedLocus", "K3FixedLocus", "census_chi_closed_form",
        "cross_check_against_table", "enumerate_local_actions", "hilb2_census",
    ),
}


@pytest.mark.parametrize("layer", PUBLIC)
def test_package_exports_each_name_from_its_home_layer(layer):
    home = importlib.import_module(f"hklat.{layer}")
    for name in PUBLIC[layer]:
        namespace = {}
        exec(f"from hklat import {name}", namespace)
        assert getattr(hklat, name) is namespace[name] is getattr(home, name), name
        assert name in dir(hklat)


def test_package_has_no_other_names():
    with pytest.raises(AttributeError):
        hklat.no_such_name
    with pytest.raises(ImportError):
        exec("from hklat import no_such_name", {})
