"""hklat: even-lattice invariants and the classification of prime-order
non-symplectic automorphisms on K3^[2]-type hyperkaehler fourfolds.

The core layers `errors`, `exact`, `fqf` and `lattices` load eagerly, leaf
first; every command uses them.  The other layers, `classify`, `tables`,
`involutions` and `fixedlocus`, load lazily through
`importlib.util.LazyLoader`, so a fresh command compiles (or, from
`__pycache__`, unmarshals) only the layers it runs: `hklat figures` never
loads `classify`, `tables` or `fixedlocus`, and `hklat tables` never loads
`involutions` or `fixedlocus`.  The core stays eager for peak memory:
loaded on demand after `cli`, the large `lattices` and `fqf` would be
compiled with other code already in memory, and the compiler's working
memory for them would come on top of it.

Every layer is in `sys.modules` after `import hklat`, loaded or not, and is
an attribute of the package.  Binding a lazy layer (`from hklat import
tables`) does not load it; reading any of its attributes does.  So an error
raised while a lazy layer's module body runs surfaces at that first use, not
at `import hklat`, and the half-run module stays in `sys.modules`.  The
names the lazy layers export (`hklat.embed_in_L`, `from hklat import
AdmissibleTriple`) resolve through the module `__getattr__` below.
LazyLoader takes no lock on Python 3.11, so two threads touching the same
unloaded layer at once could both run its body; hklat is serial
(`HKLAT_THREADS` is a cap that serial code meets).
"""

import importlib.util
import sys

from .errors import (
    DegenerateForm,
    HklatError,
    InvalidParameter,
    NotEvenLattice,
    NotPElementary,
    UnsupportedPrime,
)
from .exact import (
    det_exact,
    signature_of_symmetric,
)
from .fqf import (
    FiniteQuadraticForm,
    FormInvariants,
    delta_invariant,
    even_lattice_exists,
    even_lattice_exists_report,
    form_invariants,
    forms_isomorphic,
    gauss_signature,
    jordan_blocks,
    normal_key,
)
from .lattices import (
    DiscriminantData,
    Lattice,
    LatticeExpr,
    ambient_lattice,
    direct_sum,
    discriminant_data,
    discriminant_form,
    parse_expr,
    realize,
    render_expr,
    twist,
)


def _lazy(layer: str):
    """Register hklat.<layer> in `sys.modules`; its body runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


classify = _lazy("classify")
tables = _lazy("tables")
involutions = _lazy("involutions")
fixedlocus = _lazy("fixedlocus")

# The lazy layers' exported names, by home layer.
_LAZY_EXPORTS = {
    "classify": (
        "EmbeddingReport",
        "LatticeInvariants",
        "embed_in_L",
        "genus_unique",
        "invariants_of",
        "recognize",
    ),
    "tables": (
        "AdmissibleTriple",
        "enumerate_triples",
        "h4_trace",
        "h_star",
        "lefschetz_chi",
        "moduli_dimension",
    ),
    "involutions": (
        "InvolutionEmbeddingClass",
        "TwoElemInvariants",
        "classify_involution_embeddings",
        "figure_points",
        "k3_triple_exists",
        "natural_involution_shift",
        "two_elementary_exists",
    ),
    "fixedlocus": (
        "Hilb2FixedLocus",
        "K3FixedLocus",
        "census_chi_closed_form",
        "cross_check_against_table",
        "enumerate_local_actions",
        "hilb2_census",
    ),
}
_HOME = {name: layer for layer, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
