"""hklat: even-lattice invariants and the classification of prime-order
non-symplectic automorphisms on K3^[2]-type hyperkaehler fourfolds.

Each public name is reached one way, through its home layer:
`hklat.lattices.realize`, `hklat.classify.embed_in_L`.  The core layers
`errors`, `exact`, `fqf` and `lattices` load eagerly, leaf first; every
command uses them.  The other layers, `classify`, `tables`, `involutions`
and `fixedlocus`, load lazily through `importlib.util.LazyLoader`, so a
fresh command compiles (or, from `__pycache__`, unmarshals) only the layers
it runs: `hklat figures` never loads `classify`, `tables` or `fixedlocus`,
and `hklat tables` never loads `involutions` or `fixedlocus`.  The core
stays eager for peak memory: loaded on demand after `cli`, the large
`lattices` and `fqf` would be compiled with other code already in memory,
and the compiler's working memory for them would come on top of it.

Every layer is in `sys.modules` after `import hklat`, loaded or not, and is
an attribute of the package.  Binding a lazy layer (`from hklat import
tables`) does not load it; reading any of its attributes does.  So an error
raised while a lazy layer's module body runs surfaces at that first use, not
at `import hklat`, and the half-run module stays in `sys.modules`.
LazyLoader takes no lock on Python 3.11, so two threads touching the same
unloaded layer at once could both run its body; hklat is serial
(`HKLAT_THREADS` is a cap that serial code meets).
"""

import importlib.util
import sys

from . import errors, exact, fqf, lattices


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

__version__ = "0.1.0"
