"""hklat: even-lattice invariants and the classification of prime-order
non-symplectic automorphisms on K3^[2]-type hyperkaehler fourfolds.

Each public name is reached one way, through its home layer:
`hklat.lattices.realize`, `hklat.classify.embed_in_L`.  All eight layers
load lazily through `importlib.util.LazyLoader`: `import hklat` runs no
layer's module body, and a fresh command compiles (or, from `__pycache__`,
unmarshals) only the layers it runs.  Besides `cli` and `errors`:

- `hklat`, `hklat --help` and an unknown command load no other layer: L's
  name is `AMBIENT`, defined here;
- `figures` and `involution` load `involutions`;
- `invariants` and `embed` load `exact`, `fqf`, `lattices` and
  `classify`;
- `tables` loads `exact`, `fqf`, `classify` and `tables`: L's genus is
  `classify.AMBIENT_GENUS`, so no lattice is built;
- `census` and `local-actions` load `exact` and `fixedlocus`, and
  `census --check` also `tables`.

The trade is peak memory.  A core layer loaded after `cli` is compiled with
`cli` and argparse already in memory, so from source the `tables` commands
peak 0.4-0.55 MB higher than when the core loaded first, and `figures`
peaks 0.8 MB lower; from bytecode the difference is under 0.3 MB.

Every layer is in `sys.modules` after `import hklat`, loaded or not, and is
an attribute of the package.  Binding a layer (`from hklat import tables`)
does not load it; reading any of its attributes, or importing a name from
it, does.  So an error raised while a layer's module body runs surfaces at
that first use, not at `import hklat`, and the half-run module stays in
`sys.modules`.  LazyLoader takes no lock on Python 3.11, so two threads
touching the same unloaded layer at once could both run its body; hklat is
serial (`HKLAT_THREADS` is a cap that serial code meets).
"""

import importlib.util
import sys


def _lazy(layer: str):
    """Register hklat.<layer> in `sys.modules`; its body runs on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


errors = _lazy("errors")
exact = _lazy("exact")
fqf = _lazy("fqf")
lattices = _lazy("lattices")
classify = _lazy("classify")
tables = _lazy("tables")
involutions = _lazy("involutions")
fixedlocus = _lazy("fixedlocus")

__version__ = "0.1.0"

# L = H^2 of a K3^[2]-type fourfold, defined once: `classify.AMBIENT_GENUS`
# is the genus of `lattices.realize(AMBIENT)`, and `cli` prints this name.
AMBIENT = "U^3 + E8^2 + <-2>"
