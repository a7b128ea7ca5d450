"""hklat: even-lattice invariants and the classification of prime-order
non-symplectic automorphisms on K3^[2]-type hyperkaehler fourfolds."""

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
from .classify import (
    EmbeddingReport,
    LatticeInvariants,
    embed_in_L,
    genus_unique,
    invariants_of,
    recognize,
)
from .tables import (
    AdmissibleTriple,
    enumerate_triples,
    h4_trace,
    h_star,
    lefschetz_chi,
    moduli_dimension,
)
from .involutions import (
    InvolutionEmbeddingClass,
    TwoElemInvariants,
    classify_involution_embeddings,
    figure_points,
    k3_triple_exists,
    natural_involution_shift,
    two_elementary_exists,
)
from .fixedlocus import (
    Hilb2FixedLocus,
    K3FixedLocus,
    census_chi_closed_form,
    cross_check_against_table,
    enumerate_local_actions,
    hilb2_census,
)

__version__ = "0.1.0"
