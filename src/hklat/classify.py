"""Genus, existence, uniqueness and embedding analysis for p-elementary
lattices.

The ambient lattice throughout is L = U^3 + E8^2 + <-2> (`hklat.AMBIENT`),
of signature (3,20) and discriminant form Z/2 (3/2).  Its genus is the value
`AMBIENT_GENUS`, its form built from its one Jordan block, so neither the
embedding analysis nor the tables build L or split a form;
`classify` reads `lattices` only through the module, at call time, and
loading it loads no `lattices`.  A p-elementary lattice S (p odd) embedding
primitively in L has orthogonal complement T with signature (3-s+, 20-s-)
and discriminant form (-q_S) + Z/2 (3/2).  Existence of S and of T are both
answered by fqf.even_lattice_exists_report (Nikulin's Thm 1.10.1): embed_in_L
asks it for T, tables.enumerate_triples for S.  `lattices.recognize`, the
inverse of `lattices.realize`, names a catalog lattice of T's genus; `embed`
runs it, the tables never do.

The embedding report is a function of the genus alone, a `LatticeInvariants`
value, so embed_in_L computes it once per process per genus of S.  The same
genus on other generators reads the answer.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from . import lattices
from .errors import InvalidParameter, NotPElementary
from .exact import is_square, prime_factors
from .fqf import FiniteQuadraticForm, even_lattice_exists_report, normal_key


class LatticeInvariants:
    """The genus of an even lattice: its signature and the isomorphism class
    of its discriminant form (Nikulin 1979, Cor. 1.9.4); p, a and rank are
    read off them.

    Immutable; equality and hashing go by (s+, s-, normal key of `form`),
    so the same genus on other generators is equal.  `form` is one
    representative.  The form computes its key on the first hash or
    comparison and keeps it (see `fqf.normal_key`); a genus only read for
    its signature, p or a never computes it."""

    __slots__ = ("s_plus", "s_minus", "form")

    def __init__(self, s_plus: int, s_minus: int, form: FiniteQuadraticForm):
        object.__setattr__(self, "s_plus", s_plus)
        object.__setattr__(self, "s_minus", s_minus)
        object.__setattr__(self, "form", form)

    def __setattr__(self, name, value):
        raise AttributeError(f"LatticeInvariants is immutable; cannot set {name!r}")

    @property
    def key(self) -> tuple:
        """(s+, s-, normal key of the form): equal iff the genera are."""
        return (self.s_plus, self.s_minus, normal_key(self.form))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return (f"LatticeInvariants(s_plus={self.s_plus!r}, s_minus={self.s_minus!r}, "
                f"form={self.form!r})")

    @property
    def rank(self) -> int:
        return self.s_plus + self.s_minus

    @property
    def p(self) -> int | None:
        """The prime p when the discriminant group is (Z/p)^a with a >= 1,
        0 when it is trivial, None otherwise: A is (Z/p)^a iff p is the one
        prime of the form's Jordan splitting and every block has scale p."""
        split = self.form.split
        if not split:
            return 0
        if len(split) == 1:
            [(p, blocks)] = split.items()
            if all(m == p for m, _ in blocks):
                return p
        return None

    @property
    def a(self) -> int:
        """max_p l(A_p), the number of invariant factors of A."""
        return max(self.form.lengths_per_prime().values(), default=0)


# The genus of L = U^3 + E8^2 + <-2> (`hklat.AMBIENT`): signature (3, 20) and
# form Z/2 (3/2), one cyclic Jordan block (2, 3); a test pins it to
# `invariants_of(realize(AMBIENT))`.
AMBIENT_GENUS = LatticeInvariants(3, 20, FiniteQuadraticForm({2: ((2, 3),)}))


def invariants_of(lattice: lattices.Lattice) -> LatticeInvariants:
    """The genus of the lattice, on the discriminant form read off its
    blocks (see `lattices.discriminant_form`)."""
    return LatticeInvariants(*lattice.signature(), lattices.discriminant_form(lattice))


# -- genus uniqueness (indefinite) -------------------------------------------------

def genus_unique(rank: int, det: int) -> bool:
    """Sufficient one-class-per-genus test for indefinite lattices of rank n and
    |determinant| d: true when no nonsquare k = 0,1 mod 4 has k^C(n,2) dividing
    B = 4^floor(n/2) * d.

    k^C(n,2) divides B iff k divides r = prod q^floor(v_q(B) / C(n,2)) over
    the primes q of B, so only the divisors k > 1 of r are tried, not every
    k up to B^(1/C(n,2))."""
    if rank < 2:
        raise InvalidParameter("test applies to indefinite lattices (rank >= 2)")
    if det == 0:
        raise InvalidParameter("test applies to nondegenerate lattices (det != 0)")
    bound = 4 ** (rank // 2) * abs(det)
    exponent = rank * (rank - 1) // 2
    divisors = [1]
    for q in prime_factors(bound):
        v, rest = 0, bound
        while rest % q == 0:
            v, rest = v + 1, rest // q
        divisors = [k * q**i for k in divisors for i in range(v // exponent + 1)]
    return not any(k % 4 in (0, 1) and not is_square(k) for k in divisors[1:])


# -- primitive embeddings into the ambient lattice ---------------------------------

class EmbeddingReport(NamedTuple):
    """Outcome of embedding a p-elementary lattice S primitively into
    L = U^3 + E8^2 + <-2>."""

    embeds: bool
    unique_embedding: bool
    orthogonal_invariants: LatticeInvariants | None
    exception_flag: bool
    t_unique_embedding: bool


@cache
def embed_in_L(s: LatticeInvariants) -> EmbeddingReport:
    """Primitive-embedding analysis of S in L for odd p (or a = 0).

    The orthogonal complement T has signature sig L - sig S and
    discriminant form (-q_S) + q_L.  The embedding is unique when T is
    indefinite and a <= rank L - 2 - rank S; outside that range the rank-one
    complement case is checked directly, and an indefinite T may still get a
    one-class-per-genus certificate instead (exception_flag).

    The report is a function of the genus of S, so it is computed once per
    process for each genus asked, with T's form built from the first
    representative of S; its objects are immutable, so every caller shares
    them.  A rejected S raises each time.
    """
    p = s.p
    if p is None or (p == 2 and s.a > 0):
        raise NotPElementary("embedding analysis requires odd p (or trivial group)")
    ambient = AMBIENT_GENUS
    t_plus, t_minus = ambient.s_plus - s.s_plus, ambient.s_minus - s.s_minus
    q_t = s.form.neg().dsum(ambient.form)
    embeds, _ = even_lattice_exists_report(t_plus, t_minus, q_t)
    if not embeds:
        return EmbeddingReport(False, False, None, False, False)

    t_rank = t_plus + t_minus
    unique = t_plus > 0 and t_minus > 0 and s.a <= ambient.rank - 2 - s.rank
    exception = False
    if not unique:
        if t_rank == 1:
            unique = _rank_one_orthogonal_group_surjects(q_t.order)
        elif t_plus > 0 and t_minus > 0:
            exception = genus_unique(t_rank, q_t.order)

    t_unique = s.rank >= s.a + 2 or (s.rank == 2 and s.a == 1 and p == 3)
    return EmbeddingReport(
        True, unique, LatticeInvariants(t_plus, t_minus, q_t), exception, t_unique
    )


def _rank_one_orthogonal_group_surjects(n: int) -> bool:
    """Whether O(<+-n>) = {+-1} maps onto O(q) for even n, that is, whether
    every unit u of Z/n with u^2 = 1 mod 2n is +-1: iff n = 2^k or n = 2p^k.

    Such u are counted by the Chinese remainder theorem: two (+-1) modulo
    each odd prime power of n, and modulo the 2-part 2^k of n one for k = 1
    and two (+-1) for k >= 2.  So only +-1 remain iff n has no odd prime, or
    one odd prime and k = 1.  A rank-one T that exists is <+-n> for n its
    |A_T|, so no check of its form is needed."""
    primes = prime_factors(n)
    return len(primes) == 1 or (len(primes) == 2 and n % 4 == 2)
