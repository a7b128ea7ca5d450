"""Existence, uniqueness and embedding analysis for p-elementary lattices.

The ambient lattice throughout is L = U^3 + E8^2 + <-2> (`hklat.AMBIENT`),
of signature (3,20) and discriminant form Z/2 (3/2).  Its genus is the value
`AMBIENT_GENUS`, so neither the embedding analysis nor the tables build L;
`classify` reads `lattices` only through the module, at call time, and
loading it loads no `lattices`.  A p-elementary lattice S (p odd) embedding
primitively in L has orthogonal complement T with signature (3-s+, 20-s-)
and discriminant form (-q_S) + Z/2 (3/2).  Existence of S and of T are both
answered by fqf.even_lattice_exists_report (Nikulin's Thm 1.10.1): embed_in_L
asks it for T, tables.enumerate_triples for S.

Both answers are functions of the genus alone, a `LatticeInvariants`
value, so each is computed once per process per genus: embed_in_L's report
per genus of S, and recognize's answer per genus of T.  The same genus on
other generators reads the answer.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from . import lattices
from .errors import InvalidParameter, NotPElementary
from .exact import is_prime, is_square, prime_factors
from .fqf import (
    FiniteQuadraticForm,
    cyclic_form,
    even_lattice_exists_report,
    jordan_splitting,
    local_key,
    normal_key,
)


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
        0 when it is trivial, None otherwise: a sum of cyclic groups is
        (Z/p)^a iff each is Z/p, whatever the generators."""
        orders = self.form.orders
        if not orders:
            return 0
        if all(d == orders[0] for d in orders) and is_prime(orders[0]):
            return orders[0]
        return None

    @property
    def a(self) -> int:
        """max_p l(A_p), the number of invariant factors of A."""
        return max(self.form.lengths_per_prime().values(), default=0)


# The genus of L = U^3 + E8^2 + <-2> (`hklat.AMBIENT`): signature (3, 20) and
# form Z/2 (3/2), split here once, so that every complement's form
# (-q_S) + q_L is born split; a test pins it to `invariants_of(realize(AMBIENT))`.
AMBIENT_GENUS = LatticeInvariants(3, 20, cyclic_form(2, 3))
jordan_splitting(AMBIENT_GENUS.form)


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
    p = s.p  # each read runs a primality proof
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


# -- recognition --------------------------------------------------------------------

def _pool_terms(target: LatticeInvariants) -> tuple[tuple[str, int], ...]:
    """The recognition pool of `target`: the catalog terms (atom, twist)
    eligible for its search, in canonical order.  A_{p-1} is a term only
    for the odd primes p of |A_T| with p - 1 <= rank T: a larger one, of
    signature (0, p - 1), can never be a summand, and its block alone would
    cost more than the search (A_222 for p = 223)."""
    primes = target.form.lengths_per_prime()
    odd_primes = sorted(p for p in primes if p != 2)
    terms: list[tuple[str, int]] = [("U", 1)]
    for p in odd_primes:
        terms.append(("U", p))
    for p in odd_primes:
        if p - 1 <= target.rank:
            terms.append((f"A{p - 1}", 1))
    if 3 in odd_primes:
        terms.append(("E6", 1))
    terms.append(("E8", 1))
    for p in odd_primes:
        if p == 3:
            continue  # K3 = A2, already in the pool
        terms.append((f"K{p}" if p % 4 == 3 else f"H{p}", 1))
        if p % 4 == 3:
            terms.append((f"K{p}", -1))
    if 17 in odd_primes:
        terms.append(("L17", 1))
    if 3 in odd_primes:
        terms.append(("E6*", 3))
        terms.append(("A2", -1))
    if 5 in odd_primes:
        terms.append(("A4*", 5))
    if 2 in primes:
        terms.append(("<-2>", 1))
        terms.append(("<2>", 1))
        for p in odd_primes:
            terms.append((f"<{2 * p}>", 1))
            terms.append((f"<{-2 * p}>", 1))
    return tuple(terms)


@cache
def recognize(target: LatticeInvariants) -> lattices.LatticeExpr | None:
    """The first catalog direct sum over `_pool_terms(target)` with the
    target's signature and discriminant form, or None when there is none.

    Order: fewest summands first, then the sorted sequence of pool indices,
    lexicographic.  Forms match when their normal keys are equal.  A sum's
    key is read off its atoms' Jordan blocks put together, since any Jordan
    splitting gives the key.

    The answer is a function of the genus of T, so it is computed once per
    process per genus, and the pool is built only for that first search.

    The search.  The atoms are the pool terms with |det| != 1.  Each is filed
    under the largest prime p of its |det|, and the primes are taken from
    the largest down.  For each p, every partial sum kept so far is extended
    by multisets of p's atoms, by nondecreasing pool index, while the |det|
    product divides |A_T| and the signature stays within the target's.  An
    extension is kept once its p-part is done: p does not divide the rest of
    |A_T|, and the local key at p is the target's.  Of the extensions with
    the same state (rest of |A_T|, signature, multiset of Jordan blocks at
    2) only the first in the order above is kept.  After the last prime,
    each partial sum is completed by x copies of U and y copies of E8, and
    the first in order is the answer; with no completion the answer is None.
    A target with a Jordan block of a scale that no atom has is answered
    None before any partial sum is made.

    Complete.  Let M be a pool sum with sig M = sig T and q_M ~ q_T.  Its
    summands with |det| != 1 have |det| product |A_M| = |A_T|, since |det|
    is multiplicative over an orthogonal sum, and each partial sum of them
    has signature <= sig T, since signatures add and are >= 0.  An atom
    filed under p has no prime above p in its |det|, and every pool atom
    with an odd p in its |det| is filed under p: only <2p> and <-2p> have two
    primes.  So once M's atoms of p are placed, the p-part of M is done, and
    q_M ~ q_T gives it the target's local key at p.  An extension dropped
    for one with the same state can be finished by the same atoms: the
    later primes see only the later atoms, and the 2-part, the sum of the
    same blocks, is the same form.  So M's atoms or a sum of the same state
    survive every prime.  The discriminant group of an orthogonal sum is
    the sum of the groups, so the scales of M's Jordan blocks, the orders
    of its cyclic p-parts, are those of its atoms: no pool sum can match a
    target with a scale that no pool atom carries.  Conversely the normal
    key is the tuple of the local keys, so a partial sum that passes every
    prime has the target's key.  Each atom has |det| >= 2, so at most
    Omega(|A_T|) atoms are placed and the search ends.  The other summands
    of M are unimodular, and U and E8 are the only unimodular pool terms.

    Forced.  x copies of U and y of E8 have signature (x, x + 8y).  With
    (D+, D-) = sig T - sig(atoms), x = D+ and y = (D- - D+)/8; atoms for
    which these are not integers >= 0 have no completion.

    Order.  Two extensions with the same state are finished by the same
    atoms, U and E8.  Their summand counts then differ as their lengths do.
    At equal length, of two sorted sequences the first is the one with more
    copies of the smallest index whose multiplicity differs, and that index
    is one of theirs.  So the extension kept comes first with every
    completion, and the answer is the first of all pool sums with the
    target's signature and key.  The budgeted search this replaces (kept as
    the test oracle `tests/recognize_oracle.py`) met the pool multisets of
    the target's signature in this order and took the first with
    |det| = |A_T| and the target's key, so the two give the same answer
    wherever that one answers.  The empty multiset answers the rank-0
    target.
    """
    return _search(_pool_terms(target), target)


def _search(
    terms: tuple[tuple[str, int], ...], target: LatticeInvariants
) -> lattices.LatticeExpr | None:
    """`recognize`'s search for `target` over the pool `terms`."""
    data = [lattices.atom_data(*term) for term in terms]
    splittings = [jordan_splitting(atom.form) for atom in data]
    scales = {m for split in splittings for blocks in split.values() for m, _ in blocks}
    wanted = jordan_splitting(target.form).values()
    if any(m not in scales for blocks in wanted for m, _ in blocks):
        return None
    groups: dict[int, list[tuple[int, int, int, int]]] = {}  # (pool index, |det|, s+, s-)
    for i, (atom, split) in enumerate(zip(data, splittings)):
        if split:
            groups.setdefault(max(split), []).append((i, abs(atom.det), *atom.signature))
    want_plus, want_minus = target.s_plus, target.s_minus
    want = dict(normal_key(target.form))

    def extend(p, atoms, start, left, plus, minus, acc, out):
        """Append to `out` the extensions of acc by `atoms` from `start` on
        whose p-part is done, as ((rest of |A_T|, plus, minus, blocks at 2),
        sorted acc)."""
        if left % p:
            blocks = [b for i in acc for b in splittings[i].get(p, ())]
            if local_key(p, blocks) == want[p]:
                seq = tuple(sorted(acc))
                two = Counter(b for i in seq for b in splittings[i].get(2, ()))
                out.append(((left, plus, minus, frozenset(two.items())), seq))
        for k in range(start, len(atoms)):
            i, d, sp, sm = atoms[k]
            if left % d == 0 and plus + sp <= want_plus and minus + sm <= want_minus:
                extend(p, atoms, k, left // d, plus + sp, minus + sm, acc + (i,), out)

    kept = {(target.form.order, 0, 0, None): ()}
    for p in sorted(groups, reverse=True):
        out: list[tuple[tuple, tuple[int, ...]]] = []
        for (left, plus, minus, _), acc in kept.items():
            extend(p, groups[p], 0, left, plus, minus, acc, out)
        kept = {}
        for state, seq in out:
            if state not in kept or (len(seq), seq) < (len(kept[state]), kept[state]):
                kept[state] = seq

    u, e8 = terms.index(("U", 1)), terms.index(("E8", 1))
    found = []
    for (_, plus, minus, _), acc in kept.items():
        x = want_plus - plus
        y8 = want_minus - minus - x
        if y8 >= 0 and y8 % 8 == 0:
            found.append(tuple(sorted(acc + (u,) * x + (e8,) * (y8 // 8))))
    if not found:
        return None
    counts = Counter(terms[i] for i in min(found, key=lambda seq: (len(seq), seq)))
    return lattices.LatticeExpr(tuple((atom, tw, mult) for (atom, tw), mult in counts.items()))

