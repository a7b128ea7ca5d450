"""Existence, uniqueness and embedding analysis for p-elementary lattices.

The ambient lattice throughout is L = U^3 + E8^2 + <-2> (`lattices.AMBIENT`),
of signature (3,20) and discriminant form Z/2 (3/2).  A p-elementary lattice
S (p odd) embedding primitively in L has orthogonal complement T with
signature (3-s+, 20-s-) and discriminant form (-q_S) + Z/2 (3/2).  Existence of S and of T are both
answered by fqf.even_lattice_exists_report (Nikulin's Thm 1.10.1): embed_in_L
asks it for T, tables.enumerate_triples for S.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import NamedTuple

from .errors import InvalidParameter, NotPElementary
from .exact import is_prime, is_square, prime_factors
from .fqf import (
    FiniteQuadraticForm,
    even_lattice_exists_report,
    jordan_splitting,
    local_key,
    splitting_key,
)
from .lattices import (
    Lattice,
    LatticeExpr,
    ambient_lattice,
    atom_data,
    discriminant_form,
)


class LatticeInvariants(NamedTuple):
    """Genus data of an even lattice: signature plus discriminant form
    (Nikulin 1979, Cor. 1.9.4); p, a and rank are read off them."""

    s_plus: int
    s_minus: int
    form: FiniteQuadraticForm

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


def invariants_of(lattice: Lattice) -> LatticeInvariants:
    """Signature and discriminant form of the lattice, read off its blocks
    (see `lattices.discriminant_form`)."""
    return LatticeInvariants(*lattice.signature(), discriminant_form(lattice))


# -- genus uniqueness (indefinite) -------------------------------------------------

def genus_unique(rank: int, det: int) -> bool:
    """Sufficient one-class-per-genus test for indefinite lattices of rank n and
    |determinant| d: true when no nonsquare k = 0,1 mod 4 has k^C(n,2) dividing
    4^floor(n/2) * d."""
    if rank < 2:
        raise InvalidParameter("test applies to indefinite lattices (rank >= 2)")
    d = abs(det)
    bound = 4 ** (rank // 2) * d
    exponent = rank * (rank - 1) // 2
    k = 2
    while k**exponent <= bound:
        if k % 4 in (0, 1) and not is_square(k) and bound % (k**exponent) == 0:
            return False
        k += 1
    return True


# -- primitive embeddings into the ambient lattice ---------------------------------

class EmbeddingReport(NamedTuple):
    """Outcome of embedding a p-elementary lattice S primitively into
    L = U^3 + E8^2 + <-2>."""

    embeds: bool
    unique_embedding: bool
    orthogonal_invariants: LatticeInvariants | None
    exception_flag: bool
    t_unique_embedding: bool


_NO_EMBEDDING = EmbeddingReport(False, False, None, False, False)


def embed_in_L(s: LatticeInvariants) -> EmbeddingReport:
    """Primitive-embedding analysis of S in L for odd p (or a = 0).

    The orthogonal complement T has signature sig L - sig S and
    discriminant form (-q_S) + q_L.  The embedding is unique when T is
    indefinite and a <= rank L - 2 - rank S; outside that range the rank-one
    complement case is checked directly, and an indefinite T may still get a
    one-class-per-genus certificate instead (exception_flag).
    """
    if s.p is None or (s.p == 2 and s.a > 0):
        raise NotPElementary("embedding analysis requires odd p (or trivial group)")
    ambient = ambient_lattice()
    l_plus, l_minus = ambient.signature()
    t_plus, t_minus = l_plus - s.s_plus, l_minus - s.s_minus
    if t_plus < 0 or t_minus < 0:
        return _NO_EMBEDDING
    q_t = s.form.neg().dsum(discriminant_form(ambient))
    embeds, _ = even_lattice_exists_report(t_plus, t_minus, q_t)
    if not embeds:
        return _NO_EMBEDDING

    t_rank = t_plus + t_minus
    unique = t_plus > 0 and t_minus > 0 and s.a <= ambient.rank - 2 - s.rank
    exception = False
    if not unique:
        if t_rank == 1:
            unique = _rank_one_orthogonal_group_surjects(q_t.order)
        elif t_plus > 0 and t_minus > 0:
            exception = genus_unique(t_rank, q_t.order)

    t_unique = s.rank >= s.a + 2 or (s.rank == 2 and s.a == 1 and s.p == 3)
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

class _Pool(NamedTuple):
    """A search pool and what `recognize` reads off its terms, built once per
    process for each pool (see `_pool`).  `groups` holds, largest prime
    first, each prime p with the atoms filed under it as
    (pool index, |det|, s+, s-); `local_keys` and `twos` are the tables."""

    terms: tuple[tuple[str, int], ...]
    splittings: tuple[dict[int, tuple], ...]
    groups: tuple[tuple[int, tuple[tuple[int, int, int, int], ...]], ...]
    scales: frozenset[int]
    u: int
    e8: int
    local_keys: dict[tuple[int, tuple[int, ...]], tuple | frozenset]
    twos: dict[tuple[int, ...], frozenset]


def _search_pool(target: LatticeInvariants) -> list[tuple[str, int]]:
    """Catalog terms (atom, twist) eligible for a recognition search, in
    canonical order."""
    return list(_pool_of(target).terms)


def _pool_of(target: LatticeInvariants) -> _Pool:
    primes = target.form.lengths_per_prime()
    odd_primes = tuple(sorted(p for p in primes if p != 2))
    roots = tuple(p for p in odd_primes if p - 1 <= target.rank)
    return _pool(odd_primes, roots, 2 in primes)


@cache
def _pool(odd_primes: tuple[int, ...], roots: tuple[int, ...], has_two_part: bool) -> _Pool:
    """The pool of a target whose |A_T| has these odd primes, and a 2-part
    when `has_two_part`, with its tables, once per process.  A_{p-1} is a
    term only for the primes p in `roots`, those with p - 1 <= rank T: a
    larger one, of signature (0, p - 1), can never be a summand, and its
    block alone would cost more than the search (A_222 for p = 223)."""
    terms: list[tuple[str, int]] = [("U", 1)]
    for p in odd_primes:
        terms.append(("U", p))
    for p in roots:
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
    if has_two_part:
        terms.append(("<-2>", 1))
        terms.append(("<2>", 1))
        for p in odd_primes:
            terms.append((f"<{2 * p}>", 1))
            terms.append((f"<{-2 * p}>", 1))
    splittings = tuple(jordan_splitting(atom_data(*term).form) for term in terms)
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for i, term in enumerate(terms):
        if splittings[i]:
            atom = atom_data(*term)
            groups.setdefault(max(splittings[i]), []).append((i, abs(atom.det), *atom.signature))
    by_prime = tuple((p, tuple(groups[p])) for p in sorted(groups, reverse=True))
    scales = frozenset(m for split in splittings for blocks in split.values() for m, _ in blocks)
    u, e8 = terms.index(("U", 1)), terms.index(("E8", 1))
    return _Pool(tuple(terms), splittings, by_prime, scales, u, e8, {}, {})


def recognize(target: LatticeInvariants) -> LatticeExpr | None:
    """The first catalog direct sum over `_search_pool(target)` with the
    target's signature and discriminant form, or None when there is none.

    Order: fewest summands first, then the sorted sequence of pool indices,
    lexicographic.  Forms match when their normal keys are equal.  A sum's
    key is read off its atoms' Jordan blocks put together, since any Jordan
    splitting gives the key.

    Tables.  A pool depends on the target only through the odd primes of
    |A_T|, those of them whose A_{p-1} fits in rank T, and whether |A_T| has
    a 2-part, so `_pool` builds it once per process for each such signature:
    the terms, their Jordan splittings, the atoms filed under each prime, the
    block scales, and the indices of U and E8.
    Each pool also keeps two tables that the search fills as it goes:
    (p, atoms of a partial sum as pool indices) -> the local key at p, which
    `fqf.local_key` computes on a miss, and the sorted atoms of a partial sum
    -> its multiset of Jordan blocks at 2.  A key is a function of the atoms
    it names, so a table entry holds for every target of that pool.  The
    tables grow with the distinct atom multisets the searches visit, each of
    |det| product dividing some |A_T|, not with the number of targets; a
    search met again adds nothing.  They only cache values; the state the
    search prunes by and its order are as below.

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
    the first in order is the answer.  A target with a Jordan block of a
    scale that no atom has is answered None at once: the scales, with their
    ranks, are the elementary divisors of A_T, and those of a sum are its
    summands' put together.

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
    survive every prime.  Conversely the normal key is the tuple of the
    local keys, so a partial sum that passes every prime has the target's
    key.  Each atom has |det| >= 2, so at most Omega(|A_T|) atoms are placed
    and the search ends.  The other summands of M are unimodular, and U and
    E8 are the only unimodular pool terms.

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
    pool = _pool_of(target)
    splittings, local_keys, twos = pool.splittings, pool.local_keys, pool.twos
    want_splitting = jordan_splitting(target.form)
    if any(m not in pool.scales for blocks in want_splitting.values() for m, _ in blocks):
        return None
    want = dict(splitting_key(want_splitting))
    want_plus, want_minus = target.s_plus, target.s_minus

    def extend(p, atoms, start, left, plus, minus, acc, out):
        """Append to `out` the extensions of acc by `atoms` from `start` on
        whose p-part is done, as ((rest of |A_T|, plus, minus, blocks at 2),
        sorted acc)."""
        if left % p:
            key = local_keys.get((p, acc))
            if key is None:
                blocks = [b for i in acc for b in splittings[i].get(p, ())]
                key = local_keys[p, acc] = local_key(p, blocks)
            if key == want[p]:
                seq = tuple(sorted(acc))
                two = twos.get(seq)
                if two is None:
                    blocks = Counter(b for i in seq for b in splittings[i].get(2, ()))
                    two = twos[seq] = frozenset(blocks.items())
                out.append(((left, plus, minus, two), seq))
        for k in range(start, len(atoms)):
            i, d, sp, sm = atoms[k]
            if left % d == 0 and plus + sp <= want_plus and minus + sm <= want_minus:
                extend(p, atoms, k, left // d, plus + sp, minus + sm, acc + (i,), out)

    kept = {(target.form.order, 0, 0, None): ()}
    for p, atoms in pool.groups:
        out: list[tuple[tuple, tuple[int, ...]]] = []
        for (left, plus, minus, _), acc in kept.items():
            extend(p, atoms, 0, left, plus, minus, acc, out)
        kept = {}
        for state, seq in out:
            if state not in kept or (len(seq), seq) < (len(kept[state]), kept[state]):
                kept[state] = seq

    found = []
    for (_, plus, minus, _), acc in kept.items():
        x = want_plus - plus
        y8 = want_minus - minus - x
        if y8 >= 0 and y8 % 8 == 0:
            found.append(tuple(sorted(acc + (pool.u,) * x + (pool.e8,) * (y8 // 8))))
    if not found:
        return None
    counts = Counter(pool.terms[i] for i in min(found, key=lambda seq: (len(seq), seq)))
    return LatticeExpr(tuple((atom, tw, mult) for (atom, tw), mult in counts.items()))

