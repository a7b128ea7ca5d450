"""Existence, uniqueness and embedding analysis for p-elementary lattices.

The ambient lattice throughout is L = U^3 + E8^2 + <-2>, of signature (3,20)
and discriminant form Z/2 (3/2).  A p-elementary lattice S (p odd) embedding
primitively in L has orthogonal complement T with signature (3-s+, 20-s-) and
discriminant form (-q_S) + Z/2 (3/2).  Existence of S and of T are both
answered by fqf.even_lattice_exists_report (Nikulin's Thm 1.10.1): embed_in_L
asks it for T, tables.enumerate_triples for S.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BudgetExceeded, InvalidParameter, NotPElementary
from .exact import is_prime
from .fqf import (
    FiniteQuadraticForm,
    cyclic_form,
    even_lattice_exists_report,
    forms_isomorphic,
    normal_key,
    trivial_form,
)
from .lattices import (
    AMBIENT_SIGNATURE,
    Lattice,
    LatticeExpr,
    atom_data,
    discriminant_form,
)


class LatticeInvariants(NamedTuple):
    """Genus data of an even lattice: signature plus discriminant form.

    ``p`` is the elementary prime when the discriminant group is (Z/p)^a,
    0 for the unimodular case, and None for mixed groups.
    """

    s_plus: int
    s_minus: int
    p: int | None
    a: int
    form: FiniteQuadraticForm

    @property
    def rank(self) -> int:
        return self.s_plus + self.s_minus


def invariants_of(lattice: Lattice) -> LatticeInvariants:
    """Signature and discriminant form of the lattice (by the atom route for
    a lattice `realize` built, see `lattices.discriminant_form`)."""
    return lattice_invariants(lattice.signature(), discriminant_form(lattice))


def lattice_invariants(
    signature: tuple[int, int], form: FiniteQuadraticForm
) -> LatticeInvariants:
    """The invariants of a lattice of this signature and discriminant form.

    a is max_p l(A_p), the number of invariant factors of A; the group is
    p-elementary when every generator of the form has order p, whatever the
    generators, since a sum of cyclic groups is (Z/p)^a iff each is Z/p."""
    orders = form.orders
    if not orders:
        p = 0
    elif all(d == orders[0] for d in orders) and is_prime(orders[0]):
        p = orders[0]
    else:
        p = None
    a = max(form.lengths_per_prime().values(), default=0)
    return LatticeInvariants(*signature, p, a, form)


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
        if k % 4 in (0, 1) and math.isqrt(k) ** 2 != k and bound % (k**exponent) == 0:
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
    orthogonal_expr: LatticeExpr | None
    exception_flag: bool
    t_unique_embedding: bool


def embed_in_L(s: LatticeInvariants, recognize_orthogonal: bool = False) -> EmbeddingReport:
    """Primitive-embedding analysis of S in L for odd p (or a = 0).

    The orthogonal complement T has signature (3 - s+, 20 - s-) and
    discriminant form (-q_S) + Z/2 (3/2).  The embedding is unique when
    s+ < 3, s- < 20 and a <= 21 - rank(S); outside that range the rank-one
    complement case is checked directly, and an indefinite T may still get a
    one-class-per-genus certificate instead (exception_flag).
    """
    if s.p is None or (s.p == 2 and s.a > 0):
        raise NotPElementary("embedding analysis requires odd p (or trivial group)")
    t_plus = AMBIENT_SIGNATURE[0] - s.s_plus
    t_minus = AMBIENT_SIGNATURE[1] - s.s_minus
    if t_plus < 0 or t_minus < 0:
        return EmbeddingReport(False, False, None, None, False, False)
    q_t = s.form.neg().dsum(cyclic_form(2, 3))
    embeds, _ = even_lattice_exists_report(t_plus, t_minus, q_t)
    if not embeds:
        return EmbeddingReport(False, False, None, None, False, False)
    t_inv = LatticeInvariants(t_plus, t_minus, None, s.a + 1, q_t)

    t_rank = t_plus + t_minus
    unique = s.s_plus < 3 and s.s_minus < 20 and s.a <= 21 - s.rank
    exception = False
    if not unique:
        if t_rank == 1:
            unique = _rank_one_orthogonal_group_surjects(q_t)
        elif t_plus > 0 and t_minus > 0:
            exception = genus_unique(t_rank, 2 * (s.p**s.a if s.p else 1))

    t_unique = s.rank >= s.a + 2 or (s.rank == 2 and s.a == 1 and s.p == 3)

    expr = None
    if recognize_orthogonal:
        expr = recognize(t_inv)
    return EmbeddingReport(True, unique, t_inv, expr, exception, t_unique)


def _rank_one_orthogonal_group_surjects(q_t: FiniteQuadraticForm) -> bool:
    """For a rank-one complement <2d>, O(T) = {+-1}; the embedding is unique iff
    every q-preserving unit of Z/2d is +-1."""
    n = q_t.order
    # q on the generator of <n>* / <n> is 1/n mod 2Z, and -1/n for <-n>
    if not any(forms_isomorphic(cyclic_form(n, sign), q_t) for sign in (1, -1)):
        return False
    for u in range(2, n - 1):
        if math.gcd(u, n) == 1 and (u * u - 1) % (2 * n) == 0:
            return False
    return True


# -- recognition --------------------------------------------------------------------

def _search_pool(target: LatticeInvariants) -> list[tuple[str, int]]:
    """Catalog terms (atom, twist) eligible for a recognition search, in
    canonical order."""
    odd_primes = sorted(
        p for p in target.form.lengths_per_prime() if p != 2
    )
    has_two_part = 2 in target.form.lengths_per_prime()
    pool: list[tuple[str, int]] = [("U", 1)]
    for p in odd_primes:
        pool.append(("U", p))
    for p in odd_primes:
        pool.append((f"A{p - 1}", 1))
    if 3 in odd_primes:
        pool.append(("E6", 1))
    pool.append(("E8", 1))
    for p in odd_primes:
        if p == 3:
            continue  # K3 = A2, already in the pool
        pool.append((f"K{p}" if p % 4 == 3 else f"H{p}", 1))
        if p % 4 == 3:
            pool.append((f"K{p}", -1))
    if 17 in odd_primes:
        pool.append(("L17", 1))
    if 3 in odd_primes:
        pool.append(("E6*", 3))
        pool.append(("A2", -1))
    if 5 in odd_primes:
        pool.append(("A4*", 5))
    if has_two_part:
        pool.append(("<-2>", 1))
        pool.append(("<2>", 1))
        for p in odd_primes:
            pool.append((f"<{2 * p}>", 1))
            pool.append((f"<{-2 * p}>", 1))
    if not odd_primes and not has_two_part:
        pool.append(("<2>", 1))
        pool.append(("<-2>", 1))
    return pool


def recognize(
    target: LatticeInvariants, budget: int = 9
) -> LatticeExpr | None:
    """Search catalog direct sums realizing the target invariants.

    Deterministic: fewest summands first, then lexicographic in the fixed pool
    order.  Matching is exact on rank, signature and |det|, then up to
    isomorphism of discriminant forms: equal normal keys, the target's
    computed once.  Returns None when the budget is exhausted.
    """
    if budget < 1:
        raise BudgetExceeded("budget must allow at least one summand")
    pool = [(term, atom_data(*term)) for term in _search_pool(target)]
    want_det = target.form.order
    want_sig = (target.s_plus, target.s_minus)
    want_rank = target.rank
    if want_rank == 0:
        return LatticeExpr(())

    want_key = normal_key(target.form)
    for count in range(1, budget + 1):
        for combo in _signature_combos(pool, count, want_rank, want_sig):
            if abs(math.prod(data.det for _, data in combo)) != want_det:
                continue
            form = trivial_form()
            for _, data in combo:
                form = form.dsum(data.form)
            if normal_key(form) == want_key:
                return _combo_to_expr(combo)
    return None


def _signature_combos(pool, count, want_rank, want_sig):
    """Multisets of `count` pool terms with the exact total rank and signature."""
    n = len(pool)
    ranks = [len(data.gram) for _, data in pool]
    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(ranks[i], suffix_min[i + 1] or ranks[i])
        suffix_max[i] = max(ranks[i], suffix_max[i + 1])

    def rec(start, left, rank_left, plus_left, minus_left, acc):
        if left == 0:
            if rank_left == 0 and plus_left == 0 and minus_left == 0:
                yield list(acc)
            return
        for i in range(start, n):
            r = ranks[i]
            if r + (left - 1) * suffix_min[i] > rank_left:
                continue
            if r + (left - 1) * suffix_max[i] < rank_left:
                continue
            sp, sm = pool[i][1].signature
            if sp > plus_left or sm > minus_left:
                continue
            acc.append(pool[i])
            yield from rec(i, left - 1, rank_left - r, plus_left - sp, minus_left - sm, acc)
            acc.pop()

    yield from rec(0, count, want_rank, want_sig[0], want_sig[1], [])


def _combo_to_expr(combo) -> LatticeExpr:
    counts: dict[tuple[str, int], int] = {}
    for term, _ in combo:
        counts[term] = counts.get(term, 0) + 1
    return LatticeExpr(tuple((atom, tw, mult) for (atom, tw), mult in counts.items()))
