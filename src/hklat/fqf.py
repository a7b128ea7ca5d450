"""Finite quadratic forms on finite abelian groups.

A form q: A -> Q/2Z, with bilinear form b: A x A -> Q/Z, is held as its
Jordan splitting and built from it alone: for each prime p of |A|, the
orthogonal Jordan blocks of the p-part (see `FiniteQuadraticForm`).  A
form given on generators, a lattice's Smith generators, is split in
`lattices`, the one module that makes such generators.  Sums, negations
and the p-elementary forms are built from blocks.  The order, the
lengths, the Gauss signature, the delta invariant, the isomorphism class
and the existence of an even lattice are all read off the blocks; nothing
is enumerated over the group.  A form keeps its normal key once
computed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact import is_square

# p -> the Jordan blocks of the p-part: (m, a) cyclic, or (m, "u"), (m, "v")
Splitting = dict[int, tuple[tuple[int, int | str], ...]]


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z with associated bilinear form b: A x A -> Q/Z,
    held as its Jordan splitting `split`: each prime p of |A|, ascending,
    maps to the Jordan blocks of the p-part, pairwise orthogonal.

    A block is (m, a), cyclic of order m = p^k with q = a/m on its generator
    (a = q·m mod 2m, prime to p), or, for p = 2 only, (m, "u") or (m, "v"):
    an even rank-2 block on (Z/m)^2, hyperbolic (u) or with q odd on every
    element of order m (v).

    `FiniteQuadraticForm(split)` is the one constructor.  It takes blocks
    that already are a Jordan splitting, as `dsum`, `neg`,
    `p_elementary_form` and the Smith data of `lattices` make them, and
    checks nothing.

    Immutable; equality and hashing go by the splitting, so two forms on
    different generators may be isomorphic (equal `normal_key`) and still
    unequal.  The normal key is kept in `_key` on first use, outside
    equality, hashing and repr."""

    __slots__ = ("split", "_key")

    def __init__(self, split: Splitting):
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteQuadraticForm is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.split == other.split

    def __hash__(self):
        return hash(tuple(self.split.items()))

    def __repr__(self):
        return f"<FiniteQuadraticForm split={self.split!r}>"

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        """|A|: a cyclic block of scale m has order m, a u or v block m^2."""
        return math.prod(map(_order, self.split.values()))

    def lengths_per_prime(self) -> dict[int, int]:
        """l(A_p) for each prime p of |A|: a cyclic block counts 1, a u or v
        block 2."""
        return {
            p: sum(2 if a in _EVEN_DET else 1 for _, a in blocks)
            for p, blocks in self.split.items()
        }

    # -- constructions -----------------------------------------------------

    def dsum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        """The orthogonal sum: prime by prime, the blocks of self followed by
        those of other.  The p-part of the sum is the orthogonal sum of the
        two p-parts, so blocks pairwise orthogonal in each summand stay so in
        the sum, where the summands are orthogonal to each other: together
        they are a Jordan splitting of the sum."""
        a, b = self.split, other.split
        return FiniteQuadraticForm(
            {p: a.get(p, ()) + b.get(p, ()) for p in sorted(a.keys() | b.keys())}
        )

    def neg(self) -> "FiniteQuadraticForm":
        """The form -q, block by block: the generators that split q split -q,
        since negating b keeps the blocks orthogonal to each other and their
        units prime to p.  On them a cyclic block (m, a), q = a/m, becomes
        (m, -a mod 2m), and an even rank-2 block keeps its type, read off
        q·m mod 4 on the block's two generators, where 2 and -2 agree."""
        return FiniteQuadraticForm({
            p: tuple((m, a if a in _EVEN_DET else -a % (2 * m)) for m, a in blocks)
            for p, blocks in self.split.items()
        })


def _order(blocks) -> int:
    """The order of the group these Jordan blocks span: m per cyclic block,
    m^2 per u or v block."""
    return math.prod(m * m if a in _EVEN_DET else m for m, a in blocks)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# -- standard building blocks ------------------------------------------------

def p_elementary_form(p: int, a: int, nonresidue: bool = False) -> FiniteQuadraticForm:
    """(Z/p)^a for an odd prime p, the orthogonal sum of a cyclic blocks
    (p, 2), that is q = 2/p on each generator, the last one (p, 2n) for a
    nonresidue n if asked."""
    units = [1] * a
    if nonresidue and a:
        units[-1] = _least_nonresidue(p)
    return FiniteQuadraticForm({p: tuple((p, 2 * u) for u in units)} if a else {})


def _least_nonresidue(p: int) -> int:
    return next(n for n in range(2, p) if legendre(n, p) == -1)


# -- invariants ----------------------------------------------------------------

def gauss_signature(form: FiniteQuadraticForm) -> int:
    """Signature s mod 8 of the form: the Gauss sum
    (1/sqrt|A|) sum_x exp(pi i q(x)) equals exp(2 pi i s/8).

    Exact: the Gauss sum of an orthogonal sum is the product of its
    summands', the Jordan blocks' sums are known in closed form, and s is
    the sum of the block signatures."""
    return sum(
        _block_signature(p, m, a) for p, blocks in form.split.items() for m, a in blocks
    ) % 8


def _block_signature(p: int, m: int, a: int | str) -> int:
    """Signature of one Jordan block, read off its normalized Gauss sum:
    <a/2^k> gives exp(pi i a/4)·(2/a)^k; <a/p^k>, p odd, gives 1 for k even
    and ε_p·((a/2)/p) for k odd, ε_p = 1 or i as p = 1 or 3 mod 4; an even
    2-adic block gives 1 if hyperbolic and (-1)^k if v-type."""
    odd_k = not is_square(m)  # m = p^k with k odd
    if a == "u":
        return 0
    if a == "v":
        return 4 * odd_k
    if p == 2:
        return a + 4 * (odd_k and a % 8 in (3, 5))
    if odd_k:
        return (0 if p % 4 == 1 else 2) + 4 * (legendre(a // 2, p) == -1)
    return 0


def delta_invariant(form: FiniteQuadraticForm) -> int:
    """0 if the 2-part takes only integer values mod 2Z, else 1; read off the
    2-adic Jordan blocks.

    δ = 1 iff some 2-adic block is cyclic or has scale m > 2: a cyclic block
    <a/m> has q = a/m with a odd, not an integer; an even block of scale m
    has q(w) and q(v) in (2/m)Z and 2·b(w, v) = 2u/m with u odd, all
    integers iff m = 2; and an orthogonal sum takes only integer values iff
    each summand does.
    """
    blocks = form.split.get(2, ())
    return int(any(m > 2 or a not in _EVEN_DET for m, a in blocks))


class FormInvariants(NamedTuple):
    """Genus-level fingerprint of a finite quadratic form."""

    signature_mod_8: int
    delta: int


def form_invariants(form: FiniteQuadraticForm) -> FormInvariants:
    """The Gauss signature and the delta invariant."""
    return FormInvariants(gauss_signature(form), delta_invariant(form))


# -- isomorphism ---------------------------------------------------------------

def normal_key(form: FiniteQuadraticForm) -> tuple:
    """A complete isomorphism invariant of a form, read off the Jordan blocks
    of each p-part: forms are isomorphic iff their keys are equal.

    The key holds, for each prime p of |A|, one local key; both local keys
    record the rank at every scale, so the group type is part of the key.

    Odd p: for each scale p^k, the rank and the Legendre symbol of the
    product of the block units.  A p-group form is the discriminant form of a
    p-adic lattice without unimodular part, and the classical theory of
    Jordan decompositions of Z_p-forms says these data classify it.

    p = 2: the set of Conway–Sloane canonical 2-adic symbols (SPLAG ch. 15
    §7) of K' + U and K' + V, where K' realizes the blocks: <a/2^k> as
    <2^k·a>, whose discriminant form <a^-1/2^k> is <a/2^k> rescaled by the
    unit a^-1, and a u or v block as 2^k·U or 2^k·V.  Why this is complete:
    an even 2-adic lattice L of rank l(A) + 2 with discriminant form q splits
    as M + K'', M even unimodular of rank 2 (U or V) and K'' of rank l(A)
    with discriminant form q.  By Nikulin (1979, Thm 1.9.1) K'' is K' or,
    when q has a cyclic block of order 2 (whose unit is known mod 4 only),
    possibly K' with that unit times 5; by Cor 1.9.3 L is fixed by q and
    det L.  As det(K' + V) = 5·det(K' + U) up to squares, the two lattices
    built here are all such L, whatever Jordan splitting of q they come from,
    so the set depends on q only up to isomorphism; conversely a lattice in
    both sets has a discriminant form isomorphic to both forms.

    The key is computed once per form and kept on it, in `_key`.
    """
    if form._key is None:
        key = tuple((p, local_key(p, blocks)) for p, blocks in form.split.items())
        object.__setattr__(form, "_key", key)
    return form._key


def local_key(p: int, blocks) -> tuple | frozenset:
    """The local key at p of a p-group form with these Jordan blocks, in any
    order: `_two_adic_key` for p = 2, else `_odd_key`.  Both are sums over
    the blocks, so the order does not matter."""
    return _two_adic_key(blocks) if p == 2 else _odd_key(blocks, p)


def _odd_key(blocks, p: int) -> tuple[tuple[int, int, int], ...]:
    scales: dict[int, tuple[int, int]] = {}
    for m, a in blocks:
        rank, unit = scales.get(m, (0, 1))
        scales[m] = (rank + 1, unit * a % p)
    return tuple(sorted((m, r, legendre(u, p)) for m, (r, u) in scales.items()))


_EVEN_DET = {"u": 7, "v": 3}  # det U = -1 and det V = 3, mod 8


def _two_adic_key(blocks) -> frozenset:
    """The symbols of K' + U and K' + V, K' built scale by scale as
    2-adic Jordan constituents (rank, det mod 8, odd, oddity)."""
    scales: dict[int, tuple[int, int, bool, int]] = {}
    for m, a in blocks:
        k = m.bit_length() - 1
        rank, det, odd, oddity = scales.get(k, (0, 1, False, 0))
        if a in _EVEN_DET:
            scales[k] = (rank + 2, det * _EVEN_DET[a] % 8, odd, oddity)
        else:
            scales[k] = (rank + 1, det * a % 8, True, (oddity + a) % 8)
    return frozenset(
        _canonical_2_adic_symbol({0: (2, det, False, 0), **scales}) for det in _EVEN_DET.values()
    )


def _canonical_2_adic_symbol(scales) -> tuple[tuple[int, int, int, bool, int], ...]:
    """Conway–Sloane canonical form of a 2-adic symbol given as scale
    exponent -> (rank, det mod 8, odd, oddity), as (k, rank, sign, odd,
    oddity) rows.  Signs are (2/det).  Oddity fusion: a compartment (a run of
    odd constituents at consecutive scales) keeps only its total oddity, on
    its first row.  Sign walking: within a train (a run in which each pair of
    neighbouring scales has an odd constituent, an absent scale counting as
    even) the sign of a row moves to the row before it at the cost of 4 on
    the oddity of each compartment of the two rows, until only the first row
    of each train may be negative."""
    rows = [
        [k, rank, 1 if det in (1, 7) else -1, odd, oddity]
        for k, (rank, det, odd, oddity) in sorted(scales.items())
    ]
    head: list[int | None] = []  # first row of each row's compartment
    for i, row in enumerate(rows):
        h = None
        if row[3]:
            prev = rows[i - 1] if i else None
            h = head[i - 1] if prev and prev[3] and prev[0] == row[0] - 1 else i
            if h != i:
                rows[h][4] = (rows[h][4] + row[4]) % 8
                row[4] = 0
        head.append(h)
    for i in range(len(rows) - 1, 0, -1):
        prev, row = rows[i - 1], rows[i]
        gap = row[0] - prev[0]
        same_train = (gap == 1 and (prev[3] or row[3])) or (gap == 2 and prev[3] and row[3])
        if same_train and row[2] == -1:
            row[2], prev[2] = 1, -prev[2]
            for h in {head[i - 1], head[i]} - {None}:
                rows[h][4] = (rows[h][4] + 4) % 8
    return tuple(map(tuple, rows))


# -- even lattice existence ------------------------------------------------------

def even_lattice_exists_report(
    s_plus: int, s_minus: int, form: FiniteQuadraticForm
) -> tuple[bool, str | None]:
    """Existence of an even lattice with signature (s_plus, s_minus) and this
    discriminant form, with the name of the failing condition when false.

    Nikulin (1979), Thm 1.10.1: such a lattice exists iff
    (E1) s_plus, s_minus >= 0 and every p-part has length l(A_p) <= rank;
    (E2) s_plus - s_minus is the Gauss signature mod 8;
    and, for each p with l(A_p) = rank, the unit u = (-1)^s_minus·|A| / |A_p|
    matches discr K(q_p), the determinant of the p-adic lattice of rank
    l(A_p) with discriminant form q_p, up to squares of p-adic units:
    (E3:p=<p>, p odd) u ≡ discr K(q_p);
    (E4, p = 2) u ≡ ±discr K(q_2), unless q_2 has a cyclic block of order 2.

    E2 and every discr K(q_p) are read off one Jordan splitting of q.  A
    cyclic block <a/m> is the discriminant form of <m·a^-1>, and
    a^-1 = a·(a^-1)^2 is a times a square, so the block contributes m·a; a u
    or v block is that of m·U or m·V and contributes m^2·det U = -m^2 or
    m^2·det V = 3m^2.  The m's multiply to |A_p|, the p-part of |A|, so only
    the units are compared.  A cyclic block of order 2 knows its a mod 4
    only, which leaves the square class of the 2-adic unit open (a and a + 4
    differ by 5, a non-square); there K(q_2) is not unique and the theorem
    drops the test.
    """
    rank = s_plus + s_minus
    lengths = form.lengths_per_prime()
    if s_plus < 0 or s_minus < 0 or max(lengths.values(), default=0) > rank:
        return False, "E1"
    if gauss_signature(form) != (s_plus - s_minus) % 8:
        return False, "E2"
    for p, blocks in form.split.items():
        if lengths[p] != rank:
            continue
        unit = (-1) ** s_minus * form.order // _order(blocks)
        disc = math.prod(_EVEN_DET.get(a, a) for _, a in blocks)
        if p != 2:
            if legendre(unit * disc, p) == -1:
                return False, f"E3:p={p}"
        elif unit * disc % 8 not in (1, 7) and not any(
            m == 2 and a not in _EVEN_DET for m, a in blocks
        ):
            return False, "E4"
    return True, None
