"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d1 x ... x Z/dk and is described by the values q(g_i)
in Q/2Z on the generators together with the bilinear pairings b(g_i, g_j) in
Q/Z.  Values on arbitrary elements follow from

    q(sum c_i g_i) = sum c_i^2 q(g_i) + 2 sum_{i<j} c_i c_j b(g_i, g_j)  (mod 2Z)

Every value is stored as an integer at the level N = lcm(d1, ..., dk):
q(g_i)·N mod 2N and b(g_i, g_j)·N mod N, both integral because q(g_i) lies in
(1/d_i)Z.  All arithmetic is on integers.  The Gauss signature, the delta
invariant, the isomorphism class and the existence of an even lattice are
all read off one orthogonal splitting into Jordan blocks, found on the
form's own generators; nothing is enumerated over the group, and no form of
a p-part is built.  A form keeps its splitting and its normal key once
computed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateForm, InvalidParameter
from .exact import is_square, prime_factors


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z with associated bilinear form b: A x A -> Q/Z,
    scaled to the level N: q[i] = q(g_i)·N mod 2N, b[i][j] = b(g_i, g_j)·N mod N.

    Immutable; equality and hashing go by (orders, q, b).  The Jordan
    splitting is kept in `_split` on first use, or from birth for a sum or
    negation of split forms (see `jordan_splitting`), and the normal key in
    `_key` on first use (see `normal_key`); both are left out of equality,
    hashing and repr."""

    __slots__ = ("orders", "q", "b", "_split", "_key")

    def __init__(
        self,
        orders: tuple[int, ...],
        q: tuple[int, ...],
        b: tuple[tuple[int, ...], ...],
    ):
        k = len(orders)
        if len(q) != k or len(b) != k or any(len(r) != k for r in b):
            raise InvalidParameter("inconsistent generator data")
        entries = (*orders, *q, *(x for row in b for x in row))
        if not all(type(x) is int for x in entries):
            raise InvalidParameter("form data must be integers at the form's level")
        if any(d < 2 for d in orders):
            raise InvalidParameter("generator orders must be > 1")
        n = math.lcm(*orders)
        for i, d in enumerate(orders):
            if not 0 <= q[i] < 2 * n:
                raise InvalidParameter("q values must be reduced into [0, 2N)")
            if d * d * q[i] % (2 * n):
                raise InvalidParameter("q value incompatible with generator order")
            if (b[i][i] - q[i]) % n:
                raise InvalidParameter("b(g,g) must equal q(g) mod Z")
            for j in range(k):
                if b[i][j] != b[j][i]:
                    raise InvalidParameter("b must be symmetric")
                if not 0 <= b[i][j] < n:
                    raise InvalidParameter("b values must be reduced into [0, N)")
                if d * b[i][j] % n:
                    raise InvalidParameter("b value incompatible with generator order")
        self._fill(orders, q, b)

    @classmethod
    def _trusted(cls, orders, q, b, split=None) -> "FiniteQuadraticForm":
        """Wrap data already known valid, without the checks of __init__; for
        builders whose inputs are valid forms (dsum, neg) and for
        p_elementary_form.  `split`, when given, is a Jordan splitting of the
        form (see `jordan_splitting`)."""
        form = object.__new__(cls)
        form._fill(orders, q, b, split)
        return form

    def _fill(self, orders, q, b, split=None) -> None:
        if not orders:
            split = {}  # the trivial form has no p-parts
        for name, value in zip(self.__slots__, (orders, q, b, split, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FiniteQuadraticForm is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.orders, self.q, self.b) == (other.orders, other.q, other.b)

    def __hash__(self):
        return hash((self.orders, self.q, self.b))

    def __repr__(self):
        return f"FiniteQuadraticForm(orders={self.orders!r}, q={self.q!r}, b={self.b!r})"

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def level(self) -> int:
        """The exponent N of A, the scale of the stored values (1 when trivial)."""
        return math.lcm(*self.orders)

    def length(self) -> int:
        return len(self.orders)

    def lengths_per_prime(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.orders:
            for p in prime_factors(d):
                out[p] = out.get(p, 0) + 1
        return out

    # -- constructions -----------------------------------------------------

    def dsum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        """The orthogonal sum, on the generators of self followed by those of
        other.  When both operands carry a Jordan splitting, so does the sum:
        its p-part is the orthogonal sum of theirs, and blocks that are
        pairwise orthogonal in each summand stay so in the sum, where the
        two summands are orthogonal to each other.  So the blocks of the two
        splittings, put together prime by prime, are a Jordan splitting of
        the sum.  An operand without one (not yet split, or degenerate)
        leaves the sum without one."""
        n = math.lcm(self.level, other.level)
        s, t = n // self.level, n // other.level
        pad1, pad2 = (0,) * other.length(), (0,) * self.length()
        q = tuple(s * x for x in self.q) + tuple(t * x for x in other.q)
        b = tuple(tuple(s * x for x in row) + pad1 for row in self.b) + tuple(
            pad2 + tuple(t * x for x in row) for row in other.b
        )
        split = None
        if self._split is not None and other._split is not None:
            split = {
                p: self._split.get(p, ()) + other._split.get(p, ())
                for p in sorted(self._split.keys() | other._split.keys())
            }
        return FiniteQuadraticForm._trusted(self.orders + other.orders, q, b, split)

    def neg(self) -> "FiniteQuadraticForm":
        """The form -q on the same generators.  When q carries a Jordan
        splitting, -q carries its negation: the generators that split q
        split -q, since negating b keeps the blocks orthogonal to each other
        and their units prime to p.  On them a cyclic block (m, a), q = a/m,
        becomes (m, -a mod 2m), and an even rank-2 block keeps its type,
        which `jordan_blocks` reads off q·m mod 4 on the block's two
        generators, where 2 and -2 agree."""
        n = self.level
        q = tuple(-x % (2 * n) for x in self.q)
        b = tuple(tuple(-x % n for x in row) for row in self.b)
        split = None
        if self._split is not None:
            split = {
                p: tuple((m, a if a in _EVEN_DET else -a % (2 * m)) for m, a in blocks)
                for p, blocks in self._split.items()
            }
        return FiniteQuadraticForm._trusted(self.orders, q, b, split)


def _p_power(n: int, p: int) -> int:
    pk = 1
    while n % p == 0:
        n //= p
        pk *= p
    return pk


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# -- standard building blocks ------------------------------------------------

def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm((), (), ())


def cyclic_form(n: int, a: int) -> FiniteQuadraticForm:
    """Z/n with q(generator) = a/n mod 2Z for an integer a; b(g,g) = a/n mod Z.

    The form's __init__ rejects a non-integer a and an a with a·n odd, for
    which a/n is no value of an element of order n."""
    v = a % (2 * n)
    return FiniteQuadraticForm((n,), (v,), ((v % n,),))


def p_elementary_form(p: int, a: int, nonresidue: bool = False) -> FiniteQuadraticForm:
    """(Z/p)^a, diagonal at level p, with generator values 2/p, the last one
    2n/p for a nonresidue n if asked.

    For odd p the form is born split: its generators are pairwise orthogonal,
    each spanning a cyclic block (p, 2u), which is the splitting
    `jordan_blocks` finds.  For p = 2 the form is degenerate and carries
    none."""
    us = [1] * a
    if nonresidue and a:
        us[-1] = _least_nonresidue(p)
    q = tuple(2 * u for u in us)
    b = tuple(tuple(2 * u % p if i == j else 0 for j in range(a)) for i, u in enumerate(us))
    split = {p: tuple((p, v) for v in q)} if p != 2 else None
    return FiniteQuadraticForm._trusted((p,) * a, q, b, split)


def _least_nonresidue(p: int) -> int:
    return next(n for n in range(2, p) if legendre(n, p) == -1)


# -- invariants ----------------------------------------------------------------

def gauss_signature(form: FiniteQuadraticForm) -> int:
    """Signature s mod 8 of a nondegenerate form: the Gauss sum
    (1/sqrt|A|) sum_x exp(pi i q(x)) equals exp(2 pi i s/8).

    Exact: each p-part is split into orthogonal Jordan blocks, whose Gauss
    sums are known in closed form, and s is the sum of the block signatures.
    Raises DegenerateForm when b has a nontrivial radical."""
    return _signature(jordan_splitting(form))


def jordan_splitting(form: FiniteQuadraticForm) -> dict[int, tuple[tuple[int, int | str], ...]]:
    """The Jordan blocks of each p-part, by prime p of |A| in increasing
    order, each read in place on the form's generators by `jordan_blocks`;
    every invariant below is read off this one splitting, which is computed
    once per form and kept on it.

    A sum or negation of forms that carry a splitting is born with one (see
    `FiniteQuadraticForm.dsum` and `neg`), and `jordan_blocks` never runs on
    it.  That splitting may differ block by block from the one computed
    afresh, but both are Jordan splittings of the same form, and everything
    read off a splitting here is the same for every one: the normal key (see
    `normal_key`), the Gauss signature (the Gauss sum of an orthogonal sum
    is the product of its summands'), the delta invariant (see
    `delta_invariant`) and the existence test (see
    `even_lattice_exists_report`)."""
    if form._split is None:
        primes = sorted(form.lengths_per_prime())
        split = {p: tuple(jordan_blocks(form, p)) for p in primes}
        object.__setattr__(form, "_split", split)
    return form._split


def _signature(splitting) -> int:
    return sum(
        _block_signature(p, m, a) for p, blocks in splitting.items() for m, a in blocks
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


def jordan_blocks(form: FiniteQuadraticForm, p: int) -> list[tuple[int, int | str]]:
    """Orthogonal Jordan splitting of the p-part of the form, as a list of
    blocks.

    A block is (m, a), cyclic of order m = p^k with q = a/m on its generator
    (a = q·m mod 2m, prime to p), or, for p = 2 only, (m, "u") or (m, "v"):
    an even rank-2 block on (Z/m)^2, hyperbolic (u) or with q odd on every
    element of order m (v).

    The p-part is read in place: it is generated by c_i·g_i, over the
    generators g_i of order d_i divisible by p, with c_i = d_i / p^k the part
    of d_i prime to p; c_i·g_i has order p^k and values c_i^2·q[i] and
    c_i·c_j·b[i][j], still at the form's level N.  A p-group form is its own
    p-part, with every c_i = 1.

    At each step m is the largest order among the remaining generators and
    s = N/m; an entry is a unit when entry/s is prime to p.  A generator x of
    order m with b(x, x) a unit spans a cyclic block.  For odd p, two
    generators w, v of order m with b(w, v) a unit give such an x as w + v;
    for p = 2 they span an even rank-2 block, of v-type exactly when
    q(w)·m = q(v)·m = 2 mod 4.  If no order-m generator pairs to a unit with
    any other, (m/p)·w lies in the radical and DegenerateForm is raised.
    The other generators are projected off the block, y <- y - c·x, which
    keeps a basis (c·x has order dividing that of y) and updates q and b by
    congruence: q(y - cx) = q(y) - 2c·b(y, x) + c^2·q(x).
    """
    n = form.level
    keep = [(i, d // pk, pk) for i, d in enumerate(form.orders) if (pk := _p_power(d, p)) > 1]
    orders = [pk for _, _, pk in keep]
    q = [c * c * form.q[i] % (2 * n) for i, c, _ in keep]
    b = [[ci * cj * form.b[i][j] % n for j, cj, _ in keep] for i, ci, _ in keep]
    live = list(range(len(keep)))

    def shift(y, x, c):
        """Replace generator y by y - c·x."""
        bxy = b[x][y]
        q[y] = (q[y] - 2 * c * bxy + c * c * q[x]) % (2 * n)
        byy = (b[y][y] - 2 * c * bxy + c * c * b[x][x]) % n
        for z in live:
            b[y][z] = b[z][y] = (b[y][z] - c * b[x][z]) % n
        b[y][y] = byy

    blocks: list[tuple[int, int | str]] = []
    while live:
        m = max(orders[i] for i in live)
        s = n // m
        top = [i for i in live if orders[i] == m]
        w = next((i for i in top if b[i][i] // s % p), None)
        v = None
        if w is None:
            w = top[0]
            v = next((j for j in top if b[w][j] // s % p), None)
            if v is None:
                raise DegenerateForm("degenerate form has no Jordan splitting")
            if p != 2:
                shift(w, v, -1)  # b(w + v, w + v) = 2·b(w, v) + non-units
                v = None
        if v is None:
            blocks.append((m, q[w] // s))
            block, det, adj = (w,), b[w][w] // s, ((1,),)
        else:
            v_type = q[w] // s % 4 == 2 and q[v] // s % 4 == 2
            blocks.append((m, "v" if v_type else "u"))
            g11, g12, g22 = b[w][w] // s, b[w][v] // s, b[v][v] // s
            block, det, adj = (w, v), g11 * g22 - g12 * g12, ((g22, -g12), (-g12, g11))
        inv = pow(det, -1, m)
        rest = [y for y in live if y not in block]
        for y in rest:  # c = b(y, block)·G^-1 mod m, G the block's Gram over s
            t = [b[y][x] // s for x in block]
            if not any(t):
                continue  # y is already orthogonal to the block
            for x, row in zip(block, adj):
                c = inv * sum(r * ti for r, ti in zip(row, t)) % m
                if c:
                    shift(y, x, c)
        live = rest
    return blocks


def delta_invariant(form: FiniteQuadraticForm) -> int:
    """0 if the 2-part takes only integer values mod 2Z, else 1; read off the
    2-adic Jordan blocks.  Raises DegenerateForm on a degenerate form.

    δ = 1 iff some 2-adic block is cyclic or has scale m > 2: a cyclic block
    <a/m> has q = a/m with a odd, not an integer; an even block of scale m
    has q(w) and q(v) in (2/m)Z and 2·b(w, v) = 2u/m with u odd, all
    integers iff m = 2; and an orthogonal sum takes only integer values iff
    each summand does.
    """
    blocks = jordan_splitting(form).get(2, ())
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
    """A complete isomorphism invariant of a nondegenerate form, read off the
    Jordan blocks of each p-part: forms are isomorphic iff their keys are
    equal.  Raises DegenerateForm on a degenerate form.

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
        key = tuple((p, local_key(p, blocks)) for p, blocks in jordan_splitting(form).items())
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
    splitting = jordan_splitting(form)
    if _signature(splitting) != (s_plus - s_minus) % 8:
        return False, "E2"
    for p, blocks in splitting.items():
        if lengths[p] != rank:
            continue
        unit = (-1) ** s_minus * form.order // _p_power(form.order, p)
        disc = math.prod(_EVEN_DET.get(a, a) for _, a in blocks)
        if p != 2:
            if legendre(unit * disc, p) == -1:
                return False, f"E3:p={p}"
        elif unit * disc % 8 not in (1, 7) and not any(
            m == 2 and a not in _EVEN_DET for m, a in blocks
        ):
            return False, "E4"
    return True, None
