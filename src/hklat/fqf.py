"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d1 x ... x Z/dk and is described by the values q(g_i)
in Q/2Z on the generators together with the bilinear pairings b(g_i, g_j) in
Q/Z.  Values on arbitrary elements follow from

    q(sum c_i g_i) = sum c_i^2 q(g_i) + 2 sum_{i<j} c_i c_j b(g_i, g_j)  (mod 2Z)

Every value is stored as an integer at the level N = lcm(d1, ..., dk):
q(g_i)·N mod 2N and b(g_i, g_j)·N mod N, both integral because q(g_i) lies in
(1/d_i)Z.  All arithmetic is on integers, the Gauss signature included: it is
read off an orthogonal splitting into Jordan blocks, not summed over the group.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DegenerateForm,
    GroupTooLarge,
    InvalidParameter,
    UnsupportedRegime,
)
from .exact import det_exact, signature_of_symmetric

THREE_HALF = Fraction(3, 2)

BRUTE_FORCE_CAP = 10_000
ENUM_CAP = 1_000_000


class FiniteQuadraticForm:
    """Quadratic form q: A -> Q/2Z with associated bilinear form b: A x A -> Q/Z,
    scaled to the level N: q[i] = q(g_i)·N mod 2N, b[i][j] = b(g_i, g_j)·N mod N.

    Immutable; equality and hashing go by (orders, q, b)."""

    __slots__ = ("orders", "q", "b")

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
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)

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

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (FiniteQuadraticForm, (self.orders, self.q, self.b))

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
            for p in _prime_factors(d):
                out[p] = out.get(p, 0) + 1
        return out

    def is_trivial(self) -> bool:
        return not self.orders

    # -- constructions -----------------------------------------------------

    def dsum(self, other: "FiniteQuadraticForm") -> "FiniteQuadraticForm":
        n = math.lcm(self.level, other.level)
        s, t = n // self.level, n // other.level
        pad1, pad2 = (0,) * other.length(), (0,) * self.length()
        q = tuple(s * x for x in self.q) + tuple(t * x for x in other.q)
        b = tuple(tuple(s * x for x in row) + pad1 for row in self.b) + tuple(
            pad2 + tuple(t * x for x in row) for row in other.b
        )
        return FiniteQuadraticForm(self.orders + other.orders, q, b)

    def neg(self) -> "FiniteQuadraticForm":
        n = self.level
        q = tuple(-x % (2 * n) for x in self.q)
        b = tuple(tuple(-x % n for x in row) for row in self.b)
        return FiniteQuadraticForm(self.orders, q, b)

    def prime_part(self, p: int) -> "FiniteQuadraticForm":
        """Restriction to the p-Sylow subgroup (cross terms with other primes vanish).

        The p-part of g_i is c_i·g_i with c_i = d_i / p^k; its values, read at
        the level N, are multiples of N / N_p (N_p the p-part's level)."""
        n = self.level
        keep = []
        for i, d in enumerate(self.orders):
            pk = _p_power(d, p)
            if pk > 1:
                keep.append((i, d // pk, pk))
        orders = tuple(pk for _, _, pk in keep)
        shrink = n // math.lcm(*orders)
        q = tuple(c * c * self.q[i] % (2 * n) // shrink for i, c, _ in keep)
        b = tuple(
            tuple(ci * cj * self.b[i][j] % n // shrink for j, cj, _ in keep)
            for i, ci, _ in keep
        )
        return FiniteQuadraticForm(orders, q, b)

    # -- evaluation ---------------------------------------------------------

    def value(self, coords) -> int:
        """q(x)·N mod 2N."""
        total = 0
        for i, c in enumerate(coords):
            total += c * c * self.q[i]
            for j in range(i + 1, len(coords)):
                total += 2 * c * coords[j] * self.b[i][j]
        return total % (2 * self.level)

    def pairing(self, x, y) -> int:
        """b(x, y)·N mod N."""
        total = 0
        for i, ci in enumerate(x):
            for j, cj in enumerate(y):
                total += ci * cj * self.b[i][j]
        return total % self.level

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def orthogonal_components(self) -> list[tuple[int, ...]]:
        """Generator index blocks pairwise orthogonal for b (graph components)."""
        k = self.length()
        parent = list(range(k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(k):
            for j in range(i + 1, k):
                if self.b[i][j] != 0:
                    parent[find(i)] = find(j)
        groups: dict[int, list[int]] = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        return [tuple(g) for g in sorted(groups.values())]

    def _component_value_counts(self, idxs) -> dict[int, int]:
        """Values q(x)·N mod 2N over the subgroup spanned by the index block."""
        size = math.prod(self.orders[i] for i in idxs)
        if size > ENUM_CAP:
            raise GroupTooLarge(f"group of order {size} too large to enumerate")
        orders = [self.orders[i] for i in idxs]
        qn = [self.q[i] for i in idxs]
        bn = [[2 * self.b[i][j] for j in idxs] for i in idxs]
        mod = 2 * self.level
        counts: dict[int, int] = {}
        coords = [0] * len(idxs)

        def rec(i, acc):
            # acc = q(prefix)·N mod 2N
            if i == len(orders):
                counts[acc] = counts.get(acc, 0) + 1
                return
            row = bn[i]
            for c in range(orders[i]):
                coords[i] = c
                cross = sum(c * coords[j] * row[j] for j in range(i))
                rec(i + 1, (acc + c * c * qn[i] + cross) % mod)

        rec(0, 0)
        return counts

    def value_counts(self) -> dict[int, int]:
        """Multiset of values q(x)·N mod 2N over the whole group.

        Values add across b-orthogonal components, so each component is
        enumerated separately and the value distributions are convolved; only
        a component itself may not exceed the enumeration cap.
        """
        mod = 2 * self.level
        total: dict[int, int] = {0: 1}
        for idxs in self.orthogonal_components():
            part = self._component_value_counts(idxs)
            merged: dict[int, int] = {}
            for v1, c1 in total.items():
                for v2, c2 in part.items():
                    key = (v1 + v2) % mod
                    merged[key] = merged.get(key, 0) + c1 * c2
            total = merged
        return total


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


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


def cyclic_form(n: int, value: Fraction) -> FiniteQuadraticForm:
    """Z/n with the rational q(generator) = value; b(g,g) = value mod Z."""
    scaled = Fraction(value) % 2 * n
    if scaled.denominator != 1:
        raise InvalidParameter(f"q value {value} is not in (1/{n})Z")
    v = scaled.numerator
    return FiniteQuadraticForm((n,), (v,), ((v % n,),))


def u_block(n: int = 2) -> FiniteQuadraticForm:
    """Hyperbolic block on (Z/n)^2: q = 0 on generators, b(x,y) = 1/n."""
    return FiniteQuadraticForm((n, n), (0, 0), ((0, 1), (1, 0)))


def v_block() -> FiniteQuadraticForm:
    """(Z/2)^2 with q = 1 on all three nonzero elements (discriminant form of D4)."""
    return FiniteQuadraticForm((2, 2), (2, 2), ((0, 1), (1, 0)))


def p_elementary_form(p: int, a: int, nonresidue: bool = False) -> FiniteQuadraticForm:
    """(Z/p)^a with generator values 2/p, the last one 2n/p for a nonresidue n if asked."""
    if a == 0:
        return trivial_form()
    us = [1] * a
    if nonresidue:
        us[-1] = _least_nonresidue(p)
    form = trivial_form()
    for u in us:
        form = form.dsum(cyclic_form(p, Fraction(2 * u, p)))
    return form


def _least_nonresidue(p: int) -> int:
    return next(n for n in range(2, p) if legendre(n, p) == -1)


def two_elementary_form(a: int, delta: int, sigma: int) -> FiniteQuadraticForm | None:
    """A 2-elementary form with the given (length, delta, signature mod 8), if any.

    Built from blocks <1/2>, <3/2>, u(2), v(2); the triple classifies such
    forms, so any block solution represents the isomorphism class.
    """
    sigma %= 8
    for n_uv in range(a // 2 + 1):
        rest = a - 2 * n_uv
        for n2 in range(rest + 1):
            n1 = rest - n2
            if delta == 1 and n1 + n2 == 0:
                continue
            if delta == 0 and n1 + n2 > 0:
                continue
            for j in range(n_uv + 1):
                if (n1 - n2 + 4 * j) % 8 != sigma:
                    continue
                form = trivial_form()
                for _ in range(n1):
                    form = form.dsum(cyclic_form(2, Fraction(1, 2)))
                for _ in range(n2):
                    form = form.dsum(cyclic_form(2, THREE_HALF))
                for _ in range(n_uv - j):
                    form = form.dsum(u_block(2))
                for _ in range(j):
                    form = form.dsum(v_block())
                return form
    return None


# -- invariants ----------------------------------------------------------------

def gauss_signature(form: FiniteQuadraticForm) -> int:
    """Signature s mod 8 of a nondegenerate form: the Gauss sum
    (1/sqrt|A|) sum_x exp(pi i q(x)) equals exp(2 pi i s/8).

    Exact: each p-part is split into orthogonal Jordan blocks, whose Gauss
    sums are known in closed form, and s is the sum of the block signatures.
    Raises DegenerateForm when b has a nontrivial radical."""
    return sum(
        _p_part_signature(form.prime_part(p), p) for p in form.lengths_per_prime()
    ) % 8


def _p_part_signature(part: FiniteQuadraticForm, p: int) -> int:
    """Signature mod 8 of a p-group form, by splitting off Jordan blocks.

    At each step m is the largest order among the remaining generators and
    s = N/m; an entry is a unit when entry/s is prime to p.  A generator x of
    order m with b(x, x) a unit spans a cyclic block <a/m>, a = q(x)·m.  For
    odd p, two generators w, v of order m with b(w, v) a unit give such an x
    as w + v; for p = 2 they span an even rank-2 block.  If no order-m
    generator pairs to a unit with any other, (m/p)·w lies in the radical.
    The other generators are projected off the block, y <- y - c·x, which
    keeps a basis (c·x has order dividing that of y) and updates q and b by
    congruence: q(y - cx) = q(y) - 2c·b(y, x) + c^2·q(x).
    """
    n = part.level
    orders = part.orders
    q = list(part.q)
    b = [list(row) for row in part.b]
    live = list(range(len(orders)))

    def shift(y, x, c):
        """Replace generator y by y - c·x."""
        bxy = b[x][y]
        q[y] = (q[y] - 2 * c * bxy + c * c * q[x]) % (2 * n)
        byy = (b[y][y] - 2 * c * bxy + c * c * b[x][x]) % n
        for z in live:
            b[y][z] = b[z][y] = (b[y][z] - c * b[x][z]) % n
        b[y][y] = byy

    total = 0
    while live:
        m = max(orders[i] for i in live)
        s = n // m
        odd_k = math.isqrt(m) ** 2 != m  # m = p^k with k odd
        top = [i for i in live if orders[i] == m]
        w = next((i for i in top if b[i][i] // s % p), None)
        v = None
        if w is None:
            w = top[0]
            v = next((j for j in top if b[w][j] // s % p), None)
            if v is None:
                raise DegenerateForm("degenerate form has no Gauss signature")
            if p != 2:
                shift(w, v, -1)  # b(w + v, w + v) = 2·b(w, v) + non-units
                v = None
        # Normalized Gauss sums of the blocks: <a/2^k> gives
        # exp(pi i a/4)·(2/a)^k; <a/p^k>, p odd, gives 1 for k even and
        # ε_p·((a/2)/p) for k odd, ε_p = 1 or i as p = 1 or 3 mod 4; an even
        # 2-adic block gives 1 if hyperbolic and (-1)^k if v-type.
        if v is None:
            a = q[w] // s
            if p == 2:
                total += a + 4 * (odd_k and a % 8 in (3, 5))
            elif odd_k:
                total += (0 if p % 4 == 1 else 2) + 4 * (legendre(a // 2, p) == -1)
            block, det, adj = (w,), b[w][w] // s, ((1,),)
        else:
            total += 4 * (odd_k and q[w] // s % 4 == 2 and q[v] // s % 4 == 2)
            g11, g12, g22 = b[w][w] // s, b[w][v] // s, b[v][v] // s
            block, det, adj = (w, v), g11 * g22 - g12 * g12, ((g22, -g12), (-g12, g11))
        inv = pow(det, -1, m)
        rest = [y for y in live if y not in block]
        for y in rest:  # c = b(y, block)·G^-1 mod m, G the block's Gram over s
            t = [b[y][x] // s for x in block]
            for x, row in zip(block, adj):
                c = inv * sum(r * ti for r, ti in zip(row, t)) % m
                if c:
                    shift(y, x, c)
        live = rest
    return total % 8


def delta_invariant(form: FiniteQuadraticForm) -> int:
    """0 if the 2-part takes only integer values mod 2Z, else 1.

    q(sum c_i g_i) is integral for every choice of c iff every q(g_i) and
    every 2 b(g_i, g_j) is, i.e. iff the level N_2 divides q[i] and 2 b[i][j].
    """
    part = form.prime_part(2)
    n = part.level
    integral = all(x % n == 0 for x in part.q) and all(
        2 * x % n == 0 for row in part.b for x in row
    )
    return 0 if integral else 1


def odd_disc_class(part: FiniteQuadraticForm, p: int) -> int:
    """Square class (Legendre symbol) of det of the scaled bilinear form of a
    p-elementary part (stored at level p, so b is the scaled form itself)."""
    return legendre(det_exact(part.b), p)


class FormInvariants(NamedTuple):
    """Genus-level fingerprint of a finite quadratic form."""

    order: int
    lengths_per_prime: dict[int, int]
    signature_mod_8: int
    delta: int
    odd_prime_disc_class: dict[int, int]


def form_invariants(form: FiniteQuadraticForm) -> FormInvariants:
    lengths = form.lengths_per_prime()
    disc = {}
    for p in sorted(lengths):
        if p == 2:
            continue
        part = form.prime_part(p)
        if all(d == p for d in part.orders):
            disc[p] = odd_disc_class(part, p)
    return FormInvariants(
        order=form.order,
        lengths_per_prime=lengths,
        signature_mod_8=gauss_signature(form),
        delta=delta_invariant(form),
        odd_prime_disc_class=disc,
    )


# -- isomorphism ---------------------------------------------------------------

def _group_type(form: FiniteQuadraticForm) -> tuple[tuple[int, int], ...]:
    """Multiset of prime powers in the group decomposition, as a sorted tuple."""
    out = []
    for d in form.orders:
        for p in _prime_factors(d):
            out.append((p, _p_power(d, p)))
    return tuple(sorted(out))


def _is_exponent(part: FiniteQuadraticForm, p: int) -> bool:
    return all(d == p for d in part.orders)


def forms_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Decide isomorphism of two nondegenerate finite quadratic forms.

    Fast paths: odd p-elementary parts compare by (length, discriminant square
    class); exponent-2 parts by (length, delta, signature mod 8).  Anything
    else falls back to a brute-force generator-matching search.
    """
    if _group_type(f1) != _group_type(f2):
        return False
    primes = sorted(set(f1.lengths_per_prime()) | set(f2.lengths_per_prime()))
    for p in primes:
        p1, p2 = f1.prime_part(p), f2.prime_part(p)
        if p != 2 and _is_exponent(p1, p) and _is_exponent(p2, p):
            if p1.length() != p2.length():
                return False
            if odd_disc_class(p1, p) != odd_disc_class(p2, p):
                return False
        elif p == 2 and _is_exponent(p1, 2) and _is_exponent(p2, 2):
            if p1.length() != p2.length():
                return False
            if delta_invariant(p1) != delta_invariant(p2):
                return False
            if gauss_signature(p1) != gauss_signature(p2):
                return False
        else:
            if not _brute_isomorphic(p1, p2):
                return False
    return True


def _brute_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    if f1.order != f2.order:
        return False
    if f1.order > BRUTE_FORCE_CAP:
        raise GroupTooLarge(f"brute-force isomorphism on group of order {f1.order}")
    if sorted(f1.value_counts().items()) != sorted(f2.value_counts().items()):
        return False
    elements = [tuple(x) for x in f2.elements()]
    by_order_value: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for x in elements:
        o = _element_order(x, f2.orders)
        by_order_value.setdefault((o, f2.value(x)), []).append(x)

    gens = list(range(f1.length()))

    def extend(idx, images):
        if idx == len(gens):
            return _spans(images, f2)
        i = gens[idx]
        want_order = f1.orders[i]
        want_q = f1.q[i]
        for cand in by_order_value.get((want_order, want_q), []):
            if all(
                f2.pairing(cand, images[j]) == f1.b[i][gens[j]]
                for j in range(idx)
            ):
                if extend(idx + 1, images + [cand]):
                    return True
        return False

    return extend(0, [])


def _element_order(x, orders) -> int:
    o = 1
    for c, d in zip(x, orders):
        if c:
            k = d // math.gcd(c, d)
            o = o * k // math.gcd(o, k)
    return o


def _spans(images, form: FiniteQuadraticForm) -> bool:
    """Do the image vectors generate the whole group?"""
    seen = {tuple([0] * form.length())}
    frontier = [tuple([0] * form.length())]
    while frontier:
        x = frontier.pop()
        for g in images:
            y = tuple((a + b) % d for a, b, d in zip(x, g, form.orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == form.order


# -- even lattice existence ------------------------------------------------------

E4_SEARCH_FACTOR = 2


def even_lattice_exists(s_plus: int, s_minus: int, form: FiniteQuadraticForm) -> bool:
    ok, _ = even_lattice_exists_report(s_plus, s_minus, form)
    return ok


def even_lattice_exists_report(
    s_plus: int, s_minus: int, form: FiniteQuadraticForm
) -> tuple[bool, str | None]:
    """Existence of an even lattice with signature (s_plus, s_minus) and this
    discriminant form, with the name of the failing condition when false.

    Conditions: (E1) signature bounds and length <= rank; (E2) the Gauss/Milgram
    signature; (E3) the p-adic determinant square-class test when an odd prime
    part has full length; (E4) a bounded witness search when the 2-part has
    full length (rank <= 2 only).
    """
    rank = s_plus + s_minus
    if s_plus < 0 or s_minus < 0:
        return False, "E1"
    lengths = form.lengths_per_prime()
    if rank == 0:
        return (form.is_trivial(), None if form.is_trivial() else "E1")
    if lengths and max(lengths.values()) > rank:
        return False, "E1"
    if gauss_signature(form) != (s_plus - s_minus) % 8:
        return False, "E2"
    if lengths.get(2, 0) == rank:
        if rank > 2:
            raise UnsupportedRegime("full-length 2-part with rank > 2")
        ok = _witness_search(s_plus, s_minus, form)
        return (ok, None if ok else "E4")
    for p in sorted(lengths):
        if p == 2 or lengths[p] != rank:
            continue
        part = form.prime_part(p)
        if not _is_exponent(part, p):
            raise UnsupportedRegime(f"full-length non-elementary {p}-part")
        unit = ((-1) ** s_minus * form.order) // p ** lengths[p]
        if legendre(unit, p) * odd_disc_class(part, p) != 1:
            return False, f"E3:p={p}"
    return True, None


def _witness_search(s_plus: int, s_minus: int, form: FiniteQuadraticForm) -> bool:
    """Exhaustive search over small even Gram matrices of rank 1 or 2."""
    from . import lattices  # local import; lattices depends on this module

    rank = s_plus + s_minus
    n = form.order
    bound = E4_SEARCH_FACTOR * n
    if rank == 1:
        candidates = (((2 * k,),) for k in range(-bound // 2, bound // 2 + 1) if k)
    else:
        diagonal = range(-bound, bound + 1, 2)
        candidates = (
            ((a, b), (b, c))
            for a, c, b in itertools.product(diagonal, diagonal, range(bound + 1))
        )
    for gram in candidates:
        d = det_exact(gram)
        if d == 0 or abs(d) != n:
            continue
        if signature_of_symmetric(gram) != (s_plus, s_minus):
            continue
        lat = lattices.Lattice(gram)
        if forms_isomorphic(lattices.discriminant_data(lat).form, form):
            return True
    return False
