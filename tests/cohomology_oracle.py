"""chi and h* of a fixed locus from the action on cohomology, for tests only.

`hklat.tables` states the Euler characteristic (`lefschetz_chi`) and the
total F_p Betti number (`h_star`) of the fixed locus of an order-p
automorphism of a K3^[2]-type fourfold X as closed forms in (p, m, a).
This module derives both again from the ranks of the Z_p[C_p]-modules in
H^2(X, Z), so the tests compare two routes.

* Ranks.  Over Z_p, H^2(X, Z) (rank 23) is a sum of l1 trivial, lz
  cyclotomic Z[zeta] and lr regular Z[C_p] summands (Reiner's three
  indecomposables; cited only), with l1 = 23 - (p-1)m - a, lz = m - a and
  lr = a (`module_ranks`).
* chi, by Lefschetz.  sigma* has trace 1, -1 and 0 on the three summands,
  so t = l1 - lz = 23 - pm on H^2.  sigma^2 generates the same group, so it
  has the same trace, and H^4 = Sym^2 H^2 has trace (t^2 + t)/2.  With H^0,
  H^8 of rank one and H^6 dual to H^2: chi = 2 + 2t + (t^2 + t)/2.
* h*, by Smith theory.  The F_p-Betti sum of the fixed locus counts the
  trivial and cyclotomic summands of H^*(X) (Boissiere-Nieper-Wisskirchen-
  Sarti, J. Topology 2013; cited only).  Each trivial and each cyclotomic
  summand counts 1, each regular one 0.  In H^4 = Sym^2 H^2 the Sym^2 of a
  trivial summand and the product of two trivial, of a trivial and a
  cyclotomic, or of two cyclotomic summands count 1; Sym^2 Z[zeta] and
  every product with Z[C_p] count 0.

Assumption at p = 5: H^4(X, Z) contains Sym^2 H^2 with finite index, and
the count over Sym^2 is the count over H^4(X, Z) only if p does not divide
that index.  The closed form `h_star` agrees with the count at every
supported prime, p = 5 included; the check does not decide whether 5
divides the index.

A K3 surface has H^2 of rank 22 and no H^4 term, so the same ranks with
23 replaced by 22 give chi = 24 - pm and h* = 24 - (p-2)m - 2a, the pair
behind `tables.natural_verdict`'s condition N2.

The rules are checked by brute force on explicit modules.  A Z[C_p]-module
here is Z^n with the matrix of sigma: `trivial` (1), `cyclotomic`
(multiplication by zeta on 1, zeta, ..., zeta^(p-2)) and `regular` (the
cyclic shift), with `direct_sum`, `tensor` (sigma (x) sigma) and `sym2`
(sigma on the monomials e_i e_j, i <= j).  On M/pM, sigma - 1 is
nilpotent, and Z, Z[zeta] and Z[C_p] reduce to one Jordan block of size 1,
p - 1 and p: F_p[x]/(x - 1), F_p[x]/(x - 1)^(p-1) and F_p[x]/(x - 1)^p.
So `summand_types` reads (l1, lz, lr) of M off the block sizes, which for
odd p tell the three types apart.
"""

from collections import Counter
from math import comb

def module_ranks(p, m, a, rank=23):
    """(l1, lz, lr): the trivial, cyclotomic and regular summands of a
    second cohomology of the given rank (23 for X, 22 for a K3 surface)."""
    return rank - (p - 1) * m - a, m - a, a


def h2_trace(p, m, a, rank=23):
    """The trace of sigma* on H^2: 1, -1 and 0 per trivial, cyclotomic and
    regular summand."""
    l1, lz, _ = module_ranks(p, m, a, rank)
    return l1 - lz


def h2_count(p, m, a, rank=23):
    """The Smith count of H^2: 1, 1 and 0 per trivial, cyclotomic and
    regular summand."""
    l1, lz, _ = module_ranks(p, m, a, rank)
    return l1 + lz


def sym2_count(p, m, a, sym2_cyclotomic=0):
    """The Smith count of Sym^2 H^2: Sym^2 Z and Z (x) Z (C(l1 + 1, 2)),
    Z (x) Z[zeta] (l1·lz) and Z[zeta] (x) Z[zeta] (C(lz, 2)) count 1, and
    Sym^2 Z[zeta] (lz) counts `sym2_cyclotomic`, 0 by Smith theory; the
    tests set 1 to show that the check is sharp."""
    l1, lz, _ = module_ranks(p, m, a)
    return sym2_count_of(l1, lz, sym2_cyclotomic)


def sym2_count_of(l1, lz, sym2_cyclotomic=0):
    """The Smith count of Sym^2 M for M with l1 trivial and lz cyclotomic
    summands (and any number of regular ones)."""
    return comb(l1 + 1, 2) + l1 * lz + comb(lz, 2) + lz * sym2_cyclotomic


def fourfold_chi(p, m, a):
    t = h2_trace(p, m, a)
    return 2 + 2 * t + (t * t + t) // 2


def fourfold_h_star(p, m, a, sym2_cyclotomic=0):
    return 2 + 2 * h2_count(p, m, a) + sym2_count(p, m, a, sym2_cyclotomic)


def k3_chi(p, m, a):
    return 2 + h2_trace(p, m, a, rank=22)


def k3_h_star(p, m, a):
    return 2 + h2_count(p, m, a, rank=22)


def triples(primes, rank=23):
    """Every (p, m, a) with p in `primes`, m >= 1, 0 <= a <= m and l1 >= 0."""
    return [
        (p, m, a)
        for p in primes
        for m in range(1, rank // (p - 1) + 1)
        for a in range(m + 1)
        if module_ranks(p, m, a, rank)[0] >= 0
    ]


# -- explicit modules ------------------------------------------------------------

def trivial(p):
    return [[1]]


def cyclotomic(p):
    """zeta on Z[zeta]: zeta^i -> zeta^(i+1), and zeta^(p-2) -> zeta^(p-1),
    minus the sum of the lower powers.  Column i is the image of zeta^i."""
    n = p - 1
    return [[-1 if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]


def regular(p):
    """The cyclic shift e_i -> e_(i+1 mod p) on Z[C_p]."""
    return [[int(i == (j + 1) % p) for j in range(p)] for i in range(p)]


def direct_sum(*sigmas):
    n = sum(map(len, sigmas))
    out = [[0] * n for _ in range(n)]
    off = 0
    for s in sigmas:
        for i, row in enumerate(s):
            out[off + i][off:off + len(s)] = row
        off += len(s)
    return out


def tensor(a, b):
    """sigma (x) sigma on e_i (x) f_k, indexed i·len(b) + k."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def sym2(a):
    """sigma on Sym^2 M, on the monomials e_i e_j with i <= j: the image of
    e_i e_j is (sigma e_i)(sigma e_j)."""
    n = len(a)
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pair: t for t, pair in enumerate(basis)}
    out = [[0] * len(basis) for _ in basis]
    for col, (i, j) in enumerate(basis):
        for k in range(n):
            for h in range(n):
                if a[k][i] and a[h][j]:
                    out[index[min(k, h), max(k, h)]][col] += a[k][i] * a[h][j]
    return out


def _rank_mod(m, p):
    rows = [[x % p for x in row] for row in m]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def jordan_sizes(sigma, p):
    """The sizes of the Jordan blocks of sigma - 1 on M/pM, as a Counter: of
    size at least k there are rank N^(k-1) - rank N^k, for N = sigma - 1."""
    n = len(sigma)
    nil = [[(x - (i == j)) % p for j, x in enumerate(row)] for i, row in enumerate(sigma)]
    ranks, power = [n], nil
    while ranks[-1]:
        ranks.append(_rank_mod(power, p))
        power = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*nil)] for row in power]
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    return Counter({k: at_least[k - 1] - at_least[k] for k in range(1, len(ranks))
                    if at_least[k - 1] > at_least[k]})


def summand_types(sigma, p):
    """(l1, lz, lr) of M, read off the block sizes 1, p - 1 and p; a block
    of any other size is no reduction of a Z_p[C_p]-lattice."""
    sizes = jordan_sizes(sigma, p)
    assert set(sizes) <= {1, p - 1, p}, sizes
    return sizes[1], sizes[p - 1], sizes[p]


def trace(sigma):
    return sum(row[i] for i, row in enumerate(sigma))
