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
"""

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
