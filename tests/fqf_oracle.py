"""Brute-force oracles and block builders for finite quadratic forms, for
tests only.

Each enumerating oracle serves small forms only; the library decides the
same questions from Jordan blocks (`hklat.fqf.jordan_blocks`).
`prime_part` builds the p-part as a form of its own, which the library
reads in place, and `delta_by_generators` reads delta off the generators
rather than off the 2-adic blocks.  `forms_isomorphic` and
`even_lattice_exists` are the library's answers as booleans, for the tests
that compare forms or ask for existence only.
"""

import itertools
import math

from hklat.fqf import (
    FiniteQuadraticForm,
    cyclic_form,
    even_lattice_exists_report,
    normal_key,
    trivial_form,
)
from snf_oracle import det_exact


def value(form, coords):
    """q(x)·N mod 2N."""
    total = 0
    for i, c in enumerate(coords):
        total += c * c * form.q[i]
        for j in range(i + 1, len(coords)):
            total += 2 * c * coords[j] * form.b[i][j]
    return total % (2 * form.level)


def pairing(form, x, y):
    """b(x, y)·N mod N."""
    total = 0
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            total += ci * cj * form.b[i][j]
    return total % form.level


def prime_part(form, p):
    """The restriction to the p-Sylow subgroup, as a form of its own (cross
    terms with other primes vanish).  The p-part of g_i is c_i·g_i with
    c_i = d_i / p^k; its values, read at the level N, are multiples of
    N / N_p (N_p the p-part's level), and are stored divided by that."""
    n = form.level
    keep = []
    for i, d in enumerate(form.orders):
        pk = 1
        while d % (pk * p) == 0:
            pk *= p
        if pk > 1:
            keep.append((i, d // pk, pk))
    orders = tuple(pk for _, _, pk in keep)
    shrink = n // math.lcm(*orders)
    q = tuple(c * c * form.q[i] % (2 * n) // shrink for i, c, _ in keep)
    b = tuple(
        tuple(ci * cj * form.b[i][j] % n // shrink for j, cj, _ in keep) for i, ci, _ in keep
    )
    return FiniteQuadraticForm(orders, q, b)


def delta_by_generators(form):
    """0 if the 2-part takes only integer values mod 2Z, else 1, read on the
    form's generators; holds on a degenerate form too.

    The 2-part is generated by c_i·g_i, over the generators g_i of even
    order d_i, with c_i the odd part of d_i.  q(sum x_i c_i g_i) is integral
    for every choice of x iff every q(c_i g_i) and every 2 b(c_i g_i, c_j g_j)
    is, i.e. iff the level N divides c_i^2 q[i] and 2 c_i c_j b[i][j] for all
    such i and j."""
    n = form.level
    q, b = form.q, form.b
    # d & -d is the 2-power part of d, so d // (d & -d) is its odd part
    even = [(i, d // (d & -d)) for i, d in enumerate(form.orders) if not d & 1]
    integral = all(c * c * q[i] % n == 0 for i, c in even) and all(
        2 * ci * cj * b[i][j] % n == 0 for i, ci in even for j, cj in even
    )
    return 0 if integral else 1


def u_block(n=2):
    """Hyperbolic block on (Z/n)^2: q = 0 on generators, b(x,y) = 1/n."""
    return FiniteQuadraticForm((n, n), (0, 0), ((0, 1), (1, 0)))


def v_block():
    """(Z/2)^2 with q = 1 on all three nonzero elements (discriminant form of D4)."""
    return FiniteQuadraticForm((2, 2), (2, 2), ((0, 1), (1, 0)))


def two_elementary_form(a, delta, sigma):
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
                blocks = (
                    [cyclic_form(2, 1)] * n1
                    + [cyclic_form(2, 3)] * n2
                    + [u_block(2)] * (n_uv - j)
                    + [v_block()] * j
                )
                form = trivial_form()
                for block in blocks:
                    form = form.dsum(block)
                return form
    return None


def elements(form):
    """Every element of A, as coordinate tuples in the generators."""
    return itertools.product(*(range(d) for d in form.orders))


def orthogonal_components(form):
    """Generator index blocks pairwise orthogonal for b (graph components)."""
    k = form.length()
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            if form.b[i][j] != 0:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for g in sorted(groups.values())]


def _component_value_counts(form, idxs):
    """Values q(x)·N mod 2N over the subgroup spanned by the index block."""
    orders = [form.orders[i] for i in idxs]
    qn = [form.q[i] for i in idxs]
    bn = [[2 * form.b[i][j] for j in idxs] for i in idxs]
    mod = 2 * form.level
    counts = {}
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


def value_counts(form):
    """Multiset of values q(x)·N mod 2N over the whole group.

    Values add across b-orthogonal components, so each component is
    enumerated separately and the value distributions are convolved."""
    mod = 2 * form.level
    total = {0: 1}
    for idxs in orthogonal_components(form):
        part = _component_value_counts(form, idxs)
        merged = {}
        for v1, c1 in total.items():
            for v2, c2 in part.items():
                key = (v1 + v2) % mod
                merged[key] = merged.get(key, 0) + c1 * c2
        total = merged
    return total


def element_order(x, orders):
    o = 1
    for c, d in zip(x, orders):
        if c:
            o = math.lcm(o, d // math.gcd(c, d))
    return o


def spans(images, form):
    """Do the image vectors generate the whole group?"""
    zero = (0,) * form.length()
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in images:
            y = tuple((a + b) % d for a, b, d in zip(x, g, form.orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == form.order


def forms_isomorphic(f1, f2):
    """Isomorphism of two nondegenerate forms: equal normal keys."""
    return normal_key(f1) == normal_key(f2)


def even_lattice_exists(s_plus, s_minus, form):
    """Existence of an even lattice with this signature and form."""
    return even_lattice_exists_report(s_plus, s_minus, form)[0]


def brute_isomorphic(f1, f2):
    """Search for generator images in f2 with f1's orders, values and
    pairings that generate f2."""
    if f1.order != f2.order:
        return False
    if sorted(value_counts(f1).items()) != sorted(value_counts(f2).items()):
        return False
    by_order_value = {}
    for x in elements(f2):
        by_order_value.setdefault((element_order(x, f2.orders), value(f2, x)), []).append(x)

    def extend(i, images):
        if i == f1.length():
            return spans(images, f2)
        for cand in by_order_value.get((f1.orders[i], f1.q[i]), []):
            if all(pairing(f2, cand, images[j]) == f1.b[i][j] for j in range(i)):
                if extend(i + 1, images + [cand]):
                    return True
        return False

    return extend(0, [])


def odd_disc_class(part, p):
    """Square class (+1 or -1) of det of the scaled bilinear form of a
    p-elementary part, p odd: stored at level p, b is the scaled form itself."""
    d = det_exact(part.b) % p
    return 1 if any(x * x % p == d for x in range(1, p)) else -1
