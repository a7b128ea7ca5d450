"""Brute-force oracles on finite quadratic forms, for tests only.

Each one enumerates the group, so it serves small forms only; the library
decides the same questions from Jordan blocks (`hklat.fqf.jordan_blocks`).
"""

import itertools
import math

from hklat.exact import det_exact


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


def brute_isomorphic(f1, f2):
    """Search for generator images in f2 with f1's orders, values and
    pairings that generate f2."""
    if f1.order != f2.order:
        return False
    if sorted(value_counts(f1).items()) != sorted(value_counts(f2).items()):
        return False
    by_order_value = {}
    for x in elements(f2):
        by_order_value.setdefault((element_order(x, f2.orders), f2.value(x)), []).append(x)

    def extend(i, images):
        if i == f1.length():
            return spans(images, f2)
        for cand in by_order_value.get((f1.orders[i], f1.q[i]), []):
            if all(f2.pairing(cand, images[j]) == f1.b[i][j] for j in range(i)):
                if extend(i + 1, images + [cand]):
                    return True
        return False

    return extend(0, [])


def odd_disc_class(part, p):
    """Square class (+1 or -1) of det of the scaled bilinear form of a
    p-elementary part, p odd: stored at level p, b is the scaled form itself."""
    d = det_exact(part.b) % p
    return 1 if any(x * x % p == d for x in range(1, p)) else -1
