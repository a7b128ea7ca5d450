"""Brute-force oracles and block builders for finite quadratic forms, for
tests only.

The oracles work on dense generator data that the tests own, a `Dense`
(orders, q, b) at the level N, as `hklat.lattices.jordan_blocks` reads
them off a Smith form: a random form is drawn as one, and a library form,
which holds only its Jordan blocks, is expanded into generators by
`dense`.  `Dense.form` checks the data and splits them with the library's
`jordan_blocks`, and `cyclic_form` and `u_block` build forms that way.
Each enumerating oracle serves small forms only; the library decides the
same questions from Jordan blocks.  `prime_part` builds the p-part as
data of its own, which the library reads in place, and
`delta_by_generators` reads delta off the generators rather than off the
2-adic blocks.  `forms_isomorphic` and `even_lattice_exists` are the
library's answers as booleans, for the tests that compare forms or ask for
existence only.
"""

import itertools
import math
from typing import NamedTuple

import sympy
from hypothesis import strategies as st

from hklat import lattices
from hklat.errors import InvalidParameter
from hklat.fqf import FiniteQuadraticForm, even_lattice_exists_report, normal_key
from snf_oracle import det_exact


class Dense(NamedTuple):
    """Generator data of a finite quadratic form: orders d_i, and at the
    level N = lcm(d_i) the values q[i] = q(g_i)·N mod 2N and
    b[i][j] = b(g_i, g_j)·N mod N.  Degenerate data are allowed."""

    orders: tuple
    q: tuple
    b: tuple

    @property
    def level(self):
        return math.lcm(*self.orders)

    @property
    def order(self):
        return math.prod(self.orders)

    def length(self):
        return len(self.orders)

    def form(self):
        """The library form of these data, split prime by prime of the level
        by `lattices.jordan_blocks`, read at call time so that a test can
        count its calls.  InvalidParameter when `check` rejects the data,
        DegenerateForm when they are degenerate."""
        self.check()
        return FiniteQuadraticForm({
            p: tuple(lattices.jordan_blocks(*self, p)) for p in sympy.primefactors(self.level)
        })

    def check(self):
        """Raise InvalidParameter unless these are generator data of a form:
        integers, orders > 1, q and b reduced, q(g)·d^2 in 2Z, b symmetric,
        b(g, g) = q(g) mod Z and b(g, h)·d in Z for g of order d."""
        orders, q, b = self
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


def trivial_form():
    """The form on the trivial group: no Jordan block."""
    return FiniteQuadraticForm({})


def cyclic_form(n, a):
    """Z/n with q(generator) = a/n mod 2Z for an integer a; b(g,g) = a/n mod Z.

    `Dense.check` rejects a non-integer a and an a with a·n odd, for which
    a/n is no value of an element of order n."""
    v = a % (2 * n)
    return Dense((n,), (v,), ((v % n,),)).form()


def random_dense(rng):
    """Valid dense data of a finite quadratic form on up to three small
    cyclic factors; b is drawn freely, so a good share of them are
    degenerate."""
    orders = [rng.choice((2, 3, 4, 5, 6, 8, 9, 12)) for _ in range(rng.randint(1, 3))]
    k = len(orders)
    n = math.lcm(*orders)
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = rng.randrange(g) * (n // g)
    q = []
    for i, d in enumerate(orders):
        v = (b[i][i] + rng.randrange(2) * n) % (2 * n)
        if d * d * v % (2 * n):  # odd order: q(g)·d^2 must lie in 2Z
            v = (v + n) % (2 * n)
        q.append(v)
    return Dense(tuple(orders), tuple(q), tuple(map(tuple, b)))


@st.composite
def dense_with_large_odd_parts(draw):
    """Valid dense data on up to three cyclic factors of order 2^k·m, k <= 3
    and m in {1, 3, 5, 7, 9, 15}, so that the odd part c_i of an even order
    reaches 15 (`random_dense` reaches 3); b is drawn freely, as there."""
    odd = st.sampled_from((1, 3, 5, 7, 9, 15))
    order = st.tuples(st.integers(0, 3), odd).map(lambda km: 2 ** km[0] * km[1])
    orders = draw(st.lists(order.filter(lambda d: d > 1), min_size=1, max_size=3))
    k = len(orders)
    n = math.lcm(*orders)
    b = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = draw(st.integers(0, g - 1)) * (n // g)
    q = []
    for i, d in enumerate(orders):
        v = (b[i][i] + draw(st.integers(0, 1)) * n) % (2 * n)
        if d * d * v % (2 * n):  # odd order: q(g)·d^2 must lie in 2Z
            v = (v + n) % (2 * n)
        q.append(v)
    return Dense(tuple(orders), tuple(q), tuple(map(tuple, b)))


def dense(form):
    """Generator data of a library form, one generator per cyclic Jordan
    block and two per u or v block, at the level N of its largest scale: a
    cyclic block (m, a) has q = a/m; a u block of scale m has q = 0 on both
    generators and b = 1/m between them, a v block q = 2/m and the same b.
    A `Dense` is returned as it is."""
    if isinstance(form, Dense):
        return form
    blocks = [block for blocks in form.split.values() for block in blocks]
    n = math.lcm(*(m for m, _ in blocks))
    orders, q, cross = [], [], []  # cross: index pairs with b = 1/m
    for m, a in blocks:
        s = n // m
        if a in ("u", "v"):
            value = 2 * s * (a == "v")
            cross.append((len(q), len(q) + 1, s))
            orders += [m, m]
            q += [value, value]
        else:
            orders.append(m)
            q.append(a * s % (2 * n))
    b = [[x % n if i == j else 0 for j in range(len(q))] for i, x in enumerate(q)]
    for i, j, s in cross:
        b[i][j] = b[j][i] = s
    return Dense(tuple(orders), tuple(q), tuple(map(tuple, b)))


def dense_sum(f, g):
    """The orthogonal sum of two dense data, on the generators of f followed
    by those of g, at the common level."""
    n = math.lcm(f.level, g.level)
    s, t = n // f.level, n // g.level
    pad_f, pad_g = (0,) * g.length(), (0,) * f.length()
    q = tuple(s * x for x in f.q) + tuple(t * x for x in g.q)
    b = tuple(tuple(s * x for x in row) + pad_f for row in f.b) + tuple(
        pad_g + tuple(t * x for x in row) for row in g.b
    )
    return Dense(f.orders + g.orders, q, b)


def dense_neg(f):
    """-q on the same generators."""
    n = f.level
    return Dense(
        f.orders, tuple(-x % (2 * n) for x in f.q), tuple(tuple(-x % n for x in row) for row in f.b)
    )


def value(form, coords):
    """q(x)·N mod 2N."""
    form = dense(form)
    total = 0
    for i, c in enumerate(coords):
        total += c * c * form.q[i]
        for j in range(i + 1, len(coords)):
            total += 2 * c * coords[j] * form.b[i][j]
    return total % (2 * form.level)


def pairing(form, x, y):
    """b(x, y)·N mod N."""
    form = dense(form)
    total = 0
    for i, ci in enumerate(x):
        for j, cj in enumerate(y):
            total += ci * cj * form.b[i][j]
    return total % form.level


def prime_part(form, p):
    """The restriction to the p-Sylow subgroup, as dense data of its own
    (cross terms with other primes vanish).  The p-part of g_i is c_i·g_i
    with c_i = d_i / p^k; its values, read at the level N, are multiples of
    N / N_p (N_p the p-part's level), and are stored divided by that."""
    form = dense(form)
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
    return Dense(orders, q, b)


def delta_by_generators(form):
    """0 if the 2-part takes only integer values mod 2Z, else 1, read on the
    form's generators; holds on a degenerate form too.

    The 2-part is generated by c_i·g_i, over the generators g_i of even
    order d_i, with c_i the odd part of d_i.  q(sum x_i c_i g_i) is integral
    for every choice of x iff every q(c_i g_i) and every 2 b(c_i g_i, c_j g_j)
    is, i.e. iff the level N divides c_i^2 q[i] and 2 c_i c_j b[i][j] for all
    such i and j."""
    form = dense(form)
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
    return Dense((n, n), (0, 0), ((0, 1), (1, 0))).form()


def v_block(n=2):
    """v-type block on (Z/n)^2, n a power of 2: q = 2/n on generators,
    b(x,y) = 1/n; for n = 2, q = 1 on all three nonzero elements
    (discriminant form of D4)."""
    return Dense((n, n), (2, 2), ((2 % n, 1), (1, 2 % n))).form()


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
    form = dense(form)
    return itertools.product(*(range(d) for d in form.orders))


def orthogonal_components(form):
    """Generator index blocks pairwise orthogonal for b (graph components)."""
    form = dense(form)
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
    form = dense(form)
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
    f1, f2 = dense(f1), dense(f2)
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
    d = det_exact(dense(part).b) % p
    return 1 if any(x * x % p == d for x in range(1, p)) else -1
