"""Independent routes to even-lattice existence, for tests only.

The library decides existence one way, by Nikulin's Theorem 1.10.1 on the
Jordan blocks of the discriminant form (`hklat.fqf.even_lattice_exists_report`).
These routes decide some of the same questions without it:

* closed conditions on (p, s+, s-, a) for p-elementary lattices, p odd;
* a search of reduced even binary definite forms;
* an enumeration of every even lattice of rank <= 2 and small |det|;
* an enumeration of every definite even lattice of rank 3 and small |det|.
"""

import itertools

from hklat.exact import is_prime
from fqf_oracle import trivial_form
from hklat.fqf import normal_key
from hklat.lattices import Lattice, discriminant_data


# -- closed conditions -------------------------------------------------------------

def hyperbolic_p_elementary_exists(p, r, a):
    """Existence of an even hyperbolic p-elementary lattice (p odd) of rank r,
    discriminant group (Z/p)^a (Rudakov–Shafarevich)."""
    assert p != 2 and is_prime(p)
    if r < 2 or a < 0 or a > r or r % 2:
        return False
    if a % 2 == 0:
        if r % 4 != 2:
            return False
    elif (p - (-1) ** (r // 2 - 1)) % 4 != 0:
        return False
    return r % 8 == 2 or r > a > 0


def split_off_U(s_plus, s_minus, a):
    """Whether a hyperbolic-plane summand splits off: rank >= 3 + length."""
    assert s_plus > 0 and s_minus > 0, "splitting requires an indefinite lattice"
    return s_plus + s_minus >= 3 + a


def p_elementary_exists(p, s_plus, s_minus, a):
    """Existence of an even p-elementary lattice (p odd) of signature
    (s_plus, s_minus) and length a, any signature.

    The rank r is even (the lattice is unimodular at 2) and a <= r; the
    signature is a(p - 1) mod 4 (each Gauss-sum factor <2u/p> gives 0 or 4
    for p = 1 mod 4 and 2 or 6 for p = 3 mod 4); and a = 0 or a = r (a
    unimodular lattice M, or M(p)) forces signature 0 mod 8.  For s_plus = 1
    these are `hyperbolic_p_elementary_exists`."""
    r = s_plus + s_minus
    sigma = s_plus - s_minus
    if s_plus < 0 or s_minus < 0 or r % 2 or not 0 <= a <= r:
        return False
    if (sigma - a * (p - 1)) % 4:
        return False
    return sigma % 8 == 0 or 0 < a < r


def definite_binary_exists(positive, p, a):
    """Search reduced even binary definite forms of |det| = p^a that are
    p-elementary of length a.

    Reduced positive forms [[2x, b], [b, 2z]] satisfy 0 <= b <= x <= z, so
    3x^2 <= 4xz - b^2 = p^a bounds the search exhaustively.
    """
    sign = 1 if positive else -1
    target = p**a
    x = 1
    while 3 * x * x <= target:
        for b in range(0, x + 1):
            num = target + b * b
            if num % (4 * x) == 0:
                z = num // (4 * x)
                if z >= x:
                    gram = ((sign * 2 * x, sign * b), (sign * b, sign * 2 * z))
                    factors = discriminant_data(Lattice(gram)).invariant_factors
                    if len(factors) == a and all(f == p for f in factors):
                        return True
        x += 1
    return False


def hyperbolic_route_exists(p, s_plus, s_minus, a):
    """The closed hyperbolic route for s_plus in {1, 2}: the conditions above
    at s_plus = 1; at s_plus = 2 the binary search when definite, the
    hyperbolic conditions on the complement of a split-off U when one splits
    off, and None (no answer) otherwise."""
    assert s_plus in (1, 2)
    rank = s_plus + s_minus
    if a < 0 or a > rank:
        return False
    if s_plus == 1:
        return s_minus > 0 and hyperbolic_p_elementary_exists(p, rank, a)
    if s_minus == 0:
        return a > 0 and definite_binary_exists(True, p, a)
    if split_off_U(s_plus, s_minus, a):
        return hyperbolic_p_elementary_exists(p, rank - 2, a)
    return None


# -- every lattice of rank <= 2 ------------------------------------------------------

def small_lattices(max_det):
    """{(s_plus, s_minus): {normal key: discriminant form}} over every even
    lattice of rank <= 2 with 0 < |det| <= max_det, up to isometry.

    Rank 1: <2k>.  Rank 2: let v be a primitive vector whose norm A is least
    in absolute value among the nonzero norms, extended to a basis (v, w)
    with |b(v, w)| <= |A|/2 (w -> ±w + kv).  Its Gram matrix
    [[A, B], [B, C]] has det d = AC - B^2 with C = 0 or |C| >= |A|.  If AC > 0,
    |d| >= A^2 - A^2/4; if AC < 0, |d| >= A^2; if C = 0 the lattice is U(B)
    (its nonzero norms are the multiples of 2B), so |A| = 2|B| = 2·sqrt|d|.
    Hence |A| <= 2·sqrt(max_det), and C = (d + B^2)/A is fixed by d.
    """
    found = {(0, 0): {normal_key(trivial_form()): trivial_form()}}

    def add(gram):
        lat = Lattice(gram)
        form = discriminant_data(lat).form
        found.setdefault(lat.signature(), {}).setdefault(normal_key(form), form)

    for k in range(1, max_det // 2 + 1):
        add(((2 * k,),))
        add(((-2 * k,),))
    bound = 2 * int(max_det**0.5)
    for big_a in range(-bound, bound + 1, 2):
        if not big_a:
            continue
        for b in range(abs(big_a) // 2 + 1):
            for d in range(-max_det, max_det + 1):
                c, rem = divmod(d + b * b, big_a)
                if d and not rem and c % 2 == 0 and (c == 0 or abs(c) >= abs(big_a)):
                    add(((big_a, b), (b, c)))
    return found


# -- every definite lattice of rank 3 ------------------------------------------------

def definite_ternary_lattices(max_det):
    """{(s_plus, s_minus): {normal key: discriminant form}} over every
    definite even lattice of rank 3 with |det| <= max_det, up to isometry,
    at the signatures (3, 0) and (0, 3).

    Every positive definite ternary form is equivalent to a Minkowski-reduced
    one, whose Gram matrix [a_ij] has |2a_ij| <= a_ii for i < j,
    a11 <= a22 <= a33 and a11·a22·a33 <= 2·det (Minkowski's inequality in
    rank 3); a negative definite lattice is a positive one negated.  So the
    Gram matrices with even diagonal under these bounds meet every class.
    Each form is the library's, split from the Smith data of its Gram
    matrix (`hklat.lattices.jordan_blocks`)."""
    found = {(3, 0): {}, (0, 3): {}}
    bound = 2 * max_det
    for a11 in range(2, bound + 1, 2):
        for a22 in range(a11, bound // a11 + 1, 2):
            for a33 in range(a22, bound // (a11 * a22) + 1, 2):
                h1, h2 = a11 // 2, a22 // 2
                for a12, a13, a23 in itertools.product(
                    range(-h1, h1 + 1), range(-h1, h1 + 1), range(-h2, h2 + 1)
                ):
                    det = (a11 * (a22 * a33 - a23 * a23) - a12 * (a12 * a33 - a23 * a13)
                           + a13 * (a12 * a23 - a22 * a13))
                    if a11 * a22 <= a12 * a12 or not 0 < det <= max_det:
                        continue  # not positive definite, or |det| too large
                    gram = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
                    for sign in (1, -1):
                        lat = Lattice(tuple(tuple(sign * x for x in row) for row in gram))
                        form = discriminant_data(lat).form
                        found[lat.signature()].setdefault(normal_key(form), form)
    return found
