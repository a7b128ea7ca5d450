"""Exact integer matrix arithmetic.

Everything here works on plain Python integers (arbitrary precision); no
floating point and no fractions are used anywhere.  Matrices are immutable
tuples of tuples of ints.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from .errors import DegenerateForm, InvalidParameter, PrimalityUnproved

IntMatrix = tuple[tuple[int, ...], ...]


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n > 0, ascending.  The primes of
    `_MR_BASES` are divided out; a cofactor that `is_prime` does not confirm
    is split by `_rho_divisor` until every part is confirmed prime."""
    out = set()
    for p in _MR_BASES:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            parts += (d, m // d)
    return tuple(sorted(out))


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor up to 41:
    Pollard's rho on x -> x^2 + c with Brent's cycle search and gcds batched
    over 128 steps (Brent 1980), for c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


# Miller-Rabin to the prime bases up to 41 decides every n below the bound,
# the least strong pseudoprime to all of them (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESS_BASES = range(2, 1000)


def is_prime(n: int) -> bool:
    """Whether n is prime: Miller-Rabin to `_MR_BASES`, which decides every
    n below `_MR_BOUND`; a larger n that passes is proved prime by
    `_pocklington_lehmer`.  That proof factors n - 1, so an n - 1 with two
    large prime factors that Pollard's rho cannot split still runs long."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _pocklington_lehmer(n)


def _pocklington_lehmer(n: int) -> bool:
    """Primality of an odd n > 2 from the primes q of n - 1 (Brillhart,
    Lehmer and Selfridge 1975): n is prime iff each q has a witness b with
    b^(n-1) = 1 mod n and gcd(b^((n-1)/q) - 1, n) = 1.  Proof of "if": for
    a prime p | n, the order of b mod p divides n - 1 but not (n - 1)/q, so
    the q-part of n - 1 divides it and so p - 1; hence n - 1 | p - 1 and
    p = n.  A prime n has (n - 1)(1 - 1/q) witnesses for q, and a base
    with b^(n-1) != 1 proves n composite.  Raises PrimalityUnproved when no
    base of `_WITNESS_BASES` is a witness for some q."""
    for q in prime_factors(n - 1):
        for b in _WITNESS_BASES:
            if pow(b, n - 1, n) != 1:
                return False
            if math.gcd(pow(b, (n - 1) // q, n) - 1, n) == 1:
                break
        else:
            raise PrimalityUnproved(f"no Pocklington-Lehmer witness proves {n} prime")
    return True


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def as_int(x) -> int:
    """Validate one integer of outside input: an int, not a bool, float or str."""
    if type(x) is not int:
        raise InvalidParameter(f"not an integer: {x!r}")
    return x


def as_matrix(rows) -> IntMatrix:
    """Validate outside input as an IntMatrix: equal-length rows of ints (a
    bool, float or str entry raises rather than being truncated)."""
    try:
        out = tuple(map(tuple, rows))
    except TypeError as exc:
        raise InvalidParameter(f"not an integer matrix: {exc}") from exc
    bad = [x for x in itertools.chain.from_iterable(out) if type(x) is not int]
    if bad:
        raise InvalidParameter(f"not an integer matrix: entry {bad[0]!r}")
    if out and any(len(row) != len(out[0]) for row in out):
        raise InvalidParameter("ragged matrix")
    return out


def dims(m: IntMatrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def scale(m: IntMatrix, t: int) -> IntMatrix:
    return tuple(tuple(t * x for x in row) for row in m)


def block_diag(blocks) -> IntMatrix:
    """Block-diagonal assembly of square matrices."""
    sizes = [len(b) for b in blocks]
    n = sum(sizes)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return tuple(map(tuple, out))


def is_symmetric(m: IntMatrix) -> bool:
    r, c = dims(m)
    return r == c and all(m[i][j] == m[j][i] for i in range(r) for j in range(i))


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n, c = dims(m)
    if n != c:
        raise InvalidParameter("determinant of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _min_pivot(a, t):
    """Nonzero entry of the trailing block minimizing (|value|, i, j); None if
    all zero.  The scan is row-major, so the first +-1 met is taken on sight."""
    best, least = None, None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(a)):
            x = row[j]
            if x:
                if x == 1 or x == -1:
                    return i, j
                if best is None or abs(x) < least:
                    best, least = (i, j), abs(x)
    return best


def smith_normal_form(m: IntMatrix, det: int) -> tuple[tuple[int, ...], IntMatrix]:
    """Invariant factors of a nonsingular square m with |det m| = |det|, and
    a right transform, by elimination modulo R = det^2 (Cohen, GTM 138, §2.4).

    Returns (factors, V): factors g_1 | g_2 | ... | g_n with product |det|,
    and V unimodular with m·v_t = 0 mod g_t for each column v_t of V.  The
    pivot is the least (|value|, i, j) of the trailing block, a unit taken on
    sight; rows and columns are cleared by division with remainder, and a
    row holding an entry the pivot does not divide is added to the pivot
    row.  Each entry an addition writes is replaced by its centered residue
    mod R when it lies outside [-R, R], also where the addition adds 0; an
    entry no addition has written keeps its value.

    Why this is the Smith form of m.  Row operations U and column operations
    V keep U·m·V = A mod R for the working matrix A, the replacements too.
    R·Z^n lies in m·Z^n, since d·m^-1 = ±adj m is integral for d = |det|; so
    U·m·Z^n = A·Z^n + R·Z^n, i.e. each replacement is a column operation
    against R·I and SNF([m | R·I]) = SNF(m).  At the end A is diagonal and
    A·Z^n + R·Z^n is the sum of the g_t·Z for g_t = gcd(a_tt, R).  Once a_tt
    divides the trailing block, g_t divides every later entry (the later
    operations and residues mod R keep the block in g_t·Z), so the g_t form
    a divisor chain.  Column t gives U·m·v_t = a_tt·e_t mod R, so m·v_t = 0
    mod g_t.

    The trailing block.  At step t the operations on A are swaps and
    additions among rows >= t and among columns >= t.  Rows and columns
    s < t are finished: zero off the diagonal.  An addition among rows >= t
    adds multiples of zeros to zeros in the columns s < t, and one among
    columns >= t does so in the rows s < t; a swap exchanges zeros.
    So these entries stay 0, which is its own residue, and each operation is
    carried out on rows and columns >= t only.  V is kept as its transpose,
    row t holding column v_t, so a column addition on V adds one row to
    another and a column swap exchanges two rows.

    For |det| = 1 every entry is 0 modulo R = 1: there is no pivot, every
    factor is 1 and V is the identity.  (Eliminating anyway would replace a
    pivot outside [-1, 1] by its residue 0 and divide by it.)
    """
    n = len(m)
    r = det * det
    if r == 1:
        return (1,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    half = r // 2
    a = [list(row) for row in m]
    vt = [[0] * j + [1] + [0] * (n - 1 - j) for j in range(n)]  # vt[j]: column j of V

    def row_add(i, j, q):  # row_i += q * row_j, on columns >= t
        a[i][t:] = [
            x if -r <= (x := y + q * z) <= r else (x + half) % r - half
            for y, z in zip(a[i][t:], a[j][t:])
        ]

    def col_add(i, j, q):  # col_i += q * col_j, on rows >= t
        for row in a[t:]:
            x = row[i] + q * row[j]
            row[i] = x if -r <= x <= r else (x + half) % r - half
        vt[i] = [x + q * y for x, y in zip(vt[i], vt[j])]

    def col_swap(i, j):
        for row in a[t:]:
            row[i], row[j] = row[j], row[i]
        vt[i], vt[j] = vt[j], vt[i]

    for t in range(n):
        loc = _min_pivot(a, t)
        if loc is None:  # the trailing block is 0; its factors are gcd(0, R)
            break
        i, j = loc
        a[t], a[i] = a[i], a[t]
        if j != t:
            col_swap(t, j)
        # Clear row and column t; swaps keep shrinking the pivot until exact.
        while True:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            p = a[t][t]
            culprit = None if p in (1, -1) else next(
                (i for i in range(t + 1, n) if any(x % p for x in a[i][t + 1:])), None
            )
            if culprit is None:
                break
            row_add(t, culprit, 1)

    return tuple(math.gcd(a[t][t], r) for t in range(n)), tuple(zip(*vt))


def signature_of_symmetric(m: IntMatrix) -> tuple[int, int]:
    """Signature (s_plus, s_minus) of a nondegenerate symmetric integer matrix.

    Computed by fraction-free symmetric elimination.  The pivot p = a_00 is
    counted by its sign, and the trailing block becomes the Schur complement
    scaled by |p|, sign(p)·(p·a_ij - a_i0·a_0j), divided by its content; both
    scalings are positive, so the inertia is preserved.  When all remaining
    diagonal entries vanish (as happens for even lattices such as the
    hyperbolic plane) a row/column of an off-diagonal entry is added in first,
    which splits the 2x2 hyperbolic block exactly.

    Swaps, row/column additions and content divisions keep the rank of the
    remaining block, and a Schur step on a nonzero pivot lowers it by exactly
    one.  So a singular matrix reaches a block whose leading row is zero, and
    only a singular one does; that is where `DegenerateForm` is raised.
    """
    n, c = dims(m)
    if n != c or not is_symmetric(m):
        raise InvalidParameter("signature requires a symmetric square matrix")
    plus = minus = 0
    a = [list(row) for row in m]
    while a:
        if not any(a[0]):
            raise DegenerateForm("matrix is singular")
        if a[0][0] == 0:
            i = next((i for i in range(1, len(a)) if a[i][i] != 0), None)
            if i is not None:  # symmetric swap of indices 0 and i
                a[0], a[i] = a[i], a[0]
                for row in a:
                    row[0], row[i] = row[i], row[0]
            else:  # row_0 += row_j and col_0 += col_j
                j = next(j for j in range(1, len(a)) if a[0][j] != 0)
                a[0] = [x + y for x, y in zip(a[0], a[j])]
                for row in a:
                    row[0] += row[j]
        p = a[0][0]
        if p > 0:
            plus += 1
        else:
            minus += 1
        s = 1 if p > 0 else -1
        rest = [[s * (p * x - r[0] * y) for x, y in zip(r[1:], a[0][1:])] for r in a[1:]]
        g = math.gcd(*(x for row in rest for x in row))
        a = [[x // g for x in row] for row in rest] if g > 1 else rest
    return plus, minus
