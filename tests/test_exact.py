import math
import random

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as smith_normal_form_sympy

import snf_oracle
from hklat import exact
from hklat.errors import PrimalityUnproved
from hklat.exact import (
    DegenerateForm,
    as_matrix,
    block_diag,
    det_exact,
    is_prime,
    prime_factors,
    signature_of_symmetric,
    smith_normal_form,
)
from hklat.lattices import realize
from hklat.tables import LATTICE_NAMES
from snf_oracle import mat_mul
from test_frozen_queries import FROZEN
from test_lattices import CATALOG_ATOMS

A2 = ((-2, 1), (1, -2))
U = ((0, 1), (1, 0))


def transpose(m):
    return tuple(zip(*m)) if m else ()


def is_unimodular(m):
    return det_exact(m) in (1, -1)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_is_prime_matches_sympy():
    # every n < 20,000; then seeded n < 10^24, the next prime after each, and
    # the least strong pseudoprimes to the prime bases up to 7, 23 and 37
    rng = random.Random(14)
    draws = [rng.randrange(10**24) for _ in range(2000)]
    ns = [*range(-2, 20000), *draws, *map(sympy.nextprime, draws[:300])]
    ns += [3215031751, 3825123056546413051, 318665857834031151167461, 2**61 - 1]
    assert [n for n in ns if is_prime(n) != sympy.isprime(n)] == []


def test_is_prime_proves_primes_above_the_miller_rabin_bound():
    # Mersenne primes above the bound get a Pocklington-Lehmer proof; seeded
    # odd composites above it, the bound itself (a strong pseudoprime to every
    # base of _MR_BASES) and products of two large primes exit at Miller-Rabin
    assert exact._MR_BOUND < 2**89 - 1
    assert [k for k in (89, 107, 127) if not is_prime(2**k - 1)] == []
    rng = random.Random(16)
    draws = [rng.randrange(exact._MR_BOUND, 10**40) | 1 for _ in range(400)]
    composites = [n for n in draws if not sympy.isprime(n)]
    composites += [exact._MR_BOUND, (2**61 - 1) * (2**89 - 1), (2**89 - 1) ** 2, 2**127 + 1]
    assert [n for n in composites if is_prime(n)] == []


def test_is_prime_names_a_number_it_cannot_prove(monkeypatch):
    # 2 has order 89 modulo 2^89 - 1, so it is a witness only for q = 89
    monkeypatch.setattr(exact, "_WITNESS_BASES", (2,))
    with pytest.raises(PrimalityUnproved, match=str(2**89 - 1)):
        is_prime(2**89 - 1)


def test_prime_factors_matches_sympy():
    # seeded m < 10^4 times a prime q < 10^18, and products of two primes
    # above 10^8 (times a prime power above 41): trial division up to the
    # square root would finish neither
    rng = random.Random(14)
    ns = [*range(1, 20000), 2 * (2**61 - 1), 1000000007 * 1000000009]
    ns += [rng.randrange(1, 10**4) * sympy.nextprime(rng.randrange(10**18)) for _ in range(200)]
    ns += [
        43**3 * sympy.nextprime(rng.randrange(10**8, 10**9)) * sympy.nextprime(rng.randrange(10**8, 10**9))
        for _ in range(10)
    ]
    assert [n for n in ns if list(prime_factors(n)) != sympy.primefactors(n)] == []


def test_snf_identity():
    u, d, v = snf_oracle.smith_normal_form(identity(2))
    assert d == identity(2)
    assert mat_mul(mat_mul(u, identity(2)), v) == d
    assert smith_normal_form(identity(2), 1) == ((1, 1), identity(2))


def test_snf_a2():
    # hand row-reduction: [[-2,1],[1,-2]] ~ [[1,-2],[-2,1]] ~ [[1,0],[0,-3]] ~ diag(1,3)
    u, d, v = snf_oracle.smith_normal_form(A2)
    assert d == ((1, 0), (0, 3))
    assert mat_mul(mat_mul(u, A2), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    assert smith_normal_form(A2, 3) == ((1, 3), v)


def test_snf_hyperbolic_plane():
    factors, _ = smith_normal_form(U, -1)
    assert factors == (1, 1)


def test_snf_rectangular():
    m = as_matrix([[2, 4, 4], [-6, 6, 12]])
    u, d, v = snf_oracle.smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(2)]
    assert diag == [2, 6] or diag[1] % diag[0] == 0


def test_det_examples():
    assert det_exact(((-4, 1), (1, -2))) == 7
    assert det_exact(((-2, 1, 0, 1), (1, -2, 0, 0), (0, 0, -2, 1), (1, 0, 1, -4))) == 17
    assert det_exact(((6,),)) == 6
    assert det_exact(()) == 1  # the empty lattice


def test_signature_examples():
    assert signature_of_symmetric(U) == (1, 1)
    assert signature_of_symmetric(((2, 1), (1, -2))) == (1, 1)  # H5
    assert signature_of_symmetric(()) == (0, 0)


def test_signature_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        signature_of_symmetric(((1, 1), (1, 1)))


def _random_unimodular(n, rng):
    m = [list(r) for r in identity(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return as_matrix(m)


def test_signature_congruence_invariant():
    rng = random.Random(7)
    grams = [A2, U, ((2, 1), (1, -2)), ((0, 1, 0), (1, 0, 0), (0, 0, -2))]
    for g in grams:
        n = len(g)
        for _ in range(5):
            p = _random_unimodular(n, rng)
            conj = mat_mul(mat_mul(transpose(p), g), p)
            assert signature_of_symmetric(conj) == signature_of_symmetric(g)
            assert det_exact(conj) == det_exact(g)


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_properties(rows):
    m = as_matrix(rows)
    u, d, v = snf_oracle.smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    n = len(m)
    diag = [d[i][i] for i in range(n)]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    prod = 1
    for x in diag:
        prod *= x
    assert prod == abs(det_exact(m))


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _signature_by_descartes(m):
    """Oracle: a real symmetric matrix has only real eigenvalues, so Descartes'
    rule counts the positive roots of its characteristic polynomial p(x)
    exactly, and those of p(-x) give the negative ones."""
    coeffs = sympy.Matrix(m).charpoly().all_coeffs()
    n = len(coeffs) - 1
    mirrored = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    return _sign_changes(coeffs), _sign_changes(mirrored)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of rank up to 6; some with zero diagonal
    (hyperbolic-type), some conjugated by a random unimodular matrix."""
    n = draw(st.integers(min_value=1, max_value=6))
    zero_diagonal = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                m[i][j] = m[j][i] = draw(st.integers(min_value=-6, max_value=6))
    m = as_matrix(m)
    if draw(st.booleans()):
        p = _random_unimodular(n, random.Random(draw(st.integers(0, 2**32))))
        m = mat_mul(mat_mul(transpose(p), m), p)
    return m


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_signature_agrees_with_descartes_count(m):
    assume(det_exact(m) != 0)
    assert signature_of_symmetric(m) == _signature_by_descartes(m)


@st.composite
def singular_matrices(draw):
    """Bᵀ·D·B with B of shape k x n, k < n (so of rank below n), conjugated by a
    random unimodular matrix, or a zero-diagonal even block such as U + (0)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=6))
        k = draw(st.integers(min_value=0, max_value=n - 1))
        b = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(k)]
        d = [draw(st.integers(-3, 3)) for _ in range(k)]
        m = as_matrix([
            [sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)
        ])
    else:
        hyperbolic = draw(st.integers(min_value=1, max_value=2))
        n = 2 * hyperbolic + draw(st.integers(min_value=1, max_value=2))
        m = as_matrix([
            [int(i // 2 == j // 2 and i != j and i < 2 * hyperbolic) for j in range(n)]
            for i in range(n)
        ])
    p = _random_unimodular(n, random.Random(draw(st.integers(0, 2**32))))
    return mat_mul(mat_mul(transpose(p), m), p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(singular_matrices(), symmetric_matrices()))
def test_signature_rejects_exactly_the_singular(m):
    if det_exact(m) == 0:
        with pytest.raises(DegenerateForm):
            signature_of_symmetric(m)
    else:
        assert sum(signature_of_symmetric(m)) == len(m)


def test_signature_rejects_hyperbolic_plus_zero():
    u_plus_zero = ((0, 1, 0), (1, 0, 0), (0, 0, 0))
    zero_first = ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    for m in (((0,),), u_plus_zero, zero_first):
        with pytest.raises(DegenerateForm):
            signature_of_symmetric(m)


# -- the Smith form modulo det² against the full scan and sympy --------------

def _assert_snf_matches_oracles(m):
    """Factors and V of m: those of the full-scan elimination modulo det²,
    a divisor chain whose product is |det| (sympy's invariant factors), and
    m·v_t = 0 mod g_t for every column v_t of the unimodular V."""
    det = det_exact(m)
    factors, v = smith_normal_form(m, det)
    _, d, v_full = snf_oracle.smith_normal_form(m, modulus=det * det)
    assert factors == tuple(math.gcd(d[t][t], det * det) for t in range(len(m)))
    assert v == v_full and is_unimodular(v)
    expected = smith_normal_form_sympy(sympy.Matrix(m), domain=sympy.ZZ)
    assert factors == tuple(abs(int(expected[t, t])) for t in range(len(m)))
    for t, g in enumerate(factors):
        assert all(sum(x * row[t] for x, row in zip(m_row, v)) % g == 0 for m_row in m)


nonsingular_square_matrices = small_matrices.map(as_matrix).filter(lambda m: det_exact(m) != 0)


@settings(max_examples=300, deadline=None)
@given(nonsingular_square_matrices)
def test_snf_transforms_match_full_scan_oracle(m):
    _assert_snf_matches_oracles(m)


def test_snf_transforms_match_oracle_on_catalog_and_table_lattices():
    # and every sum of several blocks among the frozen `invariants` queries,
    # whose whole Gram matrix `invariants` runs the Smith form on
    queried = {n for n in FROZEN["invariants"] if len(realize(n).blocks) > 1}
    assert len(queried) == 82
    names = set(CATALOG_ATOMS) | {n for pair in LATTICE_NAMES.values() for n in pair} | queried
    for name in sorted(names):
        _assert_snf_matches_oracles(realize(name).gram)


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices().filter(lambda m: det_exact(m) != 0))
# U^2 on another basis: eliminating modulo det² = 1 folded the pivot 4 to 0
@example(((4, -8, 11, 8), (-8, 16, -23, -17), (11, -23, 28, 19), (8, -17, 19, 12)))
def test_snf_factors_match_sympy_on_changed_basis(m):
    _assert_snf_matches_oracles(m)


def test_snf_of_a_changed_basis_rank_six_gram():
    # ran past 60 s under the exact elimination, whose entries grew unbounded
    m = (
        (25, -40, 3, 8, 13, 0), (-40, 397, 135, -92, -7, 29), (3, 135, 55, -30, 6, 12),
        (8, -92, -30, 22, 1, -9), (13, -7, 6, 1, -5, 1), (0, 29, 12, -9, 1, 5),
    )
    assert det_exact(m) == -5246
    assert smith_normal_form(m, -5246)[0] == (1, 1, 1, 1, 1, 5246)
    _assert_snf_matches_oracles(m)


def test_snf_folds_where_the_full_scan_folds():
    # An operation folds every entry it writes outside [-R, R], also one it
    # adds 0 to, while an entry no operation has written keeps its value and
    # may still become the pivot.  |det| = 1 gives R = 1, where every written
    # entry but 0 and ±1 folds to 0; the last matrix (R = 4) adds 0 times a
    # column to one whose entries outside [-4, 4] that addition folds.
    rng = random.Random(19)
    u_e8 = realize("U + E8").gram
    cases = [((2, 3), (3, 4)), ((4, 7), (5, 9)), ((2, 5, 1), (5, 12, 2), (1, 2, 1))]
    for _ in range(8):
        p = _random_unimodular(len(u_e8), rng)
        cases.append(mat_mul(mat_mul(transpose(p), u_e8), p))
    for m in cases:
        assert det_exact(m) in (1, -1) and max(abs(x) for row in m for x in row) > 1
        assert smith_normal_form(m, det_exact(m))[0] == (1,) * len(m)
        _assert_snf_matches_oracles(m)
    _assert_snf_matches_oracles(((-3, -8, 3), (7, -5, -3), (6, 4, -4)))


# -- block sums -------------------------------------------------------------------

@st.composite
def permuted_block_sums(draw):
    """(m, singular): a block-diagonal symmetric matrix under a random
    simultaneous permutation, with blocks U(k) (zero diagonal), <n> (1x1),
    random symmetric ones, and at most one singular block."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("U", "1x1", "dense")))
        if kind == "U":
            k = draw(st.integers(-3, 3).filter(bool))
            blocks.append(((0, k), (k, 0)))
        elif kind == "1x1":
            blocks.append(((draw(st.integers(-6, 6).filter(bool)),),))
        else:
            blocks.append(draw(symmetric_matrices().filter(lambda b: len(b) <= 3)))
    if draw(st.booleans()):
        singular = draw(singular_matrices().filter(lambda b: len(b) <= 4))
        blocks.insert(draw(st.integers(0, len(blocks))), singular)
    singular = any(sympy.Matrix(b).det() == 0 for b in blocks)
    m = block_diag(blocks)
    perm = draw(st.permutations(range(len(m))))
    return tuple(tuple(m[i][j] for j in perm) for i in perm), singular


@settings(max_examples=200, deadline=None)
@given(permuted_block_sums())
def test_components_det_and_signature_match_oracles(case):
    m, singular = case
    assert det_exact(m) == sympy.Matrix(m).det()
    if singular:
        with pytest.raises(DegenerateForm):
            signature_of_symmetric(m)
    else:
        assert signature_of_symmetric(m) == _signature_by_descartes(m)


@st.composite
def one_sided_matrices(draw):
    """Square matrices in which many pairs (i, j) have exactly one of m[i][j],
    m[j][i] zero."""
    n = draw(st.integers(2, 6))
    m = [[draw(st.integers(-4, 4)) if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            side = draw(st.sampled_from(("none", "upper", "lower", "both")))
            if side in ("upper", "both"):
                m[i][j] = draw(st.integers(-4, 4).filter(bool))
            if side in ("lower", "both"):
                m[j][i] = draw(st.integers(-4, 4).filter(bool))
    return as_matrix(m)


@settings(max_examples=200, deadline=None)
@given(one_sided_matrices())
def test_components_of_one_sided_patterns(m):
    assert det_exact(m) == sympy.Matrix(m).det()

