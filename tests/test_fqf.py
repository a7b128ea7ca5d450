import cmath
import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqf_oracle
import hklat
import snf_oracle
from fqf_oracle import (
    brute_isomorphic,
    delta_by_generators,
    elements,
    even_lattice_exists,
    forms_isomorphic,
    odd_disc_class,
    pairing,
    prime_part,
    two_elementary_form,
    u_block,
    v_block,
    value,
    value_counts,
)
from hklat.fqf import (
    DegenerateForm,
    FiniteQuadraticForm,
    FormInvariants,
    _least_nonresidue,
    _odd_key,
    _two_adic_key,
    cyclic_form,
    delta_invariant,
    even_lattice_exists_report,
    form_invariants,
    gauss_signature,
    jordan_blocks,
    jordan_splitting,
    local_key,
    normal_key,
    p_elementary_form,
    trivial_form,
)
from hklat.lattices import Lattice, discriminant_form, realize
from hklat.tables import LATTICE_NAMES
from snf_oracle import det_exact, mat_mul
from test_frozen_queries import FROZEN
from test_lattices import CATALOG_ATOMS

F = Fraction


def _gauss_sum_direct(form):
    """Independent oracle: direct summation of exp(pi i q(x)) over all elements."""
    total = 0j
    for x in elements(form):
        total += cmath.exp(1j * math.pi * value(form, x) / form.level)
    return total / math.sqrt(form.order)


def test_gauss_trivial():
    assert gauss_signature(trivial_form()) == 0


def test_gauss_a2_form():
    q = cyclic_form(3, 4)
    # oracle: 1 + 2 exp(4 pi i / 3) = -i sqrt(3), i.e. angle -pi/2 -> signature 6
    direct = _gauss_sum_direct(q)
    assert abs(direct - cmath.exp(2j * math.pi * 6 / 8)) < 1e-12
    assert gauss_signature(q) == 6


def test_gauss_minus_two():
    q = cyclic_form(2, 3)
    direct = _gauss_sum_direct(q)
    assert abs(direct - cmath.exp(-1j * math.pi / 4)) < 1e-12
    assert gauss_signature(q) == 7


def test_gauss_additive():
    parts = [
        cyclic_form(3, 4),
        cyclic_form(2, 3),
        u_block(2),
        v_block(),
        cyclic_form(5, 2),
        discriminant_form(realize("E6")),
    ]
    for a in parts:
        for b in parts:
            assert gauss_signature(a.dsum(b)) == (gauss_signature(a) + gauss_signature(b)) % 8


def test_gauss_rejects_degenerate():
    degenerate = FiniteQuadraticForm((2,), (2,), ((0,),))  # q = 1, b = 0 at level 2
    with pytest.raises(DegenerateForm):
        gauss_signature(degenerate)
    with pytest.raises(hklat.errors.DegenerateForm):
        gauss_signature(degenerate)


def _radical_is_trivial_by_enumeration(form):
    """Oracle: scan every nonzero element for one orthogonal to all generators."""
    k = form.length()
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return not any(
        any(x) and all(pairing(form, x, e) == 0 for e in units)
        for x in elements(form)
    )


def _random_form(rng):
    """A valid finite quadratic form on up to three small cyclic factors; b is
    drawn freely, so a good share of the forms are degenerate."""
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
    return FiniteQuadraticForm(tuple(orders), tuple(q), tuple(map(tuple, b)))


def _radical_is_trivial_by_smith_form(form):
    """Oracle: with N the level, x = sum c_i g_i lies in the radical iff
    c·b = 0 mod N, so the map A -> Hom(A, Q/Z) has image of order
    [Z^k : rows of (b ; N I)] = N^k / (e_1 ... e_k), the e_i being the Smith
    invariants of that stacked matrix; b is nondegenerate iff the image is A."""
    k = form.length()
    n = form.level
    stacked = form.b + tuple(tuple(n if i == j else 0 for j in range(k)) for i in range(k))
    _, d, _ = snf_oracle.smith_normal_form(stacked)
    return n**k == form.order * math.prod(d[i][i] for i in range(k))


def _signature_or_none(form):
    """gauss_signature, or None where it rejects the form as degenerate."""
    try:
        return gauss_signature(form)
    except DegenerateForm:
        return None


def test_radical_check_agrees_with_enumeration():
    rng = random.Random(2024)
    degenerate = 0
    for _ in range(600):
        form = _random_form(rng)
        expected = _radical_is_trivial_by_enumeration(form)
        assert _radical_is_trivial_by_smith_form(form) == expected, form
        assert (_signature_or_none(form) is None) == (not expected), form
        degenerate += not expected
    assert 100 < degenerate < 500  # both outcomes are exercised


def _signature_by_gauss_sum(form):
    """Oracle: the eighth root of unity that the direct Gauss sum equals."""
    total = _gauss_sum_direct(form)
    s = round(cmath.phase(total) / (math.pi / 4)) % 8
    assert abs(total - cmath.exp(2j * math.pi * s / 8)) < 1e-9, (form, total)
    return s


def _assert_signature_matches_oracles(form):
    """The exact signature equals the direct Gauss sum's on nondegenerate forms,
    and DegenerateForm is raised exactly on the degenerate ones; returns
    whether the form is nondegenerate."""
    if _radical_is_trivial_by_enumeration(form):
        assert gauss_signature(form) == _signature_by_gauss_sum(form), form
        return True
    with pytest.raises(DegenerateForm):
        gauss_signature(form)
    return False


def test_gauss_signature_agrees_with_direct_sum_on_random_forms():
    rng = random.Random(2026)
    outcomes = [_assert_signature_matches_oracles(_random_form(rng)) for _ in range(2000)]
    assert 500 < sum(outcomes) < 1500  # both outcomes are exercised


def _all_cyclic_forms():
    """Every valid form on Z/p^k: odd p <= 13 with p^k <= 125, and 2^k <= 64."""
    orders = [p**k for p in (3, 5, 7, 11, 13) for k in range(1, 5) if p**k <= 125]
    orders += [2**k for k in range(1, 7)]
    for n in orders:
        for v in range(2 * n):
            if n * v % 2 == 0:  # q(g)·n^2 in 2Z
                yield FiniteQuadraticForm((n,), (v,), ((v % n,),))


def _all_rank_two_2_forms():
    """Every valid form on (Z/2^k)^2, k <= 3."""
    for n in (2, 4, 8):
        for q1 in range(2 * n):
            for q2 in range(2 * n):
                for b12 in range(n):
                    yield FiniteQuadraticForm((n, n), (q1, q2), ((q1 % n, b12), (b12, q2 % n)))


def test_gauss_signature_exhaustive_on_small_groups():
    cyclic = [_assert_signature_matches_oracles(f) for f in _all_cyclic_forms()]
    rank_two = [_assert_signature_matches_oracles(f) for f in _all_rank_two_2_forms()]
    assert len(cyclic) == 476 + 252 and len(rank_two) == 2336
    for outcomes in (cyclic, rank_two):
        assert any(outcomes) and not all(outcomes)


def test_gauss_signature_is_invariant_under_change_of_basis():
    from test_exact import _random_unimodular, transpose

    rng = random.Random(11)
    names = [
        "U(3)", "A2", "A4", "D4", "K7", "K19(-1)", "H13", "L17", "A4*(5)", "<-8>",
        "U(3) + <-2>", "<12> + A3", "U(4) + <6>", "U(2) + A2(-2)", "<-8> + <4> + <18>",
    ]
    table = [name for pair in LATTICE_NAMES.values() for name in pair]
    assert len(table) == 90  # S and T of each table row
    for name in names + table:
        gram = realize(name).gram
        expected = gauss_signature(discriminant_form(realize(name)))
        key = normal_key(discriminant_form(realize(name)))
        for _ in range(4):
            p = _random_unimodular(len(gram), rng)  # 4·rank elementary moves
            moved = Lattice(mat_mul(mat_mul(transpose(p), gram), p))
            form = discriminant_form(moved)
            assert gauss_signature(form) == expected, name
            assert normal_key(form) == key, name
            if form.order <= 500:
                assert _signature_by_gauss_sum(form) == expected, name


def _rebased(form, rng, moves=12):
    """The same form on another basis of A, reached by random moves
    g_i <- g_i + c·g_j with c·g_j of order dividing that of g_i."""
    k, orders = form.length(), form.orders
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(moves):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = orders[j] // math.gcd(orders[i], orders[j]) * rng.randrange(1, orders[j])
            basis[i] = [(x + c * y) % d for x, y, d in zip(basis[i], basis[j], orders)]
    q = tuple(value(form, x) for x in basis)
    b = tuple(tuple(pairing(form, x, y) for y in basis) for x in basis)
    return FiniteQuadraticForm(orders, q, b)


def test_gauss_signature_is_invariant_under_change_of_group_basis():
    # Sums of Jordan blocks of several scales, so that generators of one
    # order pair with those of another, and 2-adic rank-2 blocks of scale
    # >= 8 have further generators of their own order to be projected off.
    def v(n, a):
        return FiniteQuadraticForm((n, n), (a, a), ((a, 1), (1, a)))

    def c(n, a):
        return cyclic_form(n, a)

    bases = [
        u_block(8).dsum(u_block(8)),
        u_block(8).dsum(v(8, 2)),
        v(8, 2).dsum(v(8, 2)).dsum(c(2, 1)),
        v(8, 2).dsum(c(8, 3)).dsum(u_block(4)),
        c(8, 5).dsum(c(4, 1)).dsum(v(8, 2)),
        u_block(16).dsum(v(16, 4)),
        v(4, 2).dsum(c(16, 7)).dsum(c(2, 3)).dsum(u_block(2)),
        u_block(9).dsum(c(9, 4)).dsum(c(3, 2)),
        c(27, 2).dsum(c(27, 4)).dsum(c(9, 8)).dsum(c(3, 4)),
        c(25, 2).dsum(u_block(5)).dsum(c(8, 3)).dsum(c(4, 1)),
    ]
    rng = random.Random(3)
    for base in bases:
        expected = _signature_by_gauss_sum(base)
        for _ in range(10):
            assert gauss_signature(_rebased(base, rng)) == expected, base


def test_gauss_signature_enumerates_nothing(monkeypatch):
    forms = [discriminant_form(realize(n)) for n in ("E8(101)", "<1000002>", "A10(11)", "U(8) + D5")]
    rng = random.Random(5)
    forms += [_random_form(rng) for _ in range(50)]
    expected = [_signature_or_none(f) for f in forms]

    def forbidden(*args, **kwargs):
        raise AssertionError("gauss_signature must not call this")

    for name in ("elements", "value_counts", "brute_isomorphic"):
        monkeypatch.setattr(fqf_oracle, name, forbidden)
    for module in (hklat.exact, hklat.fqf):
        monkeypatch.setattr(module, "smith_normal_form", forbidden, raising=False)
    assert [_signature_or_none(f) for f in forms] == expected


def test_delta_invariant():
    assert delta_invariant(discriminant_form(realize("U(2)"))) == 0
    assert delta_invariant(cyclic_form(2, 3)) == 1
    assert delta_invariant(trivial_form()) == 0
    assert delta_invariant(v_block()) == 0
    assert delta_invariant(discriminant_form(realize("<6>"))) == 1
    assert delta_invariant(u_block(4)) == 1  # q(e + f) = 2·b(e, f) = 1/2
    assert delta_invariant(cyclic_form(9, 2)) == 0  # no 2-part
    with pytest.raises(DegenerateForm):
        delta_invariant(FiniteQuadraticForm((2,), (2,), ((0,),)))


def _delta_by_value_scan(form):
    """Oracle: 0 iff every value of the 2-part is an integer mod 2Z."""
    part = prime_part(form, 2)
    return 0 if all(v % part.level == 0 for v in value_counts(part)) else 1


def _delta_or_none(form, nondegenerate):
    """delta_invariant, checked against the value scan and the generator
    formula on a nondegenerate form; on a degenerate one it raises
    DegenerateForm, and None is returned.  The two oracles agree on every
    form."""
    expected = _delta_by_value_scan(form)
    assert delta_by_generators(form) == expected, form
    if not nondegenerate:
        with pytest.raises(DegenerateForm):
            delta_invariant(form)
        return None
    assert delta_invariant(form) == expected, form
    return expected


def test_delta_invariant_agrees_with_value_scan():
    rng = random.Random(2025)
    seen = set()
    for _ in range(1500):
        form = _random_form(rng)
        seen.add(_delta_or_none(form, _radical_is_trivial_by_enumeration(form)))
    assert seen == {0, 1, None}


@st.composite
def _forms_with_large_odd_parts(draw):
    """A valid form on up to three cyclic factors of order 2^k·m, k <= 3 and
    m in {1, 3, 5, 7, 9, 15}, so that the odd part c_i of an even order
    reaches 15 (`_random_form` reaches 3); b is drawn freely, as there."""
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
    return FiniteQuadraticForm(tuple(orders), tuple(q), tuple(map(tuple, b)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_forms_with_large_odd_parts())
def test_delta_invariant_agrees_with_value_scan_on_large_odd_parts(form):
    # the 2-part is generated by c_i·g_i, with c_i up to 15
    _delta_or_none(form, _radical_is_trivial_by_smith_form(form))


def _assert_split_in_place(form, p):
    """jordan_blocks reads the p-part in place on the form's generators; the
    oracle route builds it as a form of its own first.  Both give the same
    blocks in the same order, or both raise DegenerateForm; returns whether
    the p-part split."""
    try:
        expected = jordan_blocks(prime_part(form, p), p)
    except DegenerateForm:
        with pytest.raises(DegenerateForm):
            jordan_blocks(form, p)
        return False
    assert jordan_blocks(form, p) == expected, (form, p)
    return True


def test_jordan_blocks_read_each_prime_part_in_place():
    rng = random.Random(2027)
    outcomes = []
    for _ in range(1500):
        form = _random_form(rng)
        primes = form.lengths_per_prime()
        outcomes += [(len(primes) > 1, _assert_split_in_place(form, p)) for p in primes]
    # split and degenerate p-parts, of forms with one prime and with several
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_forms_with_large_odd_parts())
def test_jordan_blocks_read_each_prime_part_in_place_on_large_odd_parts(form):
    for p in form.lengths_per_prime():
        _assert_split_in_place(form, p)


def test_form_data_are_integers_at_the_level():
    forms = [
        discriminant_form(realize(name)) for name in ("A2", "U(3) + <-2>", "D4", "E6*(3)", "<12>")
    ] + [u_block(4), v_block(), p_elementary_form(5, 3, True), cyclic_form(8, 3)]
    for form in forms:
        assert form.level == math.lcm(*form.orders)
        assert all(type(x) is int for x in form.q)
        assert all(type(x) is int for row in form.b for x in row)
    assert cyclic_form(8, 3).q == (3,) and cyclic_form(3, -2).q == (4,)
    assert u_block(4).dsum(cyclic_form(2, 1)).q == (0, 0, 2)  # 1/2 at level 4


def test_form_rejects_rational_entries():
    with pytest.raises(hklat.errors.InvalidParameter):
        FiniteQuadraticForm((2,), (F(3, 2),), ((F(1, 2),),))
    with pytest.raises(hklat.errors.InvalidParameter):
        FiniteQuadraticForm((3,), (4,), ((2,),))  # b(g,g) != q(g) mod Z


@pytest.mark.parametrize(
    "orders, q, b, message",
    [
        ((3,), (2, 0), ((2,),), "inconsistent generator data"),
        ((1,), (0,), ((0,),), "generator orders must be > 1"),
        ((3,), (6,), ((0,),), "q values must be reduced into [0, 2N)"),
        ((3, 3), (2, 2), ((2, 1), (2, 2)), "b must be symmetric"),
        ((3,), (2,), ((5,),), "b values must be reduced into [0, N)"),
        ((2, 4), (0, 2), ((0, 1), (1, 2)), "b value incompatible with generator order"),
    ],
)
def test_form_rejects_invalid_generator_data(orders, q, b, message):
    with pytest.raises(hklat.errors.InvalidParameter) as exc:
        FiniteQuadraticForm(orders, q, b)
    assert str(exc.value) == message


def test_cyclic_form_takes_an_integer_numerator_matching_the_order():
    assert cyclic_form(2, 3) == FiniteQuadraticForm((2,), (3,), ((1,),))
    assert cyclic_form(6, -1) == cyclic_form(6, 11)
    for numerator in (F(3, 2), F(3), 3.0):
        with pytest.raises(hklat.errors.InvalidParameter):
            cyclic_form(2, numerator)
    with pytest.raises(hklat.errors.InvalidParameter):
        cyclic_form(3, 1)  # q(3g) = 9/3 = 3 would not be 0 mod 2Z


def test_milgram_catalog_sweep():
    names = [
        "U", "U(2)", "U(3)", "U(5)", "U(7)", "U(11)",
        "A1", "A2", "A3", "A4", "A6", "A8", "A10",
        "D4", "D5", "D6", "D8",
        "E6", "E7", "E8", "E8(2)",
        "K7", "K11", "K19", "H5", "H13", "H17", "L17",
        "E6*(3)", "A4*(5)",
        "<2>", "<-2>", "<4>", "<6>", "<-6>", "<-8>",
        "A2(-1)", "A2(2)", "K19(-1)", "D4(3)",
        "E8(7)", "A10(5)", "E8(101)", "<1000002>", "A10(11)",
    ]
    for name in names:
        lat = realize(name)
        s_plus, s_minus = lat.signature()
        form = discriminant_form(lat)
        assert gauss_signature(form) == (s_plus - s_minus) % 8, name


def test_forms_isomorphic_same_construction():
    a = discriminant_form(realize("A2 + A2"))
    b = cyclic_form(3, 4).dsum(cyclic_form(3, 4))
    assert forms_isomorphic(a, b)


def test_forms_isomorphic_u3():
    a = discriminant_form(realize("U(3)"))
    b = cyclic_form(3, 2).dsum(cyclic_form(3, 4))
    assert forms_isomorphic(a, b)
    c = cyclic_form(3, 2).dsum(cyclic_form(3, 2))
    assert not forms_isomorphic(a, c)


def test_forms_isomorphic_on_non_elementary_parts():
    a = discriminant_form(realize("<4>"))
    assert forms_isomorphic(a, cyclic_form(4, 1))
    assert not forms_isomorphic(a, cyclic_form(4, 7))
    d5 = discriminant_form(realize("D5"))
    assert forms_isomorphic(d5, d5.neg().neg())


def test_forms_isomorphic_is_equivalence():
    sample = [
        discriminant_form(realize(n))
        for n in ("A2", "A2 + A2", "U(3)", "E6", "E6*(3)", "<6>", "<-2>", "D4")
    ]
    for a in sample:
        assert forms_isomorphic(a, a)
    for a in sample:
        for b in sample:
            assert forms_isomorphic(a, b) == forms_isomorphic(b, a)
    for a in sample:
        for b in sample:
            for c in sample:
                if forms_isomorphic(a, b) and forms_isomorphic(b, c):
                    assert forms_isomorphic(a, c)


def _blocks(p, max_order):
    """Jordan blocks of p-power order <= max_order.  p = 2: <a/2^k> for every
    odd a mod 2^(k+1), and every even rank-2 block on (Z/2^k)^2 with
    b(w, v) = 1/2^k; odd p: <2/p^k> and <2n/p^k>, n the least nonresidue."""
    out = []
    m = p
    while m <= max_order:
        if p == 2:
            out += [FiniteQuadraticForm((m,), (a,), ((a % m,),)) for a in range(1, 2 * m, 2)]
            if m * m <= max_order:
                out += [
                    FiniteQuadraticForm((m, m), (x, y), ((x % m, 1), (1, y % m)))
                    for x in range(0, 2 * m, 2)
                    for y in range(0, 2 * m, 2)
                ]
        else:
            out += [cyclic_form(m, 2 * u) for u in (1, _least_nonresidue(p))]
        m *= p
    return out


@functools.cache
def _block_sums(p, max_order):
    """Every sum of blocks (as a multiset) of order <= max_order."""
    blocks = _blocks(p, max_order)
    out = []

    def extend(start, form):
        for i in range(start, len(blocks)):
            if form.order * blocks[i].order <= max_order:
                out.append(form.dsum(blocks[i]))
                extend(i, out[-1])

    extend(0, trivial_form())
    return out


BLOCK_SUMS = {(2, 64): (1463, 200), (3, 243): (73, 52), (5, 125): (17, 14), (7, 343): (17, 14)}


def _oracle_classes(forms):
    """Isomorphism classes by brute-force matching against one member each."""
    by_group = {}
    for form in forms:
        classes = by_group.setdefault(tuple(sorted(form.orders)), [])
        for cls in classes:
            if brute_isomorphic(form, cls[0]):
                cls.append(form)
                break
        else:
            classes.append([form])
    return [cls for classes in by_group.values() for cls in classes]


@pytest.mark.parametrize("p, max_order", list(BLOCK_SUMS))
def test_normal_key_agrees_with_brute_force_isomorphism(p, max_order):
    forms = _block_sums(p, max_order)
    classes = _oracle_classes(forms)
    assert (len(forms), len(classes)) == BLOCK_SUMS[p, max_order]
    keys = [{normal_key(f) for f in cls} for cls in classes]
    assert all(len(k) == 1 for k in keys)  # isomorphic forms share their key
    assert len(set().union(*keys)) == len(classes)  # and no other form has it


@pytest.mark.parametrize("p, max_order", list(BLOCK_SUMS))
def test_normal_key_is_invariant_under_change_of_group_basis(p, max_order):
    rng = random.Random(p)
    for form in _block_sums(p, max_order):
        key = normal_key(form)
        for _ in range(3):
            assert normal_key(_rebased(form, rng)) == key, form


def test_jordan_blocks_of_standard_forms():
    assert jordan_blocks(u_block(4).dsum(cyclic_form(2, 3)), 2) == [(4, "u"), (2, 3)]
    assert jordan_blocks(v_block(), 2) == [(2, "v")]
    assert jordan_blocks(discriminant_form(realize("A2")), 3) == [(3, 4)]
    assert sorted(jordan_blocks(discriminant_form(realize("U(3)")), 3)) == [(3, 2), (3, 4)]


def test_forms_isomorphic_on_large_groups(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("isomorphism must not enumerate")

    for name in ("elements", "value_counts", "brute_isomorphic"):
        monkeypatch.setattr(fqf_oracle, name, forbidden)
    n = 16384
    big = discriminant_form(realize(f"<-{n}>"))
    assert forms_isomorphic(big, cyclic_form(n, -1))
    assert forms_isomorphic(big, cyclic_form(n, -9))  # -9 = -1·3^2
    assert not forms_isomorphic(big, cyclic_form(n, 1))
    assert not forms_isomorphic(big, cyclic_form(n, -3))
    assert even_lattice_exists_report(0, 1, big) == (True, None)
    # E8 and U^4 are both unimodular of rank 8 and determinant 1 over Z_101
    e8 = discriminant_form(realize("E8(101)"))
    assert forms_isomorphic(e8, discriminant_form(realize("U(101)^4")))
    assert forms_isomorphic(e8, _rebased(e8, random.Random(1)))
    twins = [forms_isomorphic(e8, p_elementary_form(101, 8, nr)) for nr in (False, True)]
    assert sorted(twins) == [False, True]


def test_forms_isomorphic_rejects_degenerate():
    degenerate = FiniteQuadraticForm((2,), (2,), ((0,),))
    with pytest.raises(DegenerateForm):
        forms_isomorphic(degenerate, degenerate)
    with pytest.raises(DegenerateForm):
        forms_isomorphic(cyclic_form(2, 1), degenerate)


def test_internal_builders_yield_valid_forms():
    """dsum and neg skip the checks of __init__; their results pass those
    checks and are equal to the forms __init__ rebuilds."""
    rng = random.Random(7)
    built = []
    for _ in range(500):
        f, g = _random_form(rng), _random_form(rng)
        built += [f.dsum(g), f.neg()]
    for form in built:
        assert FiniteQuadraticForm(form.orders, form.q, form.b) == form


def test_odd_disc_class():
    assert odd_disc_class(cyclic_form(3, 2), 3) == legendre_ref(2, 3)
    assert odd_disc_class(prime_part(discriminant_form(realize("U(3)")), 3), 3) == legendre_ref(-1, 3)


def _change_basis(form, m):
    """The form on the generators sum_j m[i][j] g_j (m invertible mod the level)."""
    q = tuple(value(form, row) for row in m)
    b = tuple(tuple(pairing(form, x, y) for y in m) for x in m)
    return FiniteQuadraticForm(form.orders, q, b)


def test_disc_class_from_jordan_blocks_matches_det_oracle():
    # every p-elementary form with p <= 19 and a <= 6 (both classes), diagonal
    # and on random generators, and next to a 2-part and a non-elementary 3-part
    rng = random.Random(9)
    extra = cyclic_form(2, 1).dsum(cyclic_form(9, 2))
    for p in (3, 5, 7, 11, 13, 17, 19):
        for a in range(1, 7):
            classes = set()
            for nonresidue in (False, True):
                form = p_elementary_form(p, a, nonresidue)
                while True:
                    m = [[rng.randrange(p) for _ in range(a)] for _ in range(a)]
                    if det_exact(m) % p:
                        break
                for f in (form, _change_basis(form, m)):
                    expected = odd_disc_class(f, p)
                    classes.add(expected)
                    assert dict(normal_key(f))[p] == ((p, a, expected),)
                    if p != 3:
                        key = dict(normal_key(f.dsum(extra)))
                        assert key[p] == ((p, a, expected),), (p, a)
            assert classes == {1, -1}, (p, a)


def legendre_ref(a, p):
    a %= p
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_even_lattice_exists_excluded_case():
    q = trivial_form()
    for _ in range(5):
        q = q.dsum(cyclic_form(3, 4))
    q = q.dsum(cyclic_form(2, 3))
    ok, reason = even_lattice_exists_report(1, 4, q)
    assert not ok and reason == "E3:p=3"


def test_even_lattice_exists_realizable():
    q = cyclic_form(3, 4).dsum(cyclic_form(2, 3))
    assert even_lattice_exists(1, 4, q)


def test_even_lattice_exists_rank_one_witness():
    assert even_lattice_exists(0, 1, cyclic_form(2, 3))
    assert not even_lattice_exists(1, 0, cyclic_form(2, 3))  # needs <2>-norm 1/2
    assert even_lattice_exists(1, 0, cyclic_form(2, 1))
    # <6> and its impossible mirror
    span6 = discriminant_form(realize("<6>"))
    assert even_lattice_exists(1, 0, span6)
    assert not even_lattice_exists(0, 1, span6)


def test_even_lattice_exists_milgram_gate():
    ok, reason = even_lattice_exists_report(5, 0, discriminant_form(realize("A2")))
    assert not ok and reason == "E2"
    ok, reason = even_lattice_exists_report(0, 0, cyclic_form(2, 1))
    assert not ok and reason == "E1"


def test_existence_splits_each_prime_part_once(monkeypatch):
    # <-6>: full length at 2 and at 3, so E2, E3:p=3 and E4 all read blocks
    calls = []
    split = hklat.fqf.jordan_blocks

    def counted(part, p):
        calls.append(p)
        return split(part, p)

    monkeypatch.setattr(hklat.fqf, "jordan_blocks", counted)
    form = cyclic_form(2, 1).dsum(cyclic_form(3, 4))
    assert even_lattice_exists_report(0, 1, form) == (True, None)
    assert sorted(calls) == [2, 3]


def test_even_lattice_exists_for_all_table_lattices():
    from golden_data import TABLE_ROWS

    for _, _, _, _, _, s_name, t_name in TABLE_ROWS:
        for name in (s_name, t_name):
            lat = realize(name)
            s_plus, s_minus = lat.signature()
            assert even_lattice_exists(s_plus, s_minus, discriminant_form(lat)), name


def test_two_elementary_form_matches_invariants():
    for a in range(1, 9):
        for delta in (0, 1):
            for sigma in range(8):
                form = two_elementary_form(a, delta, sigma)
                if form is None:
                    continue
                assert form.length() == a
                assert delta_invariant(form) == delta
                assert gauss_signature(form) == sigma


def test_jordan_splitting_is_kept_on_the_form_only():
    form = discriminant_form(realize("U(3) + A2 + <-2>"))
    twin = FiniteQuadraticForm(form.orders, form.q, form.b)
    assert twin._split is None
    splitting = jordan_splitting(form)
    assert jordan_splitting(form) is splitting
    # the blocks' splittings put together (U(3), then A2), not a fresh split
    assert splitting == {2: ((2, 3),), 3: ((3, 2), (3, 4), (3, 4))}
    assert normal_key(form) == normal_key(twin)
    assert (form, hash(form), repr(form)) == (twin, hash(twin), repr(twin))


def _composed_forms():
    """Sums f + g, negations -f and sums -f + g of the discriminant forms of
    the catalog atoms, the table S/T lattices and the frozen `queries` pool,
    each born with the splitting composed from its operands'."""
    names = set(CATALOG_ATOMS) | set(FROZEN["invariants"])
    names |= {n for pair in LATTICE_NAMES.values() for n in pair}
    forms = [discriminant_form(realize(name)) for name in sorted(names)]
    rng = random.Random(20)
    pairs = [(rng.choice(forms), rng.choice(forms)) for _ in range(700)]
    return (
        [f.dsum(g) for f, g in pairs]
        + [f.neg() for f in forms]
        + [f.neg().dsum(g) for f, g in pairs]
    )


def test_composed_splitting_agrees_with_a_fresh_split():
    # oracle: the twin on the same data, split from scratch by jordan_blocks
    for form in _composed_forms():
        assert form._split is not None, form
        twin = FiniteQuadraticForm(form.orders, form.q, form.b)
        assert normal_key(form) == normal_key(twin), form
        assert gauss_signature(form) == gauss_signature(twin), form
        length = max(form.lengths_per_prime().values(), default=0)
        for rank in (length, length + 1, length + 2):
            for s_plus in range(rank + 1):
                sig = (s_plus, rank - s_plus)
                want = even_lattice_exists_report(*sig, twin)
                assert even_lattice_exists_report(*sig, form) == want, (form, sig)


def test_sum_and_negation_inherit_only_existing_splittings():
    split = discriminant_form(realize("U(3) + <-2>"))
    assert jordan_splitting(split) == {2: ((2, 3),), 3: ((3, 2), (3, 4))}
    assert split.neg()._split == {2: ((2, 1),), 3: ((3, 4), (3, 2))}
    assert split.neg().neg()._split == split._split
    assert trivial_form()._split == {}
    assert trivial_form().dsum(split)._split == split._split
    unsplit = cyclic_form(3, 4)
    assert unsplit.dsum(split)._split is None and split.dsum(unsplit)._split is None
    assert unsplit.neg()._split is None
    # a degenerate form has no splitting, and still sums and negates
    degenerate = FiniteQuadraticForm((2,), (2,), ((0,),))
    for form in (degenerate.dsum(split), split.dsum(degenerate), degenerate.neg()):
        assert form._split is None
        with pytest.raises(DegenerateForm):
            jordan_splitting(form)


def test_local_key_does_not_depend_on_block_order():
    # u and v blocks do not order against cyclic blocks of the same scale
    two = [(2, "u"), (2, 1), (2, 3), (4, "v"), (4, 5), (8, 7), (2, "v")]
    with pytest.raises(TypeError):
        sorted(two)
    key = _two_adic_key(two)
    rng = random.Random(19)
    for _ in range(60):
        rng.shuffle(two)
        assert local_key(2, two) == key
    odd = [(3, 2), (3, 4), (9, 2), (3, 2), (27, 4)]
    assert {local_key(3, blocks) for blocks in itertools.permutations(odd)} == {_odd_key(odd, 3)}


def test_local_key_equals_the_uncached_keys():
    # every p-part of the catalog atoms and table lattices; a form computes
    # its normal key once and keeps it, and a twin built from its generator
    # data, which keeps nothing, computes an equal key
    names = set(CATALOG_ATOMS) | {n for pair in LATTICE_NAMES.values() for n in pair}
    for name in sorted(names):
        form = discriminant_form(realize(name))
        for p, blocks in jordan_splitting(form).items():
            uncached = _two_adic_key(blocks) if p == 2 else _odd_key(blocks, p)
            assert local_key(p, blocks) == uncached == local_key(p, blocks[::-1]), name
        assert normal_key(form) is normal_key(form), name
        twin = FiniteQuadraticForm(form.orders, form.q, form.b)
        assert twin._key is None and normal_key(twin) == normal_key(form), name


def test_form_invariants_record():
    inv = form_invariants(discriminant_form(realize("<6>")))
    assert inv == FormInvariants(signature_mod_8=1, delta=1)


def test_full_length_existence_runs_in_constant_memory():
    # the existence test reads Jordan blocks, so memory does not grow with |A|
    tracemalloc.start()
    try:
        for name in ("U(4)", "U(1048576)"):
            form = discriminant_form(realize(name))
            assert even_lattice_exists_report(1, 1, form) == (True, None), name
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_p_elementary_form_is_born_with_its_fresh_splitting():
    for p in (3, 5, 7, 11, 13, 17, 19):
        for a in range(22):
            for nonresidue in (False, True):
                form = p_elementary_form(p, a, nonresidue)
                twin = FiniteQuadraticForm(form.orders, form.q, form.b)
                assert a == 0 or twin._split is None  # split afresh below
                assert form._split == jordan_splitting(twin), (p, a, nonresidue)


def test_p_elementary_form_matches_cyclic_sum():
    for p in (3, 5, 7, 11, 13, 17, 19):
        nonresidue = next(n for n in range(2, p) if legendre_ref(n, p) == -1)
        for a in range(12):
            for last in (1, nonresidue):
                units = [1] * (a - 1) + [last] if a else []
                expected = trivial_form()
                for u in units:
                    expected = expected.dsum(cyclic_form(p, 2 * u))
                form = p_elementary_form(p, a, last != 1)
                assert form == expected, (p, a, last)
                assert FiniteQuadraticForm(form.orders, form.q, form.b) == form
