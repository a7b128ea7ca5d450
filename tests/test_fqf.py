import cmath
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import fqf_oracle
import hklat
import snf_oracle
from fqf_oracle import (
    Dense,
    brute_isomorphic,
    cyclic_form,
    delta_by_generators,
    dense,
    dense_neg,
    dense_sum,
    dense_with_large_odd_parts,
    elements,
    even_lattice_exists,
    forms_isomorphic,
    odd_disc_class,
    pairing,
    prime_part,
    random_dense,
    trivial_form,
    two_elementary_form,
    u_block,
    v_block,
    value,
    value_counts,
)
from hklat.errors import DegenerateForm
from hklat.fqf import (
    FiniteQuadraticForm,
    FormInvariants,
    _least_nonresidue,
    _odd_key,
    _two_adic_key,
    delta_invariant,
    even_lattice_exists_report,
    form_invariants,
    gauss_signature,
    local_key,
    normal_key,
    p_elementary_form,
)
from hklat.lattices import Lattice, discriminant_form, realize
from hklat.tables import LATTICE_NAMES
from snf_oracle import det_exact, mat_mul
from test_frozen_queries import FROZEN
from test_lattices import CATALOG_ATOMS

F = Fraction


def _gauss_sum_direct(form):
    """Independent oracle: direct summation of exp(pi i q(x)) over all elements."""
    form = dense(form)
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
    # q = 1, b = 0 at level 2: no Jordan splitting, so no form to read a
    # signature, a delta or a key off; the split raises
    for error in (DegenerateForm, hklat.errors.DegenerateForm):
        with pytest.raises(error):
            Dense((2,), (2,), ((0,),)).form()


def _radical_is_trivial_by_enumeration(form):
    """Oracle: scan every nonzero element for one orthogonal to all generators."""
    k = form.length()
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return not any(
        any(x) and all(pairing(form, x, e) == 0 for e in units)
        for x in elements(form)
    )


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


def _form_or_none(data):
    """The library form of dense data, or None where the constructor
    rejects them as degenerate."""
    try:
        return data.form()
    except DegenerateForm:
        return None


def _signature_or_none(data):
    """gauss_signature of the form of dense data, or None where they are
    degenerate."""
    form = _form_or_none(data)
    return None if form is None else gauss_signature(form)


def test_radical_check_agrees_with_enumeration():
    rng = random.Random(2024)
    degenerate = 0
    for _ in range(600):
        form = random_dense(rng)
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
        assert gauss_signature(form.form()) == _signature_by_gauss_sum(form), form
        return True
    with pytest.raises(DegenerateForm):
        form.form()
    return False


def test_gauss_signature_agrees_with_direct_sum_on_random_forms():
    rng = random.Random(2026)
    outcomes = [_assert_signature_matches_oracles(random_dense(rng)) for _ in range(2000)]
    assert 500 < sum(outcomes) < 1500  # both outcomes are exercised


def _all_cyclic_forms():
    """Every valid form on Z/p^k: odd p <= 13 with p^k <= 125, and 2^k <= 64."""
    orders = [p**k for p in (3, 5, 7, 11, 13) for k in range(1, 5) if p**k <= 125]
    orders += [2**k for k in range(1, 7)]
    for n in orders:
        for v in range(2 * n):
            if n * v % 2 == 0:  # q(g)·n^2 in 2Z
                yield Dense((n,), (v,), ((v % n,),))


def _all_rank_two_2_forms():
    """Every valid form on (Z/2^k)^2, k <= 3."""
    for n in (2, 4, 8):
        for q1 in range(2 * n):
            for q2 in range(2 * n):
                for b12 in range(n):
                    yield Dense((n, n), (q1, q2), ((q1 % n, b12), (b12, q2 % n)))


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
    form = dense(form)
    k, orders = form.length(), form.orders
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(moves):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = orders[j] // math.gcd(orders[i], orders[j]) * rng.randrange(1, orders[j])
            basis[i] = [(x + c * y) % d for x, y, d in zip(basis[i], basis[j], orders)]
    q = tuple(value(form, x) for x in basis)
    b = tuple(tuple(pairing(form, x, y) for y in basis) for x in basis)
    return Dense(orders, q, b).form()


def test_gauss_signature_is_invariant_under_change_of_group_basis():
    # Sums of Jordan blocks of several scales, so that generators of one
    # order pair with those of another, and 2-adic rank-2 blocks of scale
    # >= 8 have further generators of their own order to be projected off.
    def v(n, a):
        return Dense((n, n), (a, a), ((a, 1), (1, a))).form()

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
    forms += [f for f in (_form_or_none(random_dense(rng)) for _ in range(100)) if f is not None]
    assert len(forms) > 20
    expected = [gauss_signature(f) for f in forms]

    def forbidden(*args, **kwargs):
        raise AssertionError("gauss_signature must not call this")

    for name in ("elements", "value_counts", "brute_isomorphic"):
        monkeypatch.setattr(fqf_oracle, name, forbidden)
    for module in (hklat.lattices, hklat.fqf):
        monkeypatch.setattr(module, "smith_normal_form", forbidden, raising=False)
    assert [gauss_signature(f) for f in forms] == expected


def test_delta_invariant():
    assert delta_invariant(discriminant_form(realize("U(2)"))) == 0
    assert delta_invariant(cyclic_form(2, 3)) == 1
    assert delta_invariant(trivial_form()) == 0
    assert delta_invariant(v_block()) == 0
    assert delta_invariant(discriminant_form(realize("<6>"))) == 1
    assert delta_invariant(u_block(4)) == 1  # q(e + f) = 2·b(e, f) = 1/2
    assert delta_invariant(cyclic_form(9, 2)) == 0  # no 2-part


def _delta_by_value_scan(form):
    """Oracle: 0 iff every value of the 2-part is an integer mod 2Z."""
    part = prime_part(form, 2)
    return 0 if all(v % part.level == 0 for v in value_counts(part)) else 1


def _delta_or_none(form, nondegenerate):
    """delta_invariant, checked against the value scan and the generator
    formula on nondegenerate dense data; on degenerate data the constructor
    raises DegenerateForm, and None is returned.  The two oracles agree on
    all data."""
    expected = _delta_by_value_scan(form)
    assert delta_by_generators(form) == expected, form
    if not nondegenerate:
        with pytest.raises(DegenerateForm):
            form.form()
        return None
    assert delta_invariant(form.form()) == expected, form
    return expected


def test_delta_invariant_agrees_with_value_scan():
    rng = random.Random(2025)
    seen = set()
    for _ in range(1500):
        form = random_dense(rng)
        seen.add(_delta_or_none(form, _radical_is_trivial_by_enumeration(form)))
    assert seen == {0, 1, None}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dense_with_large_odd_parts())
def test_delta_invariant_agrees_with_value_scan_on_large_odd_parts(form):
    # the 2-part is generated by c_i·g_i, with c_i up to 15
    _delta_or_none(form, _radical_is_trivial_by_smith_form(form))


def test_form_data_are_integers_at_the_level():
    # a form holds its Jordan blocks: a scale m and, for a cyclic block, the
    # integer a = q·m mod 2m, prime to p (the value at the block's level m)
    forms = [
        discriminant_form(realize(name)) for name in ("A2", "U(3) + <-2>", "D4", "E6*(3)", "<12>")
    ] + [u_block(4), v_block(), p_elementary_form(5, 3, True), cyclic_form(8, 3)]
    for form in forms:
        assert list(form.split) == sorted(form.split)
        for p, blocks in form.split.items():
            for m, a in blocks:
                assert type(m) is int and sympy.primefactors(m) == [p], form
                if a in ("u", "v"):
                    assert p == 2, form
                else:
                    assert type(a) is int and 0 < a < 2 * m and a % p and m * a % 2 == 0, form
    assert cyclic_form(8, 3).split == {2: ((8, 3),)} and cyclic_form(3, -2).split == {3: ((3, 4),)}
    assert u_block(4).dsum(cyclic_form(2, 1)).split == {2: ((4, "u"), (2, 1))}


def test_form_rejects_rational_entries():
    with pytest.raises(hklat.errors.InvalidParameter):
        Dense((2,), (F(3, 2),), ((F(1, 2),),)).form()
    with pytest.raises(hklat.errors.InvalidParameter):
        Dense((3,), (4,), ((2,),)).form()  # b(g,g) != q(g) mod Z


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
        Dense(orders, q, b).form()
    assert str(exc.value) == message


def test_cyclic_form_takes_an_integer_numerator_matching_the_order():
    assert cyclic_form(2, 3) == FiniteQuadraticForm({2: ((2, 3),)})
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
            out += [Dense((m,), (a,), ((a % m,),)).form() for a in range(1, 2 * m, 2)]
            if m * m <= max_order:
                out += [
                    Dense((m, m), (x, y), ((x % m, 1), (1, y % m))).form()
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
        classes = by_group.setdefault(tuple(sorted(dense(form).orders)), [])
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
    # degenerate data build no form, so no key is compared
    with pytest.raises(DegenerateForm):
        forms_isomorphic(cyclic_form(2, 1), Dense((2,), (2,), ((0,),)).form())


def test_internal_builders_yield_valid_forms():
    """dsum and neg build blocks with no check; the generators of their
    blocks pass `Dense.check`, and `Dense.form` splits them into the same
    blocks, up to their order."""
    rng = random.Random(7)
    forms = [f for f in (_form_or_none(random_dense(rng)) for _ in range(1000)) if f is not None]
    assert len(forms) > 300
    for f, g in zip(forms, forms[1:]):
        for form in (f.dsum(g), f.neg()):
            twin = dense(form).form()
            blocks = {p: Counter(b) for p, b in form.split.items()}
            assert {p: Counter(b) for p, b in twin.split.items()} == blocks, form


@st.composite
def _nondegenerate_pairs(draw):
    """Two nondegenerate dense data, each drawn as `_forms_with_large_odd_parts`."""
    data = dense_with_large_odd_parts().filter(lambda d: _form_or_none(d) is not None)
    return draw(data), draw(data)


def _assert_same_invariants(form, data):
    """The form and the form built from dense data have the same normal key,
    Gauss signature, delta and existence verdicts, at every signature of
    rank up to two above the longest p-part."""
    built = data.form()
    assert normal_key(form) == normal_key(built), data
    assert form_invariants(form) == form_invariants(built), data
    assert form.order == built.order == data.order, data
    assert form.lengths_per_prime() == built.lengths_per_prime(), data
    length = max(built.lengths_per_prime().values(), default=0)
    for rank in range(length + 3):
        for s_plus in range(rank + 1):
            sig = (s_plus, rank - s_plus)
            assert even_lattice_exists_report(*sig, form) == even_lattice_exists_report(
                *sig, built
            ), (data, sig)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_nondegenerate_pairs())
def test_sum_and_negation_of_blocks_agree_with_the_dense_route(pair):
    # dsum puts the blocks together and neg negates them; the oracle builds
    # the form from the dense direct sum, and from the dense negation
    f, g = pair
    _assert_same_invariants(f.form().dsum(g.form()), dense_sum(f, g))
    _assert_same_invariants(f.form().neg(), dense_neg(f))
    _assert_same_invariants(f.form().neg().dsum(g.form()), dense_sum(dense_neg(f), g))


def test_sum_and_negation_of_catalog_forms_agree_with_the_dense_route():
    # the discriminant forms of the catalog atoms, the table S/T lattices
    # and the frozen `queries` pool, whose blocks include u and v blocks of
    # scales above 2 and several primes at once
    names = set(CATALOG_ATOMS) | set(FROZEN["invariants"])
    names |= {n for pair in LATTICE_NAMES.values() for n in pair}
    forms = [discriminant_form(realize(name)) for name in sorted(names)]
    rng = random.Random(20)
    for _ in range(300):
        f, g = rng.choice(forms), rng.choice(forms)
        _assert_same_invariants(f.dsum(g), dense_sum(dense(f), dense(g)))
        _assert_same_invariants(f.neg().dsum(g), dense_sum(dense_neg(dense(f)), dense(g)))


def test_odd_disc_class():
    assert odd_disc_class(cyclic_form(3, 2), 3) == legendre_ref(2, 3)
    assert odd_disc_class(prime_part(discriminant_form(realize("U(3)")), 3), 3) == legendre_ref(-1, 3)


def _change_basis(form, m):
    """The form on the generators sum_j m[i][j] g_j (m invertible mod the level)."""
    form = dense(form)
    q = tuple(value(form, row) for row in m)
    b = tuple(tuple(pairing(form, x, y) for y in m) for x in m)
    return Dense(form.orders, q, b).form()


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
    # <-6>: full length at 2 and at 3, so E2, E3:p=3 and E4 all read blocks;
    # the generator data are split once per p-part, and the test splits nothing
    calls = []
    split = hklat.lattices.jordan_blocks

    def counted(*args):
        calls.append(args[-1])
        return split(*args)

    monkeypatch.setattr(hklat.lattices, "jordan_blocks", counted)
    form = Dense((6,), (11,), ((5,),)).form()  # <11/6> = <1/2> + <4/3>
    assert calls == [2, 3]
    assert even_lattice_exists_report(0, 1, form) == (True, None)
    assert calls == [2, 3]


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
                assert form.lengths_per_prime() == {2: a}
                assert delta_invariant(form) == delta
                assert gauss_signature(form) == sigma


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
    # its normal key once and keeps it, and a twin built from its blocks'
    # generators, which keeps nothing, computes an equal key
    names = set(CATALOG_ATOMS) | {n for pair in LATTICE_NAMES.values() for n in pair}
    for name in sorted(names):
        form = discriminant_form(realize(name))
        for p, blocks in form.split.items():
            uncached = _two_adic_key(blocks) if p == 2 else _odd_key(blocks, p)
            assert local_key(p, blocks) == uncached == local_key(p, blocks[::-1]), name
        assert normal_key(form) is normal_key(form), name
        twin = dense(form).form()
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
                assert dense(form).form() == form
