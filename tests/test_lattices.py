import json
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_decomp

import snf_oracle
from fqf_oracle import (
    Dense,
    cyclic_form,
    dense_with_large_odd_parts,
    forms_isomorphic,
    prime_part,
    random_dense,
    trivial_form,
    v_block,
)
from hklat.classify import invariants_of
from hklat.errors import DegenerateForm
from hklat.exact import is_prime
from hklat.fqf import FiniteQuadraticForm, normal_key
from hklat import AMBIENT
from hklat.lattices import (
    InvalidParameter,
    Lattice,
    LatticeExpr,
    MAX_RANK,
    NotEvenLattice,
    atom_data,
    discriminant_data,
    discriminant_form,
    jordan_blocks,
    lattice_from_json,
    parse_expr,
    realize,
    render_expr,
    smith_normal_form,
    _atom_base_gram,
    _root_gram,
)
from hklat.tables import LATTICE_NAMES
from snf_oracle import det_exact


def test_catalog_k3_is_a2():
    assert realize("K3").gram == ((-2, 1), (1, -2))
    assert realize("K3").gram == realize("A2").gram


def test_catalog_h13():
    assert realize("H13").gram == ((6, 1), (1, -2))


def test_catalog_rejects_bad_parameters():
    with pytest.raises(InvalidParameter):
        realize("K5")  # 5 = 1 mod 4
    with pytest.raises(InvalidParameter):
        realize("H7")
    with pytest.raises(InvalidParameter):
        realize("D3")
    with pytest.raises(InvalidParameter):
        realize("<3>")  # odd


def test_catalog_e6_dual_3():
    lat = realize("E6*(3)")
    assert lat.rank == 6
    assert lat.signature() == (0, 6)
    assert abs(lat.det()) == 3**5
    target = trivial_form()
    for _ in range(5):
        target = target.dsum(cyclic_form(3, 2))
    assert forms_isomorphic(discriminant_form(lat), target)


def test_catalog_a4_dual_5():
    lat = realize("A4*(5)")
    assert lat.rank == 4
    assert lat.signature() == (0, 4)
    assert abs(lat.det()) == 5**3
    inv = invariants_of(lat)
    assert (inv.p, inv.a) == (5, 3)


def _cartan_A(k):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(k)] for i in range(k)]


def _cartan_D(h):
    # chain 0..h-3 with both h-2 and h-1 attached to node h-3
    m = [[0] * h for _ in range(h)]
    for i in range(h):
        m[i][i] = 2
    for i in range(h - 3):
        m[i][i + 1] = m[i + 1][i] = -1
    m[h - 3][h - 2] = m[h - 2][h - 3] = -1
    m[h - 3][h - 1] = m[h - 1][h - 3] = -1
    return m


def _cartan_E(l):
    # chain 0..l-2 with node l-1 attached to node 2 (Bourbaki E-shape)
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = 2
    for i in range(l - 2):
        m[i][i + 1] = m[i + 1][i] = -1
    m[2][l - 1] = m[l - 1][2] = -1
    return m


def test_root_gram_matches_the_cartan_builders():
    # the three Cartan builders _root_gram replaced, kept as the oracle
    cases = [(f"A{n}", n, n - 2, _cartan_A(n)) for n in range(1, 25)]
    cases += [(f"D{n}", n, n - 3, _cartan_D(n)) for n in range(4, 25)]
    cases += [(f"E{n}", n, 2, _cartan_E(n)) for n in range(6, 9)]
    for name, n, branch, cartan in cases:
        expected = tuple(tuple(-x for x in row) for row in cartan)
        gram = _root_gram(n, branch)
        assert gram == expected, name
        assert all(type(x) is int for row in gram for x in row), name
        assert realize(name).gram == expected, name


def test_root_lattice_determinants():
    for name, d in [("A1", -2), ("A2", 3), ("A4", 5), ("D4", 4), ("E6", 3), ("E7", -2), ("E8", 1)]:
        assert realize(name).det() == d


def test_direct_sum_hyperbolic():
    l = realize("U + U")
    assert l.signature() == (2, 2)
    assert l.det() == 1


def test_ambient_lattice():
    from hklat.classify import AMBIENT_GENUS

    l = realize(AMBIENT)
    assert realize(AMBIENT) is l
    assert l.expr == parse_expr(AMBIENT)
    assert (l.rank, l.signature(), l.det()) == (23, (3, 20), 2)
    assert discriminant_form(l) == cyclic_form(2, 3)
    # the genus `classify` reads in place of building L
    assert AMBIENT_GENUS == invariants_of(l)
    assert (AMBIENT_GENUS.rank, AMBIENT_GENUS.form.order) == (l.rank, abs(l.det()))


def test_realize_keeps_one_lattice_per_expression():
    name = "U(3) + A2^2 + <-2>"
    lat = realize(name)
    assert realize(name) is lat
    assert realize(lat.expr) is realize(lat.expr)
    assert (realize(lat.expr).gram, realize(lat.expr).expr) == (lat.gram, lat.expr)
    assert discriminant_form(realize(name)) is discriminant_form(lat)
    assert discriminant_data(realize(name)) is discriminant_data(lat)
    text = json.dumps({"gram": [list(row) for row in lat.gram], "name": name})
    assert lattice_from_json(text) is not lattice_from_json(text)


def test_ambient_form_is_built_once():
    form = discriminant_form(realize(AMBIENT))
    assert discriminant_form(realize(AMBIENT)) is form
    assert form == cyclic_form(2, 3)


def test_embed_in_L_reads_the_one_ambient_form(monkeypatch):
    from hklat.classify import AMBIENT_GENUS, embed_in_L

    embed_in_L.cache_clear()  # a report kept from an earlier call sums nothing
    targets = [invariants_of(realize(name)) for name in ("A2", "U + A2^2 + E6")]
    operands = []
    dsum = FiniteQuadraticForm.dsum

    def recording(self, other):
        operands.append(other)
        return dsum(self, other)

    monkeypatch.setattr(FiniteQuadraticForm, "dsum", recording)
    for target in targets:
        assert embed_in_L(target).embeds
    ambient_form = AMBIENT_GENUS.form
    assert len(operands) == 2 and all(form is ambient_form for form in operands)
    assert ambient_form.split == {2: ((2, 3),)}


def test_direct_sum_a2_a2():
    l = realize("A2 + A2")
    assert l.det() == 9
    _, d, _ = snf_oracle.smith_normal_form(l.gram)  # independent oracle
    assert [d[i][i] for i in range(4)] == [1, 1, 3, 3]
    inv = invariants_of(l)
    assert (inv.p, inv.a) == (3, 2)


def test_twist():
    u3 = realize("U(3)")
    assert u3.gram == ((0, 3), (3, 0))
    assert u3.det() == -9
    inv = invariants_of(u3)
    assert (inv.p, inv.a) == (3, 2)
    assert realize("A2(-1)").signature() == (2, 0)
    assert realize("U(1)").gram == realize("U").gram


def test_discriminant_data_unimodular():
    data = discriminant_data(realize("U"))
    assert data.invariant_factors == ()
    assert data.form == trivial_form()


def test_discriminant_data_a2():
    data = discriminant_data(realize("A2"))
    assert data.invariant_factors == (3,)
    # oracle: the dual vector (2/3, 1/3) has norm -2/3 = 4/3 mod 2Z
    g = (Fraction(2, 3), Fraction(1, 3))
    gram = realize("A2").gram
    norm = sum(g[i] * gram[i][j] * g[j] for i in range(2) for j in range(2))
    assert norm == Fraction(-2, 3)
    assert data.q_values == (4,)  # 4/3 at level 3
    assert data.form == cyclic_form(3, 4)


def test_discriminant_data_minus_two():
    data = discriminant_data(realize("<-2>"))
    assert data.invariant_factors == (2,)
    assert data.q_values == (3,)  # 3/2 at level 2


def _dual_generators(lat):
    """The dual vectors x_i = v_i / d_i for the columns v_i of the right
    transform of the Smith form of the Gram matrix, d_i > 1: the generators
    on which `discriminant_data` reads its values."""
    factors, v = smith_normal_form(lat.gram, lat.det())
    return [
        tuple(Fraction(row[i], d) for row in v) for i, d in enumerate(factors) if d > 1
    ]


def test_discriminant_generators_are_dual_vectors():
    rng = random.Random(3)
    for name in ("A2", "U(3)", "D4", "E6", "<6>", "K7"):
        lat = realize(name)
        gens = _dual_generators(lat)
        n = lat.rank
        for g in gens:
            # membership in the dual lattice: integer pairing with every basis vector
            pair = [sum(g[i] * lat.gram[i][j] for i in range(n)) for j in range(n)]
            assert all(x.denominator == 1 for x in pair)
        # q is well defined modulo the lattice
        for g in gens:
            v = [rng.randint(-3, 3) for _ in range(n)]
            shifted = tuple(x + y for x, y in zip(g, v))
            norm = sum(
                shifted[i] * lat.gram[i][j] * shifted[j]
                for i in range(n)
                for j in range(n)
            )
            base = sum(
                g[i] * lat.gram[i][j] * g[j] for i in range(n) for j in range(n)
            )
            assert (norm - base) % 2 == 0


def test_direct_sum_form_is_orthogonal_sum():
    # the sum of the blocks' forms against the form read off the Smith data
    # of the full Gram matrix, which does not go through the blocks
    lat = realize("A2 + U(3)")
    assert normal_key(discriminant_form(lat)) == normal_key(discriminant_data(lat).form)


def test_is_p_elementary_span6():
    inv = invariants_of(realize("<6>"))  # Z/6: not (Z/p)^a for any p
    assert (inv.p, inv.a) == (None, 1)


def test_is_p_elementary_l17():
    inv = invariants_of(realize("L17"))
    assert (inv.p, inv.a) == (17, 1)


def test_unimodular_is_p_elementary_for_all_p():
    inv = invariants_of(realize("E8"))  # p = 0: p-elementary with a = 0 for every p
    assert (inv.p, inv.a) == (0, 0)


def test_expr_parse_render_roundtrip():
    for text in (
        "U^2 + E8^2 + A2",
        "A2(-1)",
        "U(3) + A2^3 + <-2>",
        "<6> + E6*(3)",
        "K19(-1) + E8^2",
        "H5 + A4*(5) + <-2>",
    ):
        assert render_expr(parse_expr(text)) == text


def test_expr_negation_prefix():
    assert realize("-A2").gram == ((2, -1), (-1, 2))
    assert realize("-A2").gram == realize("A2(-1)").gram


def test_expr_rejects_garbage():
    with pytest.raises(InvalidParameter):
        parse_expr("Q5 + U")
    with pytest.raises(InvalidParameter):
        parse_expr("U(0)")
    with pytest.raises(InvalidParameter):
        realize("E6*")  # dual only integral after twisting by 3


def test_expression_rank_is_bounded_as_it_is_parsed(monkeypatch):
    assert MAX_RANK == 2048  # the README states it
    # each atom's rank, read off its name, is that of its block
    for atom, twist in (("U", 1), ("A1", 1), ("A10", 1), ("D7", 1), ("E6", 1), ("E7", 1),
                        ("E8", 1), ("K3", 1), ("K19", -1), ("H13", 1), ("L17", 1),
                        ("E6*", 3), ("A4*", 5), ("<-8>", 1)):
        rank = len(atom_data(atom, twist).gram)
        term = f"{atom}({twist})^{MAX_RANK // rank}"
        assert parse_expr(term).summands == ((atom, twist, MAX_RANK // rank),)
        with pytest.raises(InvalidParameter, match=f"rank above {MAX_RANK}"):
            parse_expr(f"{term} + {atom}({twist})")
    # a larger sum is rejected before any block is built
    monkeypatch.setattr("hklat.lattices.atom_data", None)
    for text in ("U^99999999999", "A99999999", "-K7^1025", "U^1000 + A4*(5)^10 + E8^2"):
        with pytest.raises(InvalidParameter, match=f"rank above {MAX_RANK}"):
            realize(text)


def test_even_validation():
    with pytest.raises(NotEvenLattice):
        Lattice(((1,),))
    with pytest.raises(NotEvenLattice):
        Lattice(((2, 0), (0, 0)))
    with pytest.raises(NotEvenLattice):
        Lattice(((2, 1), (0, 2)))


def test_lattice_json_roundtrip():
    lat = realize("U(3) + <-2>")
    text = json.dumps({"gram": [list(row) for row in lat.gram], "name": "U(3) + <-2>"})
    back = lattice_from_json(text)
    assert back.gram == lat.gram
    assert render_expr(back.expr) == "U(3) + <-2>"
    plain = lattice_from_json(json.dumps({"gram": [[0, 1], [1, 0]]}))
    assert plain.expr is None


def test_catalog_dets_match_invariant_factors():
    for name in ("A2", "D4", "E6", "K7", "H5", "L17", "U(3)", "<6>", "A4*(5)"):
        lat = realize(name)
        factors = discriminant_data(lat).invariant_factors
        prod = 1
        for f in factors:
            prod *= f
        assert prod == abs(det_exact(lat.gram))


CATALOG_ATOMS = (
    "U", "U(3)", "A1", "A2", "A4", "A6", "A10", "D4", "D5", "D7", "E6", "E7", "E8(2)",
    "K7", "K19(-1)", "H5", "H13", "L17", "E6*(3)", "E6*(-6)", "A4*(5)", "<6>", "<-8>",
)


def test_integer_form_matches_dual_generators():
    # oracle: q(x) = x^T G x mod 2 and b(x, y) = x^T G y mod 1 on the rational
    # generators; the form is the one those generator data build
    for name in CATALOG_ATOMS:
        lat = realize(name)
        data = discriminant_data(lat)
        gram, n = lat.gram, lat.rank
        level = math.lcm(*data.invariant_factors)
        gens = _dual_generators(lat)
        q, b = [], []
        for i, x in enumerate(gens):
            row = []
            for j, y in enumerate(gens):
                pair = sum(x[r] * gram[r][c] * y[c] for r in range(n) for c in range(n))
                row.append(int(pair % 1 * level))
                if i == j:
                    q.append(int(pair % 2 * level))
            b.append(tuple(row))
        assert data.q_values == tuple(q), name
        built = Dense(data.invariant_factors, tuple(q), tuple(b)).form()
        assert data.form == built, name


def _fraction_inverse(m):
    """Oracle: Gauss-Jordan inverse over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def test_dual_atoms_match_rational_inverse():
    for atom, base, t in (("E6*", "E6", 3), ("A4*", "A4", 5)):
        inverse = _fraction_inverse(realize(base).gram)
        expected = tuple(tuple(int(t * x) for x in row) for row in inverse)
        assert all((t * x).denominator == 1 for row in inverse for x in row)
        assert realize(f"{atom}({t})").gram == expected
        assert realize(f"{atom}({-2 * t})").gram == tuple(
            tuple(-2 * x for x in row) for row in expected
        )
    for text in ("E6*(1)", "E6*(2)", "A4*(3)"):
        with pytest.raises(InvalidParameter):
            realize(text)


def _adjugate_inverse(m):
    """(e·m^-1, e) as sign(det)·adj(m)/c, c the gcd of the adjugate's
    entries, each cofactor and det by the `det_exact` oracle."""
    n = len(m)
    adj = [
        [(-1) ** (i + j) * det_exact(tuple(r[:i] + r[i + 1:] for r in m[:j] + m[j + 1:]))
         for j in range(n)]
        for i in range(n)
    ]
    det = det_exact(m)
    c = math.gcd(*(x for row in adj for x in row)) * (1 if det > 0 else -1)
    return tuple(tuple(x // c for x in row) for row in adj), det // c


def test_dual_literals_are_the_reduced_adjugates():
    # the catalog's e·G of E6* and A4* is e·G_R^-1 for the root Gram G_R,
    # the n^2 cofactors reduced by their gcd, and e·G·G_R = e·I
    for atom, root in (("E6*", _root_gram(6, 2)), ("A4*", _root_gram(4, 2))):
        base, den = _atom_base_gram(atom)
        assert (base, den) == _adjugate_inverse(root)
        n = len(root)
        product = tuple(
            tuple(sum(base[i][k] * root[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert product == tuple(tuple(den * (i == j) for j in range(n)) for i in range(n))
    assert atom_data("E6*", 3).gram == _atom_base_gram("E6*")[0]
    assert atom_data("A4*", 5).gram == _atom_base_gram("A4*")[0]


def test_every_catalog_atom_twists_to_an_even_diagonal():
    # why atom_data needs no evenness test of its own: each base e·G has an
    # even diagonal, and a twist t that realizes is an integral multiple t/e
    atoms = (
        "U", "A1", "A2", "A4", "A10", "D4", "D7", "E6", "E7", "E8", "K3", "K7",
        "K19", "K1019", "H5", "H13", "H1021", "L17", "E6*", "A4*", "<2>", "<-8>",
    )
    realized = 0
    for atom in atoms:
        base, den = _atom_base_gram(atom)
        assert all(base[i][i] % 2 == 0 for i in range(len(base))), atom
        for t in {s * k * e for s in (1, -1) for k in (1, 2, 3) for e in (1, den)}:
            if any(t * x % den for row in base for x in row):
                with pytest.raises(InvalidParameter):
                    atom_data(atom, t)
                continue
            gram = [[t * x // den for x in row] for row in base]
            assert all(gram[i][i] % 2 == 0 for i in range(len(gram))), (atom, t)
            assert atom_data(atom, t).gram == tuple(map(tuple, gram))
            realized += 1
    # six twists each: ±1, ±2, ±3, and e·(±1, ±2, ±3) for the duals
    assert realized == 6 * len(atoms)


def test_non_square_gram_is_malformed():
    with pytest.raises(InvalidParameter):
        Lattice(((0, 1),))
    with pytest.raises(InvalidParameter):
        lattice_from_json(json.dumps({"gram": [[0, 1]]}))


def test_json_name_must_match_gram():
    with pytest.raises(InvalidParameter):
        lattice_from_json(json.dumps({"gram": [[0, 1], [1, 0]], "name": "A2"}))
    named = lattice_from_json(json.dumps({"gram": [[-2, 1], [1, -2]], "name": "A2"}))
    assert named.name() == "A2"


def test_det_is_computed_once_at_construction():
    for name in CATALOG_ATOMS:
        ((atom, twist, _),) = parse_expr(name).summands
        for t in (1, -1, 3, -10):
            lat = realize(f"{atom}({twist * t})")
            assert lat.det() == det_exact(lat.gram), (name, t)
    # the blocks take no part in the Gram matrix or the repr
    u = realize("U + A2")
    same = Lattice(u.gram, expr=parse_expr("U + A2"))
    assert (len(u.blocks), len(same.blocks)) == (2, 1)
    assert (u.gram, u.expr, repr(u)) == (same.gram, same.expr, repr(same))
    assert "blocks" not in repr(u)


def test_gram_lattice_runs_one_elimination(monkeypatch):
    # det and signature of a Gram matrix come from one elimination
    import hklat.lattices

    grams = []
    real = hklat.lattices.signature_of_symmetric

    def counting(m):
        grams.append(m)
        return real(m)

    monkeypatch.setattr(hklat.lattices, "signature_of_symmetric", counting)
    gram = ((0, 3, 0, 0), (3, 0, 0, 0), (0, 0, -2, 1), (0, 0, 1, -2))  # U(3) + A2
    lat = lattice_from_json(json.dumps({"gram": [list(row) for row in gram]}))
    assert (lat.det(), lat.signature()) == (-27, (1, 3))
    assert grams == [gram]


def test_value_classes_are_immutable():
    from hklat.fixedlocus import K3FixedLocus

    for obj in (
        realize("U(3) + A2"),
        discriminant_data(realize("U(3) + A2")).form,
        invariants_of(realize("U(3) + A2")),
        K3FixedLocus(p=3, k=1, n=(0, 3), genus_curve=2),
    ):
        with pytest.raises(AttributeError):
            obj.p = 0


def _smith_oracle(gram):
    """Invariant factors and discriminant form of a Gram matrix from sympy's
    Smith decomposition S = U G V: generators x_i = v_i / d_i, as in
    `discriminant_data`, on an independent implementation."""
    n = len(gram)
    s, _, v = smith_normal_decomp(sympy.Matrix(gram), domain=sympy.ZZ)
    idx = [i for i in range(n) if abs(s[i, i]) > 1]
    factors = tuple(int(abs(s[i, i])) for i in idx)
    if not factors:
        return (), trivial_form()
    level = math.lcm(*factors)
    cols = [[int(v[r, i]) for r in range(n)] for i in idx]
    images = [[sum(g * y for g, y in zip(row, x)) for row in gram] for x in cols]

    def pair(i, j):  # v_i^T G v_j
        return sum(x * y for x, y in zip(cols[i], images[j]))

    k = len(factors)
    q = tuple(pair(i, i) * level // factors[i] ** 2 % (2 * level) for i in range(k))
    b = tuple(
        tuple(pair(i, j) * level // (factors[i] * factors[j]) % level for j in range(k))
        for i in range(k)
    )
    return factors, Dense(factors, q, b).form()


def _elementary_at(inv, q):
    """(whether the discriminant group is (Z/q)^a, a or None), from (p, a)."""
    return (True, inv.a) if inv.p in (0, q) else (False, None)


def _assert_routes_agree(expr):
    """A sum of atom blocks (realize) against one block of the same Gram
    matrix: equal det, signature, (p, a) and form class.  The one block's
    Smith form is the library's (`Lattice(gram)`) and sympy's."""
    atoms = realize(expr)
    gram = Lattice(atoms.gram)
    assert atoms.det() == gram.det() == det_exact(atoms.gram), expr
    assert atoms.signature() == gram.signature(), expr
    inv = invariants_of(atoms)
    key = normal_key(inv.form)
    assert inv.form.order == abs(atoms.det()), expr
    factors, form = _smith_oracle(atoms.gram)
    p = factors[0] if factors and set(factors) == {factors[0]} and is_prime(factors[0]) else None
    assert (inv.p, inv.a) == (0 if not factors else p, len(factors)), expr
    assert key == normal_key(form), expr
    for q in {2, 3, inv.p or 2}:
        expected = (True, len(factors)) if set(factors) <= {q} else (False, None)
        assert _elementary_at(inv, q) == expected, (expr, q)
    inv_gram = invariants_of(gram)
    assert (inv.p, inv.a) == (inv_gram.p, inv_gram.a), expr
    assert key == normal_key(inv_gram.form), expr
    for q in {2, 3, inv.p or 2}:
        assert _elementary_at(inv, q) == _elementary_at(inv_gram, q), (expr, q)


def _twisted(name, t):
    return LatticeExpr(tuple((a, tw * t, m) for a, tw, m in parse_expr(name).summands))


def test_atom_route_matches_gram_route_on_catalog_and_tables():
    for name in CATALOG_ATOMS:
        for t in (1, -1, 3, -3, -10):
            _assert_routes_agree(_twisted(name, t))
    for pair in LATTICE_NAMES.values():
        for name in pair:
            _assert_routes_agree(parse_expr(name))


def _sum_from_trivial(lattice):
    """The discriminant form as a sum of every block's form from the trivial
    form on."""
    return reduce(FiniteQuadraticForm.dsum, (b.form for b in lattice.blocks), trivial_form())


def test_discriminant_form_equals_the_sum_from_the_trivial_form():
    exprs = [_twisted(name, t) for name in CATALOG_ATOMS for t in (1, -1, 3, -3)]
    exprs += [parse_expr(name) for pair in LATTICE_NAMES.values() for name in pair]
    for expr in exprs:
        lat = realize(expr)
        form, want = discriminant_form(lat), _sum_from_trivial(lat)
        assert (form, hash(form)) == (want, hash(want)), expr


def test_discriminant_form_of_one_block_is_its_form():
    for name, atom in (("A2", ("A2", 1)), ("U + E6*(3) + E8^2", ("E6*", 3))):
        assert discriminant_form(realize(name)) is atom_data(*atom).form, name
    assert discriminant_form(realize("U^2 + E8")) is discriminant_form(realize("E8"))
    assert discriminant_form(realize("U")) == trivial_form()


def test_a_long_sum_splits_nothing(monkeypatch):
    # a form is its Jordan splitting: the sum of the blocks' forms puts their
    # blocks together, and only `_smith_data`, on generator data, splits
    import ast
    from pathlib import Path

    import hklat.lattices

    atom_data("A2", 1)
    realize.cache_clear()  # the sum below is made afresh
    calls = []
    split = hklat.lattices.jordan_blocks
    monkeypatch.setattr(hklat.lattices, "jordan_blocks", lambda *args: calls.append(args) or split(*args))
    form = discriminant_form(realize("A2^300"))
    assert calls == []
    assert form.split == {3: ((3, 4),) * 300}
    assert (form.order, form.lengths_per_prime()) == (3**300, {3: 300})
    callers = set()
    for path in Path(hklat.lattices.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    scope = {n for n in ast.walk(child) if isinstance(n, ast.Call)}
                    if any(getattr(c.func, "id", None) == "jordan_blocks" for c in scope):
                        callers.add((path.name, child.name))
    assert callers == {("lattices.py", "_smith_data")}


def _assert_split_in_place(form, p):
    """jordan_blocks reads the p-part in place on the generators; the oracle
    route builds it as data of its own first.  Both give the same blocks in
    the same order, or both raise DegenerateForm; returns whether the p-part
    split."""
    try:
        expected = jordan_blocks(*prime_part(form, p), p)
    except DegenerateForm:
        with pytest.raises(DegenerateForm):
            jordan_blocks(*form, p)
        return False
    assert jordan_blocks(*form, p) == expected, (form, p)
    return True


def _primes(data):
    """The primes of the group order of dense data."""
    return sorted({p for d in data.orders for p in sympy.primefactors(d)})


def test_jordan_blocks_read_each_prime_part_in_place():
    rng = random.Random(2027)
    outcomes = []
    for _ in range(1500):
        form = random_dense(rng)
        primes = _primes(form)
        outcomes += [(len(primes) > 1, _assert_split_in_place(form, p)) for p in primes]
    # split and degenerate p-parts, of forms with one prime and with several
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dense_with_large_odd_parts())
def test_jordan_blocks_read_each_prime_part_in_place_on_large_odd_parts(form):
    for p in _primes(form):
        _assert_split_in_place(form, p)


def test_jordan_blocks_of_standard_forms():
    # u(4) + <3/2> at level 4, on its three generators
    data = ((4, 4, 2), (0, 0, 6), ((0, 1, 0), (1, 0, 0), (0, 0, 2)))
    assert jordan_blocks(*data, 2) == [(4, "u"), (2, 3)]
    assert Dense(*data).form().split == {2: ((4, "u"), (2, 3))}
    assert v_block().split == {2: ((2, "v"),)}
    assert discriminant_form(realize("A2")).split == {3: ((3, 4),)}
    assert sorted(discriminant_form(realize("U(3)")).split[3]) == [(3, 2), (3, 4)]


@st.composite
def atom_sums(draw):
    """Sums of up to four catalog atoms, twisted, with multiplicities."""
    summands = draw(st.lists(
        st.tuples(st.sampled_from(CATALOG_ATOMS), st.sampled_from((1, -1, 2, 3)),
                  st.integers(1, 2)),
        min_size=1, max_size=4,
    ))
    return LatticeExpr(tuple(
        (atom, tw * t, mult)
        for name, t, mult in summands
        for atom, tw, _ in parse_expr(name).summands
    ))


@settings(max_examples=100, deadline=None)
@given(atom_sums())
# each ran past 20 s when the Smith form was eliminated without a modulus
@example(parse_expr("A6^2 + E6*(-6) + A2^2"))
@example(parse_expr("A1(-1)^2 + E6*(-3)^2"))
def test_atom_route_matches_gram_route_on_sums(expr):
    _assert_routes_agree(expr)


def test_smith_route_form_equals_the_full_scan_elimination_form(monkeypatch):
    """discriminant_data reads the same form from the Smith form modulo det²
    as from the exact full-scan elimination, on every catalog atom (twisted)
    and table lattice, and on D6 and D8, whose forms would differ modulo det
    instead of det²."""
    exprs = [_twisted(name, t) for name in CATALOG_ATOMS for t in (1, -1, 3, -3, -10)]
    exprs += [parse_expr("D6"), parse_expr("D8")]
    exprs += [parse_expr(name) for pair in LATTICE_NAMES.values() for name in pair]
    grams = [realize(expr).gram for expr in exprs]
    datas = [discriminant_data(Lattice(gram)) for gram in grams]

    def full_scan(m, det):
        _, d, v = snf_oracle.smith_normal_form(m)
        return tuple(d[t][t] for t in range(len(m))), v

    # a lattice takes its Smith form when it is built, so build them again
    monkeypatch.setattr("hklat.lattices.smith_normal_form", full_scan)
    for expr, gram, data in zip(exprs, grams, datas):
        assert discriminant_data(Lattice(gram)) == data, render_expr(expr)


def count_smith_forms(monkeypatch):
    """The matrices `smith_normal_form` runs on from now on, in call order."""
    import hklat.lattices

    real = hklat.lattices.smith_normal_form
    grams = []

    def counting(m, det):
        grams.append(m)
        return real(m, det)

    monkeypatch.setattr(hklat.lattices, "smith_normal_form", counting)
    return grams


def test_one_lattice_runs_one_smith_form(monkeypatch):
    # the form, the invariants and the p-elementary check of a lattice
    # built from a Gram matrix share the Smith form it was built with
    gram = realize("U(3) + A2^2").gram
    grams = count_smith_forms(monkeypatch)
    lat = Lattice(gram)
    inv = invariants_of(lat)
    assert discriminant_form(lat) == inv.form
    assert (invariants_of(lat).p, inv.a) == (3, 4)
    assert discriminant_data(lat).form == inv.form
    assert grams == [gram]
