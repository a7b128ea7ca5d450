import functools
import json
import math
import random

import pytest
from hypothesis import given, settings

import recognize_oracle
from existence_oracle import hyperbolic_p_elementary_exists, split_off_U
from fqf_oracle import even_lattice_exists, forms_isomorphic, value
from golden_data import TABLE_ROWS
from hklat import classify, lattices
from hklat.classify import (
    LatticeInvariants,
    NotPElementary,
    _pool_terms,
    _rank_one_orthogonal_group_surjects,
    embed_in_L,
    genus_unique,
    invariants_of,
    recognize,
)
from hklat import fqf
from hklat.fqf import (
    FiniteQuadraticForm,
    cyclic_form,
    even_lattice_exists_report,
    normal_key,
    p_elementary_form,
    trivial_form,
)
from hklat.cli import main
from hklat.errors import InvalidParameter
from hklat.lattices import Lattice, atom_data, discriminant_form, realize
from hklat.tables import LATTICE_NAMES
from snf_oracle import mat_mul
from test_exact import _random_unimodular, transpose
from test_lattices import atom_sums


def library_p_elementary_form(p, s_plus, s_minus, a):
    """The library's route, as tables.enumerate_triples takes it: the first
    p-elementary class of length a that passes Nikulin's test, or None."""
    forms = (p_elementary_form(p, a, nonresidue) for nonresidue in (False, True))
    return next((q for q in forms if even_lattice_exists(s_plus, s_minus, q)), None)


def library_p_elementary_exists(p, s_plus, s_minus, a):
    return library_p_elementary_form(p, s_plus, s_minus, a) is not None


def test_hyperbolic_existence_examples():
    for p, r, a, exists in ((3, 16, 1, True), (3, 4, 0, False), (3, 2, 2, True)):  # U(3)
        assert hyperbolic_p_elementary_exists(p, r, a) == exists
        assert library_p_elementary_exists(p, 1, r - 1, a) == exists


def test_hyperbolic_existence_matches_witnesses():
    assert hyperbolic_p_elementary_exists(3, 4, 1)
    lat = realize("U + A2")
    assert lat.signature() == (1, 3)
    assert library_p_elementary_exists(3, 1, 3, 1)


def test_split_off_U():
    assert split_off_U(2, 16, 1)
    assert not split_off_U(1, 1, 2)
    assert split_off_U(2, 2, 1)


def test_indefinite_existence_examples():
    assert library_p_elementary_exists(3, 2, 16, 1)
    assert library_p_elementary_exists(3, 2, 0, 1)  # witness A2(-1)
    assert not library_p_elementary_exists(3, 2, 16, 18)  # a > rank
    assert not library_p_elementary_exists(3, 2, 0, 0)
    assert not library_p_elementary_exists(3, 2, 0, 2)
    assert library_p_elementary_exists(3, 2, 2, 2)  # witness U + U(3)
    # signature 3 - 10 = 1 mod 8 is no Gauss signature of a 3-elementary form
    assert not library_p_elementary_exists(3, 3, 10, 1)
    for nonresidue in (False, True):
        form = p_elementary_form(3, 1, nonresidue)
        assert even_lattice_exists_report(3, 10, form) == (False, "E2")


def _invariants(name):
    return invariants_of(realize(name))


def test_embed_row_3_11_1():
    report = embed_in_L(_invariants("U^2 + E8^2 + A2"))
    assert report.embeds
    t = report.orthogonal_invariants
    assert (t.s_plus, t.s_minus) == (1, 0)
    expected = cyclic_form(2, 3).dsum(cyclic_form(3, 2))
    assert forms_isomorphic(t.form, expected)
    assert forms_isomorphic(t.form, discriminant_form(realize("<6>")))
    assert str(recognize(t)) == "<6>"
    assert (t.p, t.a) == (None, 1)
    assert report.unique_embedding


def test_embed_excluded_row():
    s = LatticeInvariants(2, 16, discriminant_form(realize("E6*(3)")))
    assert (s.p, s.a) == (3, 5)
    report = embed_in_L(s)
    assert not report.embeds


def test_embed_row_3_2_0():
    report = embed_in_L(_invariants("U^2"))
    assert report.embeds
    t = report.orthogonal_invariants
    assert (t.s_plus, t.s_minus) == (1, 18)
    assert forms_isomorphic(t.form, cyclic_form(2, 3))


def test_embed_rejects_mixed_group():
    for _ in range(2):  # a rejection is not kept: it raises every time
        with pytest.raises(NotPElementary):
            embed_in_L(_invariants("<6>"))


def test_embed_in_L_reports_an_equal_S_once(monkeypatch):
    # the second S is the first with a fresh form of the same data: it reads
    # the first report, summing no q_T and running no existence test
    first = _invariants("U + A2^2 + E6")
    form = first.form
    copy = FiniteQuadraticForm(form.orders, form.q, form.b)
    second = LatticeInvariants(first.s_plus, first.s_minus, copy)
    assert second == first and copy is not form
    calls = []
    dsum = FiniteQuadraticForm.dsum
    monkeypatch.setattr(
        FiniteQuadraticForm, "dsum", lambda self, other: calls.append("dsum") or dsum(self, other)
    )
    monkeypatch.setattr(
        classify,
        "even_lattice_exists_report",
        lambda *args: calls.append("exists") or even_lattice_exists_report(*args),
    )
    embed_in_L.cache_clear()
    report = embed_in_L(first)
    assert report.embeds and calls == ["dsum", "exists"]
    calls.clear()
    assert embed_in_L(second) is report
    assert calls == []


def test_embed_signature_overflow():
    s = LatticeInvariants(4, 0, trivial_form())
    assert not embed_in_L(s).embeds


def test_genus_repr_rebuilds_an_equal_genus():
    text = repr(classify.AMBIENT_GENUS)
    assert text == (
        "LatticeInvariants(s_plus=3, s_minus=20, "
        "form=FiniteQuadraticForm(orders=(2,), q=(3,), b=((1,),)))"
    )
    names = {"LatticeInvariants": LatticeInvariants, "FiniteQuadraticForm": FiniteQuadraticForm}
    assert eval(text, names) == classify.AMBIENT_GENUS


def test_definite_complement_gets_no_genus_certificate():
    # genus_unique is a criterion for indefinite lattices only; here T is
    # negative definite of signature (0, 17)
    report = embed_in_L(_invariants("U(5)^2 + U"))
    t = report.orthogonal_invariants
    assert (t.s_plus, t.s_minus) == (0, 17)
    assert not report.unique_embedding
    assert not report.exception_flag


def test_genus_unique_examples():
    assert genus_unique(3, 18)
    assert genus_unique(3, 1)
    assert genus_unique(22, 3)
    # contrast: rank 2 with a huge square-rich determinant does admit a k
    assert not genus_unique(2, 64)
    # k = 5 = 1 mod 4 is not a square and 5^3 divides 4·125 and 4·250
    assert not genus_unique(3, 125)
    assert not genus_unique(3, 250)


def _genus_unique_by_scan(rank, det):
    """Oracle: the one-class test by trying every k >= 2 with k^C(n,2) <= B."""
    bound = 4 ** (rank // 2) * abs(det)
    exponent = rank * (rank - 1) // 2
    k = 2
    while k**exponent <= bound:
        if k % 4 in (0, 1) and math.isqrt(k) ** 2 != k and bound % k**exponent == 0:
            return False
        k += 1
    return True


def test_genus_unique_agrees_with_the_scan():
    answers = set()
    for rank in range(2, 9):
        for det in range(1, 800):
            for d in (det, -det):
                answer = genus_unique(rank, d)
                assert answer == _genus_unique_by_scan(rank, d), (rank, d)
                answers.add(answer)
    assert answers == {True, False}
    with pytest.raises(InvalidParameter):
        genus_unique(3, 0)


def test_genus_unique_on_exception_complements():
    # the three non-unique embeddings still have genus-unique complements
    for rank, det in ((3, 2 * 3**2), (7, 2 * 3**6), (3, 2 * 11**2)):
        assert genus_unique(rank, det)


def test_recognize_examples():
    inv = _invariants("U^2 + E6 + E8")
    expr = recognize(inv)
    assert expr is not None
    assert forms_isomorphic(invariants_of(realize(str(expr))).form, inv.form)
    assert realize(str(expr)).signature() == (2, 16)

    inv = _invariants("U(7) + E8 + <-2>")
    assert str(recognize(inv)) == "U(7) + E8 + <-2>"

    inv = _invariants("<6>")
    assert str(recognize(inv)) == "<6>"


def _assert_recognize_agrees_with_oracle(target):
    """The budgeted search's name where it answers; where it gives up, None
    or a catalog sum with the target's signature and normal key."""
    expr = recognize(target)
    oracle = recognize_oracle.recognize(target)
    if oracle is not None:
        assert str(expr) == str(oracle)
    elif expr is not None:
        found = invariants_of(realize(expr))
        assert (found.s_plus, found.s_minus) == (target.s_plus, target.s_minus), expr
        assert normal_key(found.form) == normal_key(target.form), expr
    return expr


def test_recognize_matches_the_budgeted_search_on_table_names():
    for pair in LATTICE_NAMES.values():
        for name in pair:
            assert _assert_recognize_agrees_with_oracle(invariants_of(realize(name))), name


@settings(max_examples=40, deadline=None)
@given(atom_sums())
def test_recognize_matches_the_budgeted_search_on_sums(expr):
    _assert_recognize_agrees_with_oracle(invariants_of(realize(expr)))


def test_pool_of_a_large_prime_builds_no_root_term_beyond_the_rank(monkeypatch):
    # T of K223 in L has rank 21 and |A_T| = 2·223: A_222 cannot be a summand
    target = embed_in_L(invariants_of(realize("K223"))).orthogonal_invariants
    assert (target.rank, target.form.order) == (21, 446)
    built = []

    def recording(atom, twist):
        built.append((atom, twist))
        return atom_data(atom, twist)

    monkeypatch.setattr(lattices, "atom_data", recording)
    recognize.cache_clear()
    assert str(recognize(target)) == "U^2 + E8^2 + <446>"
    assert ("K223", 1) in built and ("A222", 1) not in built
    assert ("A222", 1) not in _pool_terms(target)


def test_roots_left_out_of_a_pool_change_no_answer():
    # targets whose pool leaves out some A_{p-1}: the budgeted search over
    # the pool with every A_{p-1}, that of the same form at a rank where
    # each fits, gives the same name
    left_out = 0
    for pair in LATTICE_NAMES.values():
        for name in pair:
            target = invariants_of(realize(name))
            largest = max(target.form.lengths_per_prime(), default=0)
            terms = _pool_terms(LatticeInvariants(0, largest, target.form))
            if len(terms) == len(_pool_terms(target)):
                continue
            left_out += 1
            oracle = recognize_oracle.recognize(target, terms=terms)
            assert oracle is not None and str(recognize(target)) == str(oracle), name
    assert left_out


def test_recognize_has_no_summand_budget():
    # ten summands, one more than the budgeted search tried
    for name in ("U^10", "<-2>^10"):
        assert str(recognize(invariants_of(realize(name)))) == name


def test_recognize_of_the_same_atoms_adds_no_local_keys(monkeypatch):
    # the second target is the first on other generators: the same signature
    # and Jordan blocks, so its search, run afresh, has the same pool and
    # computes only local keys that the first search computed
    first = invariants_of(realize("U + A2^2 + E6 + <-2>"))
    second = invariants_of(realize("<-2> + E6 + U + A2^2"))
    assert first.form != second.form
    assert _pool_terms(second) == _pool_terms(first)
    keys = []
    monkeypatch.setattr(
        classify, "local_key", lambda p, blocks: keys.append(fqf.local_key(p, blocks)) or keys[-1]
    )
    recognize.cache_clear()
    expr = recognize(first)
    seen = set(keys)
    keys.clear()
    recognize.cache_clear()
    assert recognize(second) == expr
    assert recognize.cache_info().misses == 1
    assert keys and set(keys) <= seen


def test_recognize_of_a_scale_no_pool_atom_has_computes_no_local_key(monkeypatch):
    # 32 copies of Z/4: every pool atom's 2-part has scale 2, so no pool sum
    # has the target's form, and the search stops before any partial sum
    target = _invariants("E8(4)^2 + E8(4)^2 + A4*(-5)^2 + E8(6)^2")
    assert (target.s_plus, target.s_minus) == (8, 48)
    keys = []
    monkeypatch.setattr(
        classify, "local_key", lambda p, blocks: keys.append(p) or fqf.local_key(p, blocks)
    )
    recognize.cache_clear()
    assert recognize(target) is None
    assert keys == []


def test_recognize_answers_a_genus_once():
    # the same genus on other generators: one search, then its answer is read
    first = _invariants("U + A2^2 + E6 + <-2>")
    second = _invariants("<-2> + E6 + U + A2^2")
    assert first.form != second.form and first == second
    recognize.cache_clear()
    expr = recognize(first)
    assert str(expr) == "E6^2 + <6>"
    assert recognize(second) is expr
    info = recognize.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_recognize_answers_are_kept_per_signature_and_form():
    # one pool each: the unimodular pair shares the trivial form and differs
    # in signature; the other pair shares signature and |A| and differs in form
    for names in (("U + E8", "U^2 + E8"), ("<-2> + <6>", "<2> + <-6>")):
        targets = [_invariants(name) for name in names]
        assert _pool_terms(targets[0]) == _pool_terms(targets[1])
        assert targets[0].form.order == targets[1].form.order
        for _ in range(2):
            assert [str(recognize(target)) for target in targets] == list(names)
    assert _invariants("U + E8").form == _invariants("U^2 + E8").form


def test_targets_with_different_prime_sets_do_not_share_a_pool():
    # |A_T| with the odd primes {3}, {3, 5}, and {3} with a 2-part
    names = ("U + A2^2", "U + A2 + A4", "U + A2 + <-2>")
    targets = [invariants_of(realize(name)) for name in names]
    assert len({_pool_terms(target) for target in targets}) == 3
    for name, target in zip(names, targets):
        assert str(recognize(target)) == name


def test_search_pool_unimodular_terms_are_U_and_E8():
    # the completeness of recognize rests on this: every other pool term has
    # |det| >= 2, so a catalog sum has at most Omega(|A_T|) of them
    odd = [cyclic_form(p, 2) for p in (3, 5, 7, 11, 13, 17, 19)]
    forms = [trivial_form(), cyclic_form(2, 1), *odd]
    forms += [cyclic_form(2, 1).dsum(form) for form in odd]
    forms.append(functools.reduce(FiniteQuadraticForm.dsum, forms[1:9]))
    for form in forms:
        pool = _pool_terms(LatticeInvariants(0, 0, form))
        unimodular = [term for term in pool if abs(atom_data(*term).det) == 1]
        assert unimodular == [("U", 1), ("E8", 1)], form


def test_rank_one_orthogonal_group_surjects_matches_a_unit_scan():
    # O(<n>) = {+-1}; it maps onto O(q) iff every unit u of Z/n with
    # q(u) = q(1) is +-1
    for n in range(2, 401, 2):
        for sign in (1, -1):
            form = cyclic_form(n, sign)
            preserving = [
                u for u in range(1, n)
                if math.gcd(u, n) == 1 and value(form, (u,)) == value(form, (1,))
            ]
            expected = all(u in (1, n - 1) for u in preserving)
            assert _rank_one_orthogonal_group_surjects(n) == expected, (n, sign)


def _on_random_basis(name, rng):
    """The Gram matrix of `name` on a random basis: P^T G P, P unimodular."""
    gram = realize(name).gram
    p = _random_unimodular(len(gram), rng)
    return mat_mul(mat_mul(transpose(p), gram), p)


@pytest.mark.parametrize("row", sorted(LATTICE_NAMES), ids=str)
def test_a_genus_on_other_bases_is_one_key(row, tmp_path, capsys):
    # each table row's S and T on seeded random bases: an equal genus, the
    # same embedding report and recognition, and the same `embed` output
    # below the line that names S
    s_name, t_name = LATTICE_NAMES[row]
    rng = random.Random(repr(row))
    embed_in_L.cache_clear()
    recognize.cache_clear()
    s, t = _invariants(s_name), _invariants(t_name)
    report = embed_in_L(s)
    answer = recognize(report.orthogonal_invariants)
    assert recognize(t) is answer
    assert main(["embed", "--expr", s_name]) == 0
    named = capsys.readouterr().out.splitlines()
    for i in range(3):
        gram = _on_random_basis(s_name, rng)
        s_moved = invariants_of(Lattice(gram))
        t_moved = invariants_of(Lattice(_on_random_basis(t_name, rng)))
        assert s_moved == s and hash(s_moved) == hash(s)
        assert t_moved == t
        assert embed_in_L(s_moved) is report
        assert recognize(t_moved) is answer
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps({"gram": [list(r) for r in gram]}))
        assert main(["embed", "--expr", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == named[1:]
    assert embed_in_L.cache_info().currsize == recognize.cache_info().currsize == 1


def test_pool_terms_are_built_once():
    from hklat.lattices import atom_data

    first = atom_data("E6*", 3)
    assert atom_data("E6*", 3) is first
    assert (len(first.gram), first.signature, first.det) == (6, (0, 6), 3**5)
    with pytest.raises(AttributeError):
        first.det = 7


def test_recognize_soundness_on_all_table_names():
    for _, _, _, _, _, s_name, t_name in TABLE_ROWS:
        for name in (s_name, t_name):
            target = invariants_of(realize(name))
            expr = recognize(target)
            assert expr is not None, name
            found = invariants_of(realize(str(expr)))
            assert (found.s_plus, found.s_minus) == (target.s_plus, target.s_minus)
            assert forms_isomorphic(found.form, target.form), name


def test_round_trip_s_to_t():
    # embedding the S of each row yields the invariants of the row's T
    for _, _, _, _, _, s_name, t_name in TABLE_ROWS:
        report = embed_in_L(invariants_of(realize(s_name)))
        assert report.embeds, s_name
        t, want = report.orthogonal_invariants, invariants_of(realize(t_name))
        assert (t.s_plus, t.s_minus) == (want.s_plus, want.s_minus), t_name
        assert forms_isomorphic(t.form, want.form), t_name
        assert (t.p, t.a) == (want.p, want.a), t_name


def test_hyperbolic_existence_has_catalog_witnesses():
    # whenever the closed conditions hold (small ranks), the recognizer finds
    # a catalog sum with exactly those invariants
    for p in (3, 7):
        for r in range(2, 13, 2):
            for a in range(0, min(r, 6) + 1):
                if not hyperbolic_p_elementary_exists(p, r, a):
                    continue
                form = library_p_elementary_form(p, 1, r - 1, a)
                assert form is not None, (p, r, a)
                target = LatticeInvariants(1, r - 1, form)
                expr = recognize(target)
                assert expr is not None, (p, r, a)
                lat = realize(str(expr))
                assert lat.signature() == (1, r - 1)
                assert forms_isomorphic(discriminant_form(lat), form)


def test_hyperbolic_closed_conditions_agree_with_general_test():
    # dual route: the closed-form conditions match the general existence test
    for p in (3, 5, 7):
        for r in range(2, 17, 2):
            for a in range(0, min(r, 8) + 1):
                closed = hyperbolic_p_elementary_exists(p, r, a)
                general = False
                for nonresidue in (False, True):
                    q = p_elementary_form(p, a, nonresidue)
                    if even_lattice_exists(1, r - 1, q):
                        general = True
                        break
                    if a == 0:
                        break
                assert closed == general, (p, r, a)
