"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
All comparisons are exact, the Gauss signature included.
"""

import time

from golden_data import (
    EXCEPTION_TRIPLES,
    NO_REALIZATION_TRIPLES,
    ROW_COUNTS,
    TABLE_ROWS,
    figure_marker_set,
)
from fixedlocus_fixtures import (
    FANO_FIXTURES,
    HILB2_NATURAL_355,
    census_chi_closed_form,
    cross_check_against_table,
    h4_trace,
)
from fqf_oracle import cyclic_form, forms_isomorphic, trivial_form
from hklat.classify import embed_in_L, invariants_of
from hklat.fixedlocus import K3FixedLocus, cross_check_totals, hilb2_census
from hklat.fqf import even_lattice_exists_report, gauss_signature
from hklat.involutions import (
    CASE_I,
    CASE_II,
    TwoElemInvariants,
    classify_involution_embeddings,
    figure_points,
)
from hklat.lattices import discriminant_form, realize, recognize
from hklat.tables import enumerate_triples, h_star, lefschetz_chi

def report(criterion, description):
    print(f"[criterion {criterion}] PASS  {description}")


def test_criterion_1_table_reproduction():
    start = time.time()
    expected = {}
    for p, m, a, chi, hs, s, t in TABLE_ROWS:
        expected.setdefault(p, []).append((m, a, chi, hs, s, t))
    for p, want in expected.items():
        rows = enumerate_triples(p)
        got = [(r.m, r.a, r.chi, r.h_star, r.S, r.T) for r in rows]
        assert got == want, f"table for p={p} differs"
        assert len(rows) == ROW_COUNTS[p]
        for r in rows:
            key = (r.p, r.m, r.a)
            assert r.embedding_exception == (key in EXCEPTION_TRIPLES)
            assert r.no_known_realization == (key in NO_REALIZATION_TRIPLES)
        if p == 5:
            assert all(r.natural_only for r in rows)
    keys3 = {(r.m, r.a) for r in enumerate_triples(3)}
    assert (9, 5) not in keys3 and (11, 1) in keys3
    elapsed = time.time() - start
    assert elapsed < 30
    report(1, f"all 45 rows of the seven tables reproduced exactly ({elapsed:.1f}s)")


def test_criterion_2_exclusion_oracle():
    start = time.time()
    q = trivial_form()
    for _ in range(5):
        q = q.dsum(cyclic_form(3, 4))
    q = q.dsum(cyclic_form(2, 3))
    ok, reason = even_lattice_exists_report(1, 4, q)
    assert not ok
    assert reason == "E3:p=3"
    assert time.time() - start < 1
    report(2, "the (3,9,5) complement fails existence via the p=3 square-class test")


def test_criterion_3_milgram_sweep():
    start = time.time()
    names = {
        "U", "U(2)", "U(3)", "U(5)", "U(7)", "U(11)", "U(13)", "U(17)", "U(19)",
        "A1", "A2", "A3", "A4", "A5", "A6", "A8", "A10", "A12", "A16", "A18",
        "D4", "D5", "D6", "D8", "E6", "E7", "E8", "E8(2)",
        "K7", "K11", "K19", "H5", "H13", "H17", "L17", "E6*(3)", "A4*(5)",
        "<2>", "<-2>", "<6>", "<-6>", "A2(-1)", "K11(-1)", "K19(-1)",
    }
    for _, _, _, _, _, s, t in TABLE_ROWS:
        names.add(s)
        names.add(t)
    for name in sorted(names):
        lat = realize(name)
        s_plus, s_minus = lat.signature()
        assert gauss_signature(discriminant_form(lat)) == (s_plus - s_minus) % 8, name
    elapsed = time.time() - start
    assert elapsed < 10
    report(3, f"Milgram holds for {len(names)} catalog and table lattices ({elapsed:.1f}s)")


def test_criterion_4_discriminant_form_goldens():
    ambient = realize("U^3 + E8^2 + <-2>")
    assert forms_isomorphic(discriminant_form(ambient), cyclic_form(2, 3))
    target = trivial_form()
    for _ in range(5):
        target = target.dsum(cyclic_form(3, 2))
    assert forms_isomorphic(discriminant_form(realize("E6*(3)")), target)
    assert forms_isomorphic(
        discriminant_form(realize("A2")), cyclic_form(3, 4)
    )
    report(4, "discriminant forms of the ambient lattice, E6*(3) and A2 are as required")


def test_criterion_5_figure_reproduction():
    start = time.time()
    f1, f2 = figure_points(1), figure_points(2)
    assert f1 == figure_marker_set(1)
    assert f2 == figure_marker_set(2)
    assert {(1, 1, 1), (2, 0, 0), (20, 2, 1)} <= f1
    assert {(2, 2, 1), (3, 1, 0), (21, 3, 1)} <= f2
    elapsed = time.time() - start
    assert elapsed < 5
    report(5, f"both embedding charts match the published point sets ({elapsed:.1f}s)")


def test_criterion_6_involution_examples():
    classes = classify_involution_embeddings(TwoElemInvariants(1, 0, 1, 1))
    assert len(classes) == 1 and classes[0].case == CASE_I
    s = classes[0].s_invariants
    assert (s.r, s.a, s.delta) == (22, 2, 1)
    classes = classify_involution_embeddings(TwoElemInvariants(1, 1, 2, 1))
    assert [(c.case, c.s_invariants.a, c.s_invariants.delta) for c in classes] == [
        (CASE_I, 3, 1),
        (CASE_II, 1, 1),
    ]
    report(6, "rank-one and rank-two involution lattices classify as required")


def test_criterion_7_fixed_locus_cross_checks():
    assert cross_check_against_table(HILB2_NATURAL_355, 3, 5, 5)
    census = hilb2_census(HILB2_NATURAL_355)
    assert (census.chi, census.h_star) == (54, 54)
    expected = {
        "fano-surface-of-cubic-threefold": ((27, 67), (3, 11, 1)),
        "three-cubic-surfaces-and-27-points": ((54, 54), (3, 5, 5)),
        "three-elliptic-curves": ((0, 12), (3, 8, 6)),
        "three-points-three-rational-curves": ((9, 9), (3, 7, 7)),
    }
    for fx in FANO_FIXTURES:
        totals, triple = expected[fx.label]
        assert fx.totals() == totals
        assert fx.triple == triple
        assert cross_check_totals(*totals, *triple)
    report(7, "all five fixed-locus censuses match their classification rows")


def test_criterion_8_identity_suite():
    start = time.time()
    for p in (3, 5, 7, 11, 13, 17, 19):
        for r in enumerate_triples(p):
            gap = r.h_star - r.chi
            assert gap == 2 * (r.a - r.m) * (r.a - 25 + r.m * p - r.m)
            rank_t = 23 - (p - 1) * r.m
            assert 2 + 2 * (rank_t - r.m) + h4_trace(r.m, rank_t) == r.chi
    for g in range(0, 11):
        for N in range(0, 13):
            for k in range(0, 10):
                chi, hs = census_chi_closed_form(g, N, k)
                for split in ((N, 0), (0, N)):
                    census = hilb2_census(K3FixedLocus(p=3, k=k, n=split, genus_curve=g))
                    assert (census.chi, census.h_star) == (chi, hs)
    elapsed = time.time() - start
    assert elapsed < 10
    report(8, f"counting identities hold on all rows and the census grid ({elapsed:.1f}s)")


def test_criterion_9_recognizer_soundness():
    start = time.time()
    for _, _, _, _, _, s_name, t_name in TABLE_ROWS:
        for name in (s_name, t_name):
            target = invariants_of(realize(name))
            expr = recognize(target)
            assert expr is not None, name
            found = invariants_of(realize(str(expr)))
            assert (found.s_plus, found.s_minus) == (target.s_plus, target.s_minus)
            assert found.form.order <= 10**4
            assert forms_isomorphic(found.form, target.form), name
    elapsed = time.time() - start
    assert elapsed < 60
    report(9, f"recognize() returns isomorphic expressions for all table names ({elapsed:.1f}s)")
