import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fixedlocus_fixtures import h4_trace
from fqf_oracle import even_lattice_exists, forms_isomorphic
from golden_data import (
    EXCEPTION_TRIPLES,
    FANO_ONLY_TRIPLES,
    NATURAL_P5_ROWS,
    NO_REALIZATION_TRIPLES,
    ROW_COUNTS,
    TABLE_ROWS,
)
from hklat.classify import LatticeInvariants, embed_in_L, invariants_of
from hklat.fqf import p_elementary_form
from hklat.errors import InvalidParameter
from hklat.lattices import (
    discriminant_data,
    discriminant_form,
    realize,
)
from hklat.tables import (
    SUPPORTED_PRIMES,
    UnsupportedPrime,
    enumerate_triples,
    h_star,
    lefschetz_chi,
    natural_verdict,
    render,
)

GOLDEN = Path(__file__).parent / "golden"


def test_h_star_examples():
    assert h_star(3, 11, 1) == 67
    assert h_star(7, 2, 0) == 117
    assert h_star(5, 5, 1) == 31


def test_lefschetz_chi_examples():
    assert lefschetz_chi(3, 11) == 27
    assert lefschetz_chi(11, 1) == 104
    assert lefschetz_chi(3, 1) == 252


def test_closed_forms_always_integral_on_integer_input():
    # the integer formulas equal the paper's rational ones, whose half-integer
    # terms cancel for every integer (p, m, a)
    half = Fraction(1, 2)
    for p in range(2, 23):
        for m in range(1, 12):
            chi = 324 - Fraction(51, 2) * m * p + half * m * m * p * p
            assert (type(lefschetz_chi(p, m)), lefschetz_chi(p, m)) == (int, chi), (p, m)
            for a in range(0, m + 1):
                hs = 324 - 2 * a * (25 - a) - (p - 2) * m * (25 - 2 * a) + half * m * (
                    (p - 2) ** 2 * m - p
                )
                assert (type(h_star(p, m, a)), h_star(p, m, a)) == (int, hs), (p, m, a)


def test_h4_trace_examples():
    assert h4_trace(11, 1) == 45
    assert 2 + 2 * (1 - 11) + h4_trace(11, 1) == lefschetz_chi(3, 11)
    assert h4_trace(5, 5) == 0
    assert h4_trace(1, 13) == 78
    assert 2 + 2 * (13 - 1) + h4_trace(1, 13) == lefschetz_chi(11, 1)


def test_lefschetz_assembly_identity():
    for p, m, a, chi, hs, _, _ in TABLE_ROWS:
        r = 23 - (p - 1) * m
        assert 2 + 2 * (r - m) + h4_trace(m, r) == chi


def test_moduli_dimension():
    rows = {(r.p, r.m, r.a): r for p in SUPPORTED_PRIMES for r in enumerate_triples(p)}
    assert rows[(3, 11, 1)].moduli_dim == 10
    assert rows[(3, 5, 5)].moduli_dim == 4
    assert all(r.moduli_dim == r.m - 1 for r in rows.values())


def test_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        enumerate_triples(2)
    with pytest.raises(UnsupportedPrime):
        enumerate_triples(23)


def test_row_sets_match_tables():
    expected = {}
    for p, m, a, chi, hs, s, t in TABLE_ROWS:
        expected.setdefault(p, []).append((m, a, chi, hs, s, t))
    for p, rows in expected.items():
        got = [(r.m, r.a, r.chi, r.h_star, r.S, r.T) for r in enumerate_triples(p)]
        assert got == rows, f"p={p}"
        assert len(got) == ROW_COUNTS[p]


def test_excluded_triple_absent():
    assert (9, 5) not in {(r.m, r.a) for r in enumerate_triples(3)}


def test_flags():
    for p in (3, 11, 13):
        for r in enumerate_triples(p):
            key = (r.p, r.m, r.a)
            assert r.embedding_exception == (key in EXCEPTION_TRIPLES)
            assert r.s_unique_embedding == (key not in EXCEPTION_TRIPLES)
            assert r.no_known_realization == (key in NO_REALIZATION_TRIPLES)
            assert r.t_unique_embedding


def test_p5_rows_natural_only():
    rows = enumerate_triples(5)
    assert all(r.natural_only for r in rows)
    assert all("natural" in r.realized for r in rows)
    assert not any(r.natural_only for r in enumerate_triples(7))


def _candidate_rows():
    """Each (p, m, a) whose S exists and embeds in L, with the form of S: the
    table rows and the order-5 rows that the natural filter drops."""
    for p in SUPPORTED_PRIMES:
        for m in range(22 // (p - 1), 0, -1):
            rank_s = (p - 1) * m
            for a in range(min(rank_s, 23 - rank_s, m) + 1):
                for form in (p_elementary_form(p, a), p_elementary_form(p, a, nonresidue=True)):
                    s = LatticeInvariants(2, rank_s - 2, form)
                    if even_lattice_exists(2, rank_s - 2, form):
                        if embed_in_L(s).embeds:
                            yield (p, m, a), form
                        break  # for a >= 1 the other form fails E2


def test_natural_verdict_matches_the_published_classification():
    candidates = dict(_candidate_rows())
    assert len(candidates) == len(list(_candidate_rows()))
    table = {(r.p, r.m, r.a): r for p in SUPPORTED_PRIMES for r in enumerate_triples(p)}
    assert len(candidates) == 54 and set(table) <= set(candidates)
    assert len({key for key in candidates if key[0] == 5} - set(table)) == 9
    non_natural = FANO_ONLY_TRIPLES | NO_REALIZATION_TRIPLES
    for key, form in candidates.items():
        p, m, a = key
        natural = (m, a) in NATURAL_P5_ROWS if p == 5 else key not in non_natural
        assert natural_verdict(p, m, a, form)[0] == natural, key
        if key in table:
            assert ("natural" in table[key].realized) == natural, key


def test_natural_verdict_reasons_of_the_non_natural_rows():
    # (3, 11, 1): rank S = 22, so T' would need signature (1, -1);
    # (3, 8, 6): -q_S fails the determinant condition at p = 3;
    # (13, 1, 0): m - a is odd, against Smith theory on the K3
    verdicts = {key: natural_verdict(*key, form) for key, form in _candidate_rows()}
    assert {key: v for key, v in verdicts.items() if key[0] != 5 and not v[0]} == {
        (3, 11, 1): (False, "E1"),
        (3, 8, 6): (False, "E3:p=3"),
        (13, 1, 0): (False, "N2"),
    }


PARITY_BREAKERS = (
    (5, 5, 0), (5, 5, 2), (5, 4, 1), (5, 4, 3), (5, 3, 0), (5, 3, 2), (5, 2, 1), (5, 1, 0),
    (13, 1, 0),
)


def test_nine_candidates_break_the_parity_of_an_order_p_isometry():
    # An isometry of order p of S with no fixed vector makes S a lattice over
    # Z[zeta_p] of rank m, so v_p(det S) = (p - 2)m = m mod 2, that is
    # a = m mod 2 for a p-elementary S (ROADMAP item 19).  Nine of the 54
    # candidates break it: the golden row (13, 1, 0), flagged
    # no-known-realization, and eight order-5 rows that N2 drops.
    candidates = dict(_candidate_rows())
    assert len(candidates) == 54
    odd = [key for key in candidates if (key[1] - key[2]) % 2]
    assert sorted(odd) == sorted(PARITY_BREAKERS)
    table = {(r.p, r.m, r.a) for p in SUPPORTED_PRIMES for r in enumerate_triples(p)}
    assert [key for key in odd if key in table] == [(13, 1, 0)]
    assert (13, 1, 0) in NO_REALIZATION_TRIPLES
    assert all(natural_verdict(*key, candidates[key]) == (False, "N2") for key in odd)


def test_h_star_chi_gap_identity():
    # h* - chi = 2(a - m)(a - 25 + mp - m) >= 0 on every emitted row
    for p in (3, 5, 7, 11, 13, 17, 19):
        for r in enumerate_triples(p):
            gap = r.h_star - r.chi
            assert gap == 2 * (r.a - r.m) * (r.a - 25 + r.m * p - r.m)
            assert gap >= 0


def test_rank_and_signature_of_names():
    for p, m, a, _, _, s_name, t_name in TABLE_ROWS:
        s = realize(s_name)
        t = realize(t_name)
        assert s.rank == (p - 1) * m
        assert t.rank == 23 - (p - 1) * m
        assert s.signature() == (2, (p - 1) * m - 2)
        assert t.signature() == (1, 22 - (p - 1) * m)


def test_s_names_are_p_elementary_with_length_a():
    for p, m, a, _, _, s_name, _ in TABLE_ROWS:
        inv = invariants_of(realize(s_name))  # p = 0 when unimodular (a = 0)
        assert (inv.p, inv.a) == (p if a else 0, a), s_name


def test_t_names_have_expected_group():
    for p, m, a, _, _, _, t_name in TABLE_ROWS:
        factors = discriminant_data(realize(t_name)).invariant_factors
        flat = []
        for f in factors:
            if f == 2 * p:
                flat.extend([2, p])
            else:
                flat.append(f)
        assert sorted(flat) == sorted([2] + [p] * a), t_name


def test_table_names_match_computed_invariants():
    # stored S names realize the pipeline's S invariants; stored T names
    # realize the embedding's orthogonal invariants
    for p, m, a, _, _, s_name, t_name in TABLE_ROWS:
        s_inv = invariants_of(realize(s_name))
        assert s_inv.p == (p if a else 0) and s_inv.a == a
        report = embed_in_L(s_inv)
        assert report.embeds
        assert forms_isomorphic(
            discriminant_form(realize(t_name)), report.orthogonal_invariants.form
        )


def test_moduli_dim_matches_fano_examples():
    rows = {(r.m, r.a): r for r in enumerate_triples(3)}
    # the four order-3 families on Fano varieties of lines have dimensions
    # 10, 4, 7, 6 = rank(S)/2 - 1
    for (m, a), dim in (((11, 1), 10), ((5, 5), 4), ((8, 6), 7), ((7, 7), 6)):
        row = rows[(m, a)]
        assert row.moduli_dim == dim
        assert dim == row.s_rank // 2 - 1


def test_markdown_and_csv_shapes():
    md = render((19,), "md")
    assert "| 19 | 1 | 1 | 20 | 20 | K19(-1) + E8^2 | U + K19 + <-2> |" in md
    csv_text = render((19,), "csv")
    lines = csv_text.strip().split("\n")
    assert len(lines) == 2
    assert ",20,20," in lines[1]
    assert render((5,), "md").count("Natural automorphisms only") == 1


def _golden_slice(fmt, p):
    """The part of tests/golden/tables_all.<fmt> that belongs to the prime p:
    its markdown section, or the CSV header over its rows, or its JSON
    records in the golden's layout."""
    text = (GOLDEN / f"tables_all.{fmt}").read_text()
    if fmt == "md":
        sections = re.finditer(r"^## Order (\d+)\n.*?(?=\n## Order |\Z)", text, re.M | re.S)
        return next(m.group(0) for m in sections if m.group(1) == str(p))
    if fmt == "csv":
        header, *rows = text.splitlines(keepends=True)
        return header + "".join(r for r in rows if r.startswith(f"{p},"))
    return json.dumps([r for r in json.loads(text) if r["p"] == p], indent=2)


@pytest.mark.parametrize("fmt", ("md", "csv", "json"))
def test_each_single_prime_table_is_its_slice_of_the_golden(fmt):
    for p in SUPPORTED_PRIMES:
        assert render((p,), fmt) == _golden_slice(fmt, p), (fmt, p)


def test_render_rejects_an_unknown_format():
    with pytest.raises(InvalidParameter):
        render((3,), "xml")
