import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixedlocus_fixtures import (
    FANO_FIXTURES,
    HILB2_NATURAL_355,
    census_as_dict,
    census_chi_closed_form,
    cross_check_against_table,
    local_actions_by_scan,
)
from hklat.errors import InvalidParameter, UnsupportedPrime
from hklat.fixedlocus import (
    K3FixedLocus,
    cross_check_totals,
    enumerate_local_actions,
    hilb2_census,
    k3_fixed_locus_from_json,
)


def test_census_five_points_two_curves():
    census = hilb2_census(HILB2_NATURAL_355)
    assert census.isolated_points == 10
    assert census.rational_curves == 17
    assert census.surfaces_p1_x_p1 == 1
    assert census.surfaces_p2 == 2
    assert census.genus_g_curves == 0
    assert census.chi == 54 and census.h_star == 54


def test_census_genus_two_curve_only():
    f = K3FixedLocus(p=3, k=0, n=(0, 0), genus_curve=2)
    census = hilb2_census(f)
    assert census.genus_g_curves == 1
    assert census.surfaces_hilb2_cg == 1
    assert census.chi == -1
    assert census_chi_closed_form(2, 0, 0)[0] == -1


def test_census_empty_locus():
    f = K3FixedLocus(p=3, k=0, n=(0, 0))
    census = hilb2_census(f)
    assert census.chi == 0 and census.h_star == 0
    assert census_as_dict(census)["surfaces"] == {
        "p1_x_p1": 0,
        "p1_x_cg": 0,
        "p2": 0,
        "hilb2_cg": 0,
    }


@st.composite
def k3_loci(draw):
    """A locus of any odd prime p <= 19, with or without a genus-g curve
    (g <= 10, so chi goes negative), every count up to 10^6."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 17, 19)))
    counts = st.integers(min_value=0, max_value=20) | st.integers(min_value=0, max_value=10**6)
    n = draw(st.lists(counts, min_size=p - 1, max_size=p - 1))
    genus = draw(st.none() | st.integers(min_value=0, max_value=10))
    return K3FixedLocus(p=p, k=draw(counts), n=n, genus_curve=genus)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(k3_loci())
# chi = (2g - 2 - N - 2k)(2g - 5 - N - 2k) / 2 = -1 for N + 2k = 2g - 4
@example(K3FixedLocus(p=3, k=1, n=(14, 0), genus_curve=10))
def test_census_json_text_is_json_dumps(locus):
    census = hilb2_census(locus)
    assert census.as_json() == json.dumps(census_as_dict(census), indent=2)


def test_closed_form_examples():
    assert census_chi_closed_form(2, 0, 0) == (-1, 23)
    assert census_chi_closed_form(0, 0, 0) == (5, 5)
    assert census_chi_closed_form(1, 3, 0)[0] == 9


def test_rational_curve_as_genus_zero():
    # a single genus-0 curve contributes one curve (chi 2) plus its Hilbert
    # square, a plane (chi 3)
    f = K3FixedLocus(p=3, k=0, n=(0, 0), genus_curve=0)
    census = hilb2_census(f)
    assert census.chi == 5 and census.h_star == 5


def test_closed_form_agrees_with_census_on_grid():
    for g in range(0, 11):
        for N in range(0, 13):
            for k in range(0, 10):
                chi, hs = census_chi_closed_form(g, N, k)
                for split in ((N, 0), (0, N), (N // 2, N - N // 2)):
                    f = K3FixedLocus(p=3, k=k, n=split, genus_curve=g)
                    census = hilb2_census(f)
                    assert (census.chi, census.h_star) == (chi, hs), (g, N, k, split)


def test_gap_is_genus_weighted():
    for g in range(0, 6):
        for N in range(0, 6):
            for k in range(0, 5):
                f = K3FixedLocus(p=3, k=k, n=(N, 0), genus_curve=g)
                census = hilb2_census(f)
                # per-component gaps: 4g per curve copy, 8g per C_g surface factor
                assert census.h_star - census.chi == 4 * g * (N + 1) + 8 * g * k + 8 * g
                assert census.h_star >= census.chi


def test_local_actions_p3():
    recs = enumerate_local_actions(3)
    fam1 = [(r["multiplicities"][0], r["multiplicities"][2]) for r in recs if r["family"] == 1]
    assert fam1 == [(0, 4), (1, 2), (2, 0)]
    assert all(r["family"] == 1 for r in recs)  # family 2 empty at p = 3


def test_local_actions_pfaffian():
    for p in (3, 5, 7, 11, 13):
        recs = enumerate_local_actions(p)
        fam1 = [r for r in recs if r["family"] == 1]
        assert (2, 2, 0) in [r["multiplicities"] for r in fam1]
        for r in fam1:
            a, _, b = r["multiplicities"]
            assert (a + (p + 1) // 2 * b - 2) % p == 0
        for r in recs:
            if r["family"] == 2:
                a, _, b, _ = r["multiplicities"]
                assert a + b == 2
                assert (2 * r["i"] - 1) % p != 0


def test_local_actions_p7_admits_1_2():
    recs = enumerate_local_actions(7)
    assert (1, 1, 2) in [r["multiplicities"] for r in recs if r["family"] == 1]


ODD_PRIMES_TO_23 = (3, 5, 7, 11, 13, 17, 19, 23)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_23)
def test_local_actions_agree_with_scan(p):
    assert enumerate_local_actions(p) == local_actions_by_scan(p)


@pytest.mark.parametrize("p", ODD_PRIMES_TO_23)
def test_local_actions_list_each_pair_once(p):
    recs = [r for r in enumerate_local_actions(p) if r["family"] == 2]
    pairs = [frozenset((r["i"], (1 - r["i"]) % p)) for r in recs[::3]]
    expected = {frozenset((i, (1 - i) % p)) for i in range(2, p) if (2 * i - 1) % p}
    assert len(pairs) == len(set(pairs)) and set(pairs) == expected
    # each pattern's three rows share one exponent tuple
    for first, *rest in zip(recs[::3], recs[1::3], recs[2::3]):
        assert all(r["eigenvalue_exponents"] is first["eigenvalue_exponents"] for r in rest)
        assert [r["fixed_dim"] for r in (first, *rest)] == [0, 1, 2]


def test_local_actions_stop_at_23(monkeypatch):
    assert enumerate_local_actions(23)
    for p in (29, 2**127 - 1):
        with pytest.raises(UnsupportedPrime):
            enumerate_local_actions(p)
    # the bound comes before the primality test, so a huge p is not factored
    monkeypatch.setattr("hklat.fixedlocus.is_prime", lambda n: pytest.fail(f"is_prime({n})"))
    with pytest.raises(UnsupportedPrime):
        enumerate_local_actions(10**40 + 1)


def test_cross_checks():
    assert cross_check_against_table(HILB2_NATURAL_355, 3, 5, 5)
    assert not cross_check_against_table(HILB2_NATURAL_355, 3, 6, 4)
    for fx in FANO_FIXTURES:
        chi, hs = fx.totals()
        assert cross_check_totals(chi, hs, *fx.triple), fx.label


def test_fixture_totals():
    by_label = {fx.label: fx.totals() for fx in FANO_FIXTURES}
    assert by_label["fano-surface-of-cubic-threefold"] == (27, 67)
    assert by_label["three-cubic-surfaces-and-27-points"] == (54, 54)
    assert by_label["three-elliptic-curves"] == (0, 12)
    assert by_label["three-points-three-rational-curves"] == (9, 9)


def test_json_input():
    f = k3_fixed_locus_from_json('{"p": 3, "genus_curve": 2, "k": 1, "n": [0, 3]}')
    assert f.p == 3 and f.k == 1 and f.N == 3 and f.genus_curve == 2
    assert f.n_half == 3
    f2 = k3_fixed_locus_from_json('{"p": 5, "k": 0, "n": [1, 0, 2, 0]}')
    assert f2.genus_curve is None and f2.N == 3


def test_validation():
    with pytest.raises(ValueError):
        K3FixedLocus(p=4, k=0, n=(0, 0, 0))
    with pytest.raises(ValueError):
        K3FixedLocus(p=3, k=0, n=(0, 0, 0))
    with pytest.raises(ValueError):
        K3FixedLocus(p=3, k=-1, n=(0, 0))
    with pytest.raises(ValueError):
        K3FixedLocus(p=3, k=0, n=(0, 0), genus_curve=-2)
    # no K3 surface has a non-symplectic automorphism of prime order > 19
    assert K3FixedLocus(p=19, k=0, n=(0,) * 18).N == 0
    with pytest.raises(UnsupportedPrime):
        K3FixedLocus(p=23, k=0, n=(0,) * 22)


@pytest.mark.parametrize("kwargs", [
    dict(p=3, k=1.5, n=(0, 0)),
    dict(p=3, k=True, n=(0, 0)),
    dict(p=3.0, k=0, n=(0, 0)),
    dict(p=3, k=0, n=(2.9, 0)),
    dict(p=3, k=0, n=(True, 0)),
    dict(p=3, k=0, n=("1", 0)),
    dict(p=3, k=0, n=5),
    dict(p=3, k=0, n=None),
    dict(p=3, k=0, n=(0, 0), genus_curve=2.0),
])
def test_constructor_rejects_non_integers(kwargs):
    # k=1.5 once gave chi = 25.5, and n entries 2.9 or True were truncated
    with pytest.raises(InvalidParameter):
        K3FixedLocus(**kwargs)
