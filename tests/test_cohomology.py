import pytest

from cohomology_oracle import fourfold_chi, fourfold_h_star, k3_chi, k3_h_star, triples
from hklat.fqf import p_elementary_form
from hklat.tables import SUPPORTED_PRIMES, h_star, lefschetz_chi, natural_verdict

TRIPLES = triples(SUPPORTED_PRIMES)


def test_the_triples_are_every_module_decomposition():
    assert len(TRIPLES) == 93


@pytest.mark.parametrize("p, m, a", TRIPLES)
def test_closed_forms_equal_the_count_on_cohomology(p, m, a):
    assert fourfold_chi(p, m, a) == lefschetz_chi(p, m)
    assert fourfold_h_star(p, m, a) == h_star(p, m, a)


def test_counting_sym2_of_the_cyclotomic_summand_is_caught():
    # the check is sharp: counting Sym^2 Z[zeta] as 1 moves h* on 74 triples
    moved = [t for t in TRIPLES if fourfold_h_star(*t, sym2_cyclotomic=1) != h_star(*t)]
    assert len(moved) == 74


def test_k3_count_gives_the_natural_condition():
    # chi = 24 - pm and h* = 24 - (p-2)m - 2a on a K3 surface; the fixed
    # curves' genera sum to (h* - chi)/4, so N2 is m = a mod 2
    k3 = triples(SUPPORTED_PRIMES, rank=22)
    assert k3 and set(k3) <= set(TRIPLES)
    for p, m, a in k3:
        chi, hs = k3_chi(p, m, a), k3_h_star(p, m, a)
        assert (chi, hs) == (24 - p * m, 24 - (p - 2) * m - 2 * a)
        n2 = natural_verdict(p, m, a, p_elementary_form(p, a))[1] == "N2"
        assert n2 == bool((hs - chi) % 4), (p, m, a)
