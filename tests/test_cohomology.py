from itertools import product

import pytest

from cohomology_oracle import (
    cyclotomic,
    direct_sum,
    fourfold_chi,
    fourfold_h_star,
    k3_chi,
    k3_h_star,
    regular,
    summand_types,
    sym2,
    sym2_count_of,
    tensor,
    trace,
    trivial,
    triples,
)
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


MODULES = {"Z": trivial, "Z[zeta]": cyclotomic, "Z[G]": regular}


@pytest.mark.parametrize("p", (3, 5, 7))
def test_the_three_modules_read_as_their_types(p):
    assert [summand_types(make(p), p) for make in MODULES.values()] == [
        (1, 0, 0), (0, 1, 0), (0, 0, 1)
    ]
    assert [trace(make(p)) for make in MODULES.values()] == [1, -1, 0]


@pytest.mark.parametrize("p", (3, 5, 7))
def test_tensor_rules_by_brute_force(p):
    # a product of two trivial or cyclotomic summands counts 1, any product
    # with Z[G] counts 0; Sym^2 Z counts 1, Sym^2 Z[zeta] and Sym^2 Z[G] 0
    counted = {"Z", "Z[zeta]"}
    for a, b in product(MODULES, repeat=2):
        l1, lz, _ = summand_types(tensor(MODULES[a](p), MODULES[b](p)), p)
        assert l1 + lz == (a in counted and b in counted), (p, a, b)
    squares = [summand_types(sym2(make(p)), p) for make in MODULES.values()]
    assert [l1 + lz for l1, lz, _ in squares] == [1, 0, 0]
    # sigma^2 has the trace of sigma, so Sym^2 has trace (t^2 + t)/2
    for make in MODULES.values():
        t = trace(make(p))
        assert trace(sym2(make(p))) == (t * t + t) // 2


@pytest.mark.parametrize("p, ranks", [(3, (2, 2, 1)), (3, (0, 3, 0)), (5, (1, 1, 1)), (7, (1, 1, 0))])
def test_sym2_of_a_sum_counts_as_the_rules_add_up(p, ranks):
    l1, lz, lr = ranks
    m = direct_sum(*[trivial(p)] * l1, *[cyclotomic(p)] * lz, *[regular(p)] * lr)
    assert summand_types(m, p) == ranks
    s1, sz, _ = summand_types(sym2(m), p)
    assert s1 + sz == sym2_count_of(l1, lz)
    t = l1 - lz
    assert trace(m) == t and trace(sym2(m)) == (t * t + t) // 2
