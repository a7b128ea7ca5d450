"""Even-lattice existence (Nikulin 1979, Thm 1.10.1) against independent routes."""

import functools
import itertools
import random
from collections import Counter

import pytest
import sympy

from existence_oracle import (
    definite_binary_exists,
    definite_ternary_lattices,
    hyperbolic_route_exists,
    p_elementary_exists,
    small_lattices,
)
from fqf_oracle import (
    Dense,
    cyclic_form,
    even_lattice_exists,
    trivial_form,
    two_elementary_form,
    u_block,
    v_block,
)
from hklat.errors import DegenerateForm
from hklat.fqf import FiniteQuadraticForm, even_lattice_exists_report, normal_key
from hklat.involutions import TwoElemInvariants, two_elementary_exists
from hklat.lattices import Lattice, discriminant_form, realize
from snf_oracle import mat_mul
from test_classify import library_p_elementary_exists
from test_exact import _random_unimodular, transpose

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19)
MAX_DET = 64
SMALL_SIGNATURES = [(s_plus, r - s_plus) for r in range(3) for s_plus in range(r + 1)]


@functools.cache
def _small_lattices():
    return small_lattices(MAX_DET)


def _forms_of_length_at_most_2(max_order):
    """The generator data (orders, q, b) of every form on Z/n1 x Z/n2
    (n1 | n2) or Z/n, order <= max_order, degenerate ones included."""
    for n in range(2, max_order + 1):
        for q in range(0, 2 * n, 1 + n % 2):
            yield (n,), (q,), ((q % n,),)
    for n1 in range(2, max_order + 1):
        for n2 in range(n1, max_order // n1 + 1, n1):
            q1s = [q for q in range(2 * n2) if n1 * q % n2 == 0 == n1 * n1 * q % (2 * n2)]
            q2s = range(0, 2 * n2, 1 + n2 % 2)
            for q1, q2, b12 in itertools.product(q1s, q2s, range(0, n2, n2 // n1)):
                yield (n1, n2), (q1, q2), ((q1 % n2, b12), (b12, q2 % n2))


def _nondegenerate(data):
    """The forms of the nondegenerate ones among the generator data."""
    for orders, q, b in data:
        try:
            yield Dense(orders, q, b).form()
        except DegenerateForm:
            continue


def test_small_lattice_enumeration_is_complete_on_known_cases():
    found = _small_lattices()
    for name in ("U", "U(2)", "U(8)", "A2", "A2(-1)", "<6> + <-2>", "A1 + A1", "U(3)"):
        lat = realize(name)
        key = normal_key(discriminant_form(lat))
        assert key in found[lat.signature()], name
    assert sum(map(len, found.values())) > 250


def test_existence_agrees_with_enumeration_on_all_small_forms():
    # rank <= 2 and |A| <= 64: the lattice exists iff the enumeration met it
    found = _small_lattices()
    count = 0
    for form in _nondegenerate(_forms_of_length_at_most_2(MAX_DET)):
        key = normal_key(form)
        for sig in SMALL_SIGNATURES:
            assert even_lattice_exists(*sig, form) == (key in found.get(sig, {})), (sig, form)
        count += 1
    assert count > 5000


MAX_DET_3 = 100


def _jordan_block_forms(max_order):
    """A form of each Jordan block class of order <= max_order: <2/p^k> and
    <2n/p^k> (n the least nonresidue) for odd p, <a/2^k> for every odd a
    mod min(8, 2^(k+1)), and the u and v blocks of scale 2^k."""
    out = []
    for p in sympy.primerange(2, max_order + 1):
        m = p
        while m <= max_order:
            if p == 2:
                out += [cyclic_form(m, a) for a in range(1, min(8, 2 * m), 2)]
                if m * m <= max_order:
                    out += [u_block(m), v_block(m)]
            else:
                n = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
                out += [cyclic_form(m, 2), cyclic_form(m, 2 * n)]
            m *= p
    return out


@functools.cache
def _ternary_block_sums():
    """Every sum of Jordan block forms (as a multiset) of order <= MAX_DET_3
    with at most four blocks, built by `dsum` from the trivial form."""
    blocks = _jordan_block_forms(MAX_DET_3)
    out = []

    def extend(start, form, count):
        for i in range(start, len(blocks)):
            if form.order * blocks[i].order <= MAX_DET_3 and count < 4:
                out.append(form.dsum(blocks[i]))
                extend(i, out[-1], count + 1)

    extend(0, trivial_form(), 0)
    return out


def test_existence_agrees_with_enumeration_of_definite_ternary_lattices():
    # rank 3, definite, |A| <= 100: the lattice exists iff the enumeration
    # of reduced Gram matrices met its form, on every form met there and on
    # every sum of Jordan blocks generated apart from it; the sums that
    # exist meet every class the enumeration met
    found = definite_ternary_lattices(MAX_DET_3)
    reasons, met = Counter(), {sig: set() for sig in found}
    for sig, forms in found.items():
        for form in forms.values():
            assert even_lattice_exists_report(*sig, form) == (True, None), (sig, form)
    sums = _ternary_block_sums()
    for form in sums:
        key = normal_key(form)
        for sig in found:
            ok, reason = even_lattice_exists_report(*sig, form)
            assert ok == (key in found[sig]), (sig, form)
            reasons[reason] += 1
            if ok:
                met[sig].add(key)
    assert {"E1", "E2", "E3:p=3", "E4"} <= set(reasons), reasons
    assert all(met[sig] == found[sig].keys() for sig in found)
    assert len(sums) > 1000 and len(found[3, 0]) > 100


def test_existence_agrees_with_closed_conditions():
    # all odd p <= 19, s+ <= 3, s- <= 22 and every length up to the rank
    for p in ODD_PRIMES:
        for s_plus in range(4):
            for s_minus in range(23):
                for a in range(s_plus + s_minus + 2):
                    closed = p_elementary_exists(p, s_plus, s_minus, a)
                    assert library_p_elementary_exists(p, s_plus, s_minus, a) == closed, (
                        p, s_plus, s_minus, a,
                    )
                    if s_plus in (1, 2):
                        route = hyperbolic_route_exists(p, s_plus, s_minus, a)
                        assert route in (None, closed), (p, s_plus, s_minus, a)


def test_existence_agrees_with_binary_definite_search():
    for p in ODD_PRIMES:
        for a in range(4):
            for positive in (True, False):
                sig = (2, 0) if positive else (0, 2)
                assert library_p_elementary_exists(p, *sig, a) == definite_binary_exists(
                    positive, p, a
                ), (p, sig, a)


@pytest.mark.parametrize("name", ["U(9)", "A2(3)", "U(2) + <-2>", "U(4) + <-4>"])
def test_full_length_parts_beyond_rank_2_and_non_elementary(name):
    # a full-length 2-part of rank 3, or a full-length 3-part that is not
    # elementary; every other signature of the rank fails the Gauss signature
    lat = realize(name)
    form = discriminant_form(lat)
    own = lat.signature()
    assert even_lattice_exists_report(*own, form) == (True, None)
    for s_plus in range(lat.rank + 1):
        sig = (s_plus, lat.rank - s_plus)
        if sig != own:
            assert even_lattice_exists_report(*sig, form) == (False, "E2"), sig


def test_two_elementary_closed_form_agrees_with_general_test():
    # Nikulin's closed conditions for 2-elementary lattices, including full
    # length a = rank, where the 2-adic condition E4 decides
    for s_plus in range(4):
        for s_minus in range(23):
            rank = s_plus + s_minus
            for a in range(rank + 2):
                for delta in (0, 1):
                    inv = TwoElemInvariants(s_plus, s_minus, a, delta)
                    form = two_elementary_form(a, delta, s_plus - s_minus)
                    general = form is not None and even_lattice_exists(s_plus, s_minus, form)
                    assert two_elementary_exists(inv) == general, inv


def test_full_length_two_part_is_decided_by_e4():
    # E4 compares u = ±|A|/|A_2| with discr K(q_2) mod 8, up to sign
    def cyclic(a, m):
        return cyclic_form(m, a)

    assert even_lattice_exists_report(1, 0, cyclic(1, 8)) == (True, None)  # <8>
    assert even_lattice_exists_report(0, 1, cyclic(7, 8)) == (True, None)  # <-8>
    assert even_lattice_exists_report(1, 0, cyclic(5, 8)) == (False, "E4")
    assert even_lattice_exists_report(0, 1, cyclic(3, 8)) == (False, "E4")
    # the 2-part of the discriminant form of 4·[[2, 1], [1, 2]]: a v block,
    # discr 3·16 against det U = -1 for U(4)
    v4 = Dense((4, 4), (2, 2), ((2, 1), (1, 2))).form()
    u4 = discriminant_form(realize("U(4)"))
    assert even_lattice_exists_report(1, 1, u4) == (True, None)
    assert even_lattice_exists_report(1, 1, v4) == (False, "E4")
    assert even_lattice_exists_report(1, 2, u4.dsum(cyclic(7, 4))) == (True, None)
    assert even_lattice_exists_report(1, 2, v4.dsum(cyclic(7, 4))) == (False, "E4")
    # an order-2 block knows its unit mod 4 only: <3/2> is <-1/2>, the form
    # of <-2>, whose 2-adic unit is -1 = 7, not 3
    assert even_lattice_exists_report(0, 1, cyclic(3, 2)) == (True, None)
    assert even_lattice_exists_report(1, 1, cyclic(1, 2).dsum(cyclic(3, 2))) == (True, None)


# Catalog terms whose discriminant groups are 2-groups, or nearly so: the
# roots A1, A3, A7 and D4-D7 and E7, twisted by ±1 and ±2, U(2^k) and
# <±2^k·u> for every odd u mod 8.
TWO_ADIC_TERMS = (
    [f"{root}({t})" for root in ("A1", "A3", "A7", "D4", "D5", "D6", "D7", "E7") for t in (1, -1, 2, -2)]
    + [f"U({2**k})" for k in (1, 2, 3)]
    + [f"<{s * 2**k * u}>" for s in (1, -1) for k in (1, 2, 3) for u in (1, 3, 5, 7)]
)


def test_changed_basis_sums_of_2_adic_terms_exist_and_keep_their_key():
    # A route to the 2-adic theory apart from the enumeration of small
    # forms: the lattice exists, so its form on another basis, split afresh
    # from the Smith form, passes E1-E4 at its own signature, and its key
    # equals that of the terms' forms summed, which carries their splittings.
    rng = random.Random(14)
    full_length = 0
    for _ in range(400):
        terms = [rng.choice(TWO_ADIC_TERMS) for _ in range(rng.randint(1, 4))]
        gram = realize(" + ".join(terms)).gram
        p = _random_unimodular(len(gram), rng)
        moved = Lattice(mat_mul(mat_mul(transpose(p), gram), p))
        form = discriminant_form(moved)
        assert even_lattice_exists_report(*moved.signature(), form) == (True, None), terms
        summed = functools.reduce(
            FiniteQuadraticForm.dsum, (discriminant_form(realize(t)) for t in terms)
        )
        assert normal_key(form) == normal_key(summed), terms
        full_length += form.lengths_per_prime().get(2) == moved.rank
    assert full_length > 100  # E4 applies to many of them
