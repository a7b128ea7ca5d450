import pytest

from fqf_oracle import even_lattice_exists, two_elementary_form, value_counts
from golden_data import figure_marker_set
from hklat.fqf import delta_invariant, gauss_signature, trivial_form
from hklat.involutions import (
    AMBIENT_SIGNATURE,
    CASE_I,
    CASE_II,
    TwoElemInvariants,
    classify_involution_embeddings,
    figure_points,
    figure_points_text,
    has_value_three_halves,
    two_elementary_exists,
)
from hklat import AMBIENT
from hklat.classify import AMBIENT_GENUS
from hklat.lattices import discriminant_form, realize


def k3_triple_exists(r, a, delta):
    """Whether (r, a, delta) occurs for a 2-elementary hyperbolic sublattice
    of the K3 lattice U^3 + E8^2 with 2-elementary orthogonal complement,
    by the closed forms: both T (1, r - 1) and S (2, 20 - r) exist."""
    if not 1 <= r <= 20:
        return False
    t = TwoElemInvariants(1, r - 1, a, delta)
    s = TwoElemInvariants(2, 20 - r, a, delta)
    return two_elementary_exists(t) and two_elementary_exists(s)


def test_ambient_signature_is_that_of_the_ambient_lattice():
    # hklat.AMBIENT stays the one definition of L
    assert AMBIENT_SIGNATURE == realize(AMBIENT).signature()
    assert AMBIENT_SIGNATURE == (AMBIENT_GENUS.s_plus, AMBIENT_GENUS.s_minus)


def test_existence_examples():
    assert two_elementary_exists(TwoElemInvariants(1, 0, 1, 1))  # <2>
    assert two_elementary_exists(TwoElemInvariants(1, 1, 2, 1))  # <2> + <-2>
    assert not two_elementary_exists(TwoElemInvariants(1, 0, 1, 0))


def test_existence_against_rank_one_enumeration():
    # the only even rank-one lattices are <2k>; 2-elementary means <2> or <-2>,
    # both with form value +-1/2, so delta = 1 is forced
    for delta in (0, 1):
        assert two_elementary_exists(TwoElemInvariants(1, 0, 1, delta)) == (delta == 1)
        assert two_elementary_exists(TwoElemInvariants(0, 1, 1, delta)) == (delta == 1)


def test_existence_against_catalog_witnesses():
    witnesses = [
        ("U", 0, 0),
        ("U(2)", 2, 0),
        ("<2> + <-2>", 2, 1),
        ("D4", 2, 0),
        ("E8", 0, 0),
        ("E8(2)", 8, 0),
        ("E7", 1, 1),
        ("<2>", 1, 1),
        ("U + D4 + <2>", 3, 1),
    ]
    for name, a, delta in witnesses:
        lat = realize(name)
        form = discriminant_form(lat)
        assert form.length() == a, name
        assert delta_invariant(form) == delta, name
        s_plus, s_minus = lat.signature()
        assert two_elementary_exists(TwoElemInvariants(s_plus, s_minus, a, delta)), name


def form_of(inv):
    """A concrete discriminant form realizing the invariants, if the lattice exists."""
    if not two_elementary_exists(inv):
        return None
    if inv.a == 0:
        return trivial_form()
    return two_elementary_form(inv.a, inv.delta, (inv.s_plus - inv.s_minus) % 8)


def test_form_of_matches_invariants():
    for r in range(1, 12):
        for a in range(0, r + 1):
            for delta in (0, 1):
                inv = TwoElemInvariants(1, r - 1, a, delta)
                if not two_elementary_exists(inv):
                    continue
                form = form_of(inv)
                assert form.length() == a
                if a:
                    assert delta_invariant(form) == delta
                    assert gauss_signature(form) == (2 - r) % 8


def test_three_halves_scan_agrees_with_criterion():
    # oracle: scan the values of a concrete form; both deltas, lengths up to 12
    checked = 0
    for r in range(1, 22):
        for a in range(1, min(r, 12) + 1):
            for delta in (0, 1):
                inv = TwoElemInvariants(1, r - 1, a, delta)
                if not two_elementary_exists(inv):
                    continue
                form = form_of(inv)
                assert form.level == 2
                scan = 3 in value_counts(form)  # q = 3/2 at level 2
                assert has_value_three_halves(inv) == scan, (r, a, delta)
                checked += 1
    assert checked > 100


def test_classify_example_rank_one():
    classes = classify_involution_embeddings(TwoElemInvariants(1, 0, 1, 1))
    assert len(classes) == 1
    cls = classes[0]
    assert cls.case == CASE_I
    s = cls.s_invariants
    assert (s.s_plus + s.s_minus, s.a, s.delta) == (22, 2, 1)


def test_classify_example_rank_two():
    classes = classify_involution_embeddings(TwoElemInvariants(1, 1, 2, 1))
    assert [c.case for c in classes] == [CASE_I, CASE_II]
    case1, case2 = classes
    assert (case1.s_invariants.a, case1.s_invariants.delta) == (3, 1)
    assert (case2.s_invariants.a, case2.s_invariants.delta) == (1, 1)
    assert (case1.s_invariants.s_plus, case1.s_invariants.s_minus) == (2, 19)
    # the two orthogonal classes match the known rank-21 lattices
    for name, a in (("U^2 + E8 + E7 + <-2>^2", 3), ("U^2 + E8^2 + <-2>", 1)):
        lat = realize(name)
        form = discriminant_form(lat)
        assert lat.signature() == (2, 19)
        assert form.length() == a
        assert delta_invariant(form) == 1


def test_classify_delta_zero_gives_case_one_only():
    for r in (2, 6, 10, 14, 18):
        for a in range(2, r, 2):
            t = TwoElemInvariants(1, r - 1, a, 0)
            if not two_elementary_exists(t):
                continue
            classes = classify_involution_embeddings(t)
            assert all(c.case == CASE_I for c in classes)


def test_classify_at_most_three_classes():
    for r in range(1, 22):
        for a in range(0, r + 1):
            for delta in (0, 1):
                t = TwoElemInvariants(1, r - 1, a, delta)
                if not two_elementary_exists(t):
                    continue
                classes = classify_involution_embeddings(t)
                assert len(classes) <= 3
                for c in classes:
                    if c.case == CASE_I:
                        assert c.s_invariants.a == a + 1
                        assert c.s_invariants.delta == 1
                    else:
                        assert c.s_invariants.a == a - 1


def test_figures_match_published_charts():
    assert figure_points(1) == figure_marker_set(1)
    assert figure_points(2) == figure_marker_set(2)


def test_figure_anchor_points():
    f1 = figure_points(1)
    assert (1, 1, 1) in f1
    assert (2, 0, 0) in f1
    assert (20, 2, 1) in f1
    f2 = figure_points(2)
    assert (2, 2, 1) in f2
    assert (3, 1, 0) in f2
    assert (21, 3, 1) in f2


def test_figure2_has_no_points_with_a_zero():
    assert all(a != 0 for _, a, _ in figure_points(2))


def test_figure1_stars_have_r_2_mod_4():
    assert all(r % 4 == 2 for r, _, d in figure_points(1) if d == 0)


def test_figure2_realized_by_natural_involutions():
    # every chart-2 marker is the shift of a realizable K3 triple, except
    # (7,7,delta_S=0): its preimage (6,6,0) fails the full-length delta=0
    # signature condition (sigma = -4 mod 8), so that embedding class exists
    # but is not induced from a K3 involution
    for r, a, delta_s in figure_points(2):
        expected = (r, a, delta_s) != (7, 7, 0)
        assert k3_triple_exists(r - 1, a - 1, delta_s) == expected, (r, a, delta_s)


def test_k3_triples():
    assert k3_triple_exists(1, 1, 1)
    assert k3_triple_exists(20, 2, 1)
    assert k3_triple_exists(10, 10, 0)
    assert not k3_triple_exists(21, 3, 1)
    assert not k3_triple_exists(1, 1, 0)


def test_k3_triples_are_condition_n1_on_two_elementary_forms():
    # tables.natural_verdict's N1 at p = 2: T of signature (1, r - 1) with a
    # 2-elementary form q, and its complement S in the unimodular K3 lattice,
    # of signature (2, 20 - r) with form -q, both exist (Thm 1.10.1)
    forms = {
        (a, delta): [q for sigma in range(8) if (q := two_elementary_form(a, delta, sigma))]
        for a in range(23)
        for delta in (0, 1)
    }
    for r in range(23):
        for (a, delta), qs in forms.items():
            n1 = any(
                even_lattice_exists(1, r - 1, q) and even_lattice_exists(2, 20 - r, q.neg())
                for q in qs
            )
            assert k3_triple_exists(r, a, delta) == n1, (r, a, delta)


def test_figure_text_render():
    text = figure_points_text(1)
    assert text.splitlines()[-1].strip().startswith("1")
    assert "•" in text


def test_figure_points_rejects_bad_index():
    with pytest.raises(ValueError):
        figure_points(3)
