from fractions import Fraction

import pytest

from gentle import (GBA, CohVector, PresentationError, ProjComplex, Summand, band_complex,
                    band_sums, beta_cohomology, beta_window, cohomology_dims, dim_projective,
                    enumerate_gba, enumerate_gst, node_contributions, node_sums,
                    parse_walk, stalk_witness, string_complex, string_witness, trivial_walk)

from corpus import A0, KRONECKER, RELATION_CYCLE, TWO_RELATION_CHAIN, full_corpus, load

a0 = load(A0)
kron = load(KRONECKER)
cyc = load(RELATION_CYCLE)


def test_base_walk_vector():
    vec = cohomology_dims(a0, string_complex(a0, parse_walk(a0, "a1")))
    assert vec.as_dict() == {-1: 4, 0: 1}
    assert (vec.hl, vec.hw, vec.hr) == (4, 2, 8)


def test_band_vector_and_invariants():
    vec = cohomology_dims(kron, band_complex(kron, parse_walk(kron, "a , ~b"), 1, 1))
    assert vec.as_dict() == {1: 2}
    assert (vec.hl, vec.hw, vec.hr) == (2, 1, 2)


def test_stalk_vector():
    for v in a0.vertices:
        vec = cohomology_dims(a0, string_complex(a0, trivial_walk(a0, v)))
        assert vec.as_dict() == {0: dim_projective(a0, v)}
        assert vec.hw == 1
        assert vec.hr == vec.hl == dim_projective(a0, v)
    # the closed form of every stalk witness is the rank of its trivial walk
    stalks = 0
    for pres in full_corpus():
        for v in pres.vertices:
            ranked = cohomology_dims(pres, string_complex(pres, trivial_walk(pres, v)))
            assert stalk_witness(pres, v).cohomology == ranked, (pres.name, v)
            stalks += 1
    assert stalks >= 100
    with pytest.raises(PresentationError, match="unknown vertex '8'"):
        trivial_walk(a0, "8")


def _two_step(pres, first, second):
    """Hand-built P_t(first) -> P_s(first) -> P_s(second) in degrees 0, 1, 2,
    each map left multiplication by one arrow; no walk is classified."""
    a, b = pres.arrow(first), pres.arrow(second)
    assert a.source == b.target
    return ProjComplex({0: (Summand(a.target, 0),), 1: (Summand(a.source, 1),),
                        2: (Summand(b.source, 2),)},
                       {0: {(0, 0): ((pres.arrow_path(first), Fraction(1)),)},
                        1: {(0, 0): ((pres.arrow_path(second), Fraction(1)),)}},
                       origin=f"{first}-then-{second}")


def test_rank_route_rejects_a_non_complex():
    # a1.a2 is not a relation of A0, so P_3 -a2-> P_2 -a1-> P_1 squares to
    # a1.a2 != 0; a1.a3 is, so P_4 -a3-> P_2 -a1-> P_1 is a complex
    with pytest.raises(PresentationError, match=r"d\^2 != 0 in a2-then-a1 at degree 0"):
        cohomology_dims(a0, _two_step(a0, "a2", "a1"))
    assert cohomology_dims(a0, _two_step(a0, "a3", "a1")).as_dict() == {2: 1}


def test_zero_vector_conventions():
    zero = CohVector.from_dict({})
    assert (zero.hl, zero.hw, zero.hr) == (0, 0, 0)


def test_vector_normal_form():
    # one map, three constructors: equal records with equal hashes
    walk = parse_walk(a0, "a1")
    built = [node_sums(a0, walk), CohVector.dense(-3, [0, 0, 4, 1, 0]),
             CohVector.from_dict({0: 1, -1: 4, 3: 0})]
    assert {(v.low, v.counts) for v in built} == {(-1, (4, 1))}
    assert len({hash(v) for v in built}) == 1 and built[0] == built[1] == built[2]
    assert CohVector.dense(5, [0, 0]) == CohVector.from_dict({}) == CohVector()


def test_vector_width_spans_an_interior_zero():
    vec = CohVector.from_dict({-2: 1, 1: 3})
    assert vec.counts == (1, 0, 0, 3)
    assert vec.dims == ((-2, 1), (1, 3))
    assert (vec.hl, vec.hw, vec.hr) == (3, 4, 12)


def test_drop_degree_trims_the_vector():
    vec = CohVector.from_dict({-2: 1, 0: 2, 1: 3})
    assert vec.drop_degree(-2) == CohVector(0, (2, 3))
    assert vec.drop_degree(1) == CohVector(-2, (1, 0, 2))
    assert vec.drop_degree(0) == CohVector(-2, (1, 0, 0, 3))
    assert vec.drop_degree(7) == vec
    for degree in (0, 1, -2):
        vec = vec.drop_degree(degree)
    assert vec == CohVector()
    assert vec.to_json() == {"dims": {}, "hl": 0, "hw": 0, "hr": 0}
    assert CohVector.from_dict({-2: 1, 1: 3}).to_json() == \
        {"dims": {"-2": 1, "1": 3}, "hl": 3, "hw": 4, "hr": 12}


def test_records_have_no_instance_dict():
    walk = parse_walk(a0, "a1 , a3")
    witness = string_witness(a0, walk)
    for record in (walk.letters[0].path, walk.letters[0], walk, witness.cohomology, witness):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_node_contributions_base_walk():
    contrib = node_contributions(a0, parse_walk(a0, "a1"))
    assert contrib == {0: (0, 1), 1: (-1, 4)}


def test_node_contributions_interior_direct():
    contrib = node_contributions(a0, parse_walk(a0, "a1 , a3"))
    assert contrib[1] == (-1, 0)


def test_forward_turning_point_contributes_zero():
    walk = parse_walk(kron, "a , ~b")
    contrib = node_contributions(kron, walk)
    assert contrib[1] == (-1, 0)


def test_closed_form_rejects_a_walk_of_another_presentation():
    # the end nodes read a per-arrow table; an arrow it lacks is the same
    # PresentationError as every other unknown arrow
    for pres, walk, arrow in ((a0, parse_walk(kron, "a , ~b"), "a"),
                              (kron, parse_walk(a0, "a1"), "a1"),
                              (kron, parse_walk(a0, "~a2 , a3.a4.a5.a6"), "a2")):
        for closed_form in (node_sums, node_contributions):
            with pytest.raises(PresentationError, match=f"unknown arrow '{arrow}'"):
                closed_form(pres, walk)


def test_oracle_equivalence_across_corpus():
    """Closed-form node sums equal the rank computation, degree by degree."""
    walks_checked = 0
    for pres in full_corpus():
        for walk in enumerate_gst(pres, 6).walks[:120]:
            expected = cohomology_dims(pres, string_complex(pres, walk))
            assert node_sums(pres, walk) == expected, walk.literal()
            walks_checked += 1
    assert walks_checked >= 500


def test_beta_cohomology_base_walk():
    vec = beta_cohomology(a0, parse_walk(a0, "a1"))
    assert vec.as_dict() == {0: 1}
    assert vec.hl == 1


def test_beta_identity_when_bottom_exact():
    walk = parse_walk(a0, "a1 , a3.a4")
    plain = cohomology_dims(a0, string_complex(a0, walk))
    assert min(string_complex(a0, walk).degrees()) == -2
    assert plain.as_dict().get(-2, 0) == 0
    assert beta_cohomology(a0, walk) == plain


def test_beta_window_zero_steps_is_the_string_complex():
    walk = parse_walk(a0, "a1")
    cx, info = beta_window(a0, walk, 0)
    assert cx.summands == string_complex(a0, walk).summands
    assert info["left_attached"] == info["right_attached"] == 0


def test_beta_window_resolves_the_kernel():
    walk = parse_walk(a0, "a1")
    cx, info = beta_window(a0, walk, 1)
    assert [s.vertex for d in sorted(cx.degrees()) for s in cx.summands[d]] == ["4", "2", "1"]
    assert info["right_attached"] == 1 and info["right_exhausted"]
    vec = cohomology_dims(a0, cx)
    assert vec.as_dict() == {0: 1}


def test_beta_window_periodic_chain_repeats():
    walk = parse_walk(cyc, "x")
    for steps in (1, 2, 3, 6):
        cx, info = beta_window(cyc, walk, steps)
        assert info["right_attached"] == steps
        vec = cohomology_dims(cyc, cx).as_dict()
        # the original bottom degree is erased; only the moving cut remains
        assert vec.get(-1, 0) == 0
        assert vec[0] == 1
        assert vec[-steps - 1] == 1


def _windows_agree_with_beta_rule(pres, walk):
    """Check the 1-, 2- and 3-step windows of a walk with kernel at its
    bottom degree against the beta rule; False when there is no kernel."""
    cx0 = string_complex(pres, walk)
    bottom = min(cx0.degrees())
    if cohomology_dims(pres, cx0).as_dict().get(bottom, 0) == 0:
        return False
    expected = beta_cohomology(pres, walk)
    for steps in (1, 2, 3):
        window = cohomology_dims(pres, beta_window(pres, walk, steps)[0])
        visible = {d: v for d, v in window.as_dict().items() if d >= bottom}
        assert visible == expected.as_dict(), (walk.literal(), steps)
    return True


def test_beta_window_agrees_with_beta_rule():
    for pres in (a0, cyc, load(TWO_RELATION_CHAIN)):
        for walk in enumerate_gst(pres, 5).walks:
            _windows_agree_with_beta_rule(pres, walk)


def test_beta_window_accepts_closed_walks():
    # enumerate_gst returns a closed walk with kind GBA; its windows are
    # string complexes all the same
    checked = 0
    for pres in full_corpus():
        for walk in enumerate_gst(pres, 6).walks:
            if walk.kind == GBA:
                checked += _windows_agree_with_beta_rule(pres, walk)
    assert checked == 11


# --- the closed form against the rank oracle --------------------------------

def test_node_sums_equal_rank_on_every_corpus_string():
    strings = 0
    for pres in full_corpus():
        for walk in enumerate_gst(pres, 6).walks:
            assert node_sums(pres, walk) == \
                cohomology_dims(pres, string_complex(pres, walk)), walk.literal()
            strings += 1
    assert strings == 1721


def test_equal_vectors_of_one_presentation_are_one_record():
    used, fresh = load(A0), load(A0)
    vectors = [node_sums(used, walk) for walk in enumerate_gst(used, 6).walks]
    assert len({id(v) for v in vectors}) == len(set(vectors)) < len(vectors)
    for walk in enumerate_gst(fresh, 6).walks:
        vector = node_sums(fresh, walk)
        assert vector is node_sums(fresh, walk)
        assert vector == node_sums(used, walk) and vector is not node_sums(used, walk)


def test_node_sums_fold_node_contributions():
    # one closed form, two consumers: the degree totals are the fold of the
    # per-node counts, on every corpus string and every trivial walk
    walks = 0
    for pres in full_corpus():
        stalks = [trivial_walk(pres, v) for v in pres.vertices]
        for walk in [*enumerate_gst(pres, 6).walks, *stalks]:
            folded = {}
            for deg, c in node_contributions(pres, walk).values():
                folded[deg] = folded.get(deg, 0) + c
            assert node_sums(pres, walk) == CohVector.from_dict(folded), walk.literal()
            walks += 1
    assert walks == 1721 + 106


def test_band_sums_equal_rank_on_every_corpus_band():
    cases = 0
    for pres in full_corpus():
        for band in enumerate_gba(pres, 6).walks:
            for d in (1, 2, 3, 4):
                closed = band_sums(pres, band, d)
                for lam in (Fraction(1), Fraction(-2), Fraction(1, 3)):
                    assert closed == cohomology_dims(pres, band_complex(pres, band, lam, d)), \
                        (band.literal(), lam, d)
                    cases += 1
    assert cases == 120
