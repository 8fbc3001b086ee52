import hashlib
import json
from fractions import Fraction

import pytest

from gentle import (GBA, ReductionError, cohomology, nogaps, band_complex, band_witness,
                    beta_cohomology, beta_witness, classify_walk,
                    cohomology_dims, enumerate_gba, enumerate_gst,
                    hl_spectrum, inverse_walk, longest_walk_arrows,
                    node_contributions, parse_walk, reduce_band, reduce_beta,
                    reduce_stalk, reduce_string, reduce_witness, stalk_witness,
                    string_complex, string_witness, verify_counterexample_a0,
                    witness_family)
from gentle.complexes import mu_minimal_rotation

from corpus import (A0, KRONECKER, SQUARE, TWO_RELATION_CHAIN, full_corpus,
                    load)

a0 = load(A0)
kron = load(KRONECKER)
square = load(SQUARE)
chain5 = load(TWO_RELATION_CHAIN)


# --- contributions ----------------------------------------------------------

def test_node_contributions_two_nodes_in_the_top_degree():
    walk = parse_walk(chain5, "a , b , ~u , ~v")
    actual = {j: c for j, (d, c) in node_contributions(chain5, walk).items() if d == 0 and c}
    assert actual == {0: 1, 4: 1}


# --- string reductions ------------------------------------------------------

def test_reduce_base_walk_matches_the_case_three_construction():
    trace = reduce_string(a0, parse_walk(a0, "a1"))
    assert trace.input.hl == 4
    assert trace.output.hl == 3
    assert trace.case_tag == "ONE_SIDED_END"
    assert trace.output.kind == "beta"
    assert trace.output.walk.literal() == "a4.a5.a6"
    assert trace.output.cohomology.as_dict() == {0: 3}


def test_reduce_one_sided_start_with_second_maximal_path():
    trace = reduce_string(a0, parse_walk(a0, "a2"))
    assert trace.input.hl == 5 and trace.output.hl == 4
    assert trace.case_tag == "ONE_SIDED_i0"
    assert trace.output.walk.literal() == "~a3.a4.a5.a6 , a2"


def test_reduce_interior_case():
    trace = reduce_string(a0, parse_walk(a0, "a1 , a3.a4.a5.a6"))
    assert trace.input.hl == 3 and trace.output.hl == 2
    assert trace.case_tag == "ONE_SIDED_MID"


def test_reduce_backward_turn():
    trace = reduce_string(a0, parse_walk(a0, "~a2 , a3.a4.a5.a6"))
    assert trace.input.hl == 4 and trace.output.hl == 3
    assert trace.case_tag == "BACKWARD_TURN"


def test_inverse_walk_shifts_the_vector_by_the_end_degree():
    # node k of the inverse walk is node n - k of the walk, lowered by mu(n)
    strings = 0
    for pres in full_corpus():
        for walk in enumerate_gst(pres, 5).walks:
            inv = inverse_walk(pres, walk)
            vec = cohomology_dims(pres, string_complex(pres, walk))
            assert cohomology_dims(pres, string_complex(pres, inv)) == \
                vec.shifted(walk.mu[-1]), walk.literal()
            assert beta_cohomology(pres, inv) == \
                beta_cohomology(pres, walk).shifted(walk.mu[-1]), walk.literal()
            strings += 1
    assert strings >= 900


def test_invert_witness_reads_the_vector_off(monkeypatch):
    from corpus import random_gentle
    rnd5 = random_gentle(5)
    walk = parse_walk(rnd5, "r2 , r4 , ~r4.r5 , r3")
    inv = inverse_walk(rnd5, walk)
    expected = [string_witness(rnd5, inv), beta_witness(rnd5, inv)]
    witnesses = [string_witness(rnd5, walk), beta_witness(rnd5, walk)]

    def unranked(pres, cx):
        raise AssertionError(f"ranked {cx.origin}")

    monkeypatch.setattr(nogaps, "cohomology_dims", unranked)
    monkeypatch.setattr(cohomology, "cohomology_dims", unranked)
    assert [nogaps._invert_witness(rnd5, w) for w in witnesses] == expected


def test_reduce_rejects_length_one():
    with pytest.raises(ReductionError):
        reduce_string(a0, parse_walk(a0, "a1 , a3"))


def test_negative_direction_also_lands():
    for literal in ("a1", "a2", "a1 , a3.a4.a5.a6", "~a2 , a3.a4.a5.a6"):
        walk = parse_walk(a0, literal)
        positive = reduce_string(a0, walk)
        negative = reduce_string(a0, walk, negative=True)
        assert positive.output.hl == negative.output.hl == positive.input.hl - 1
        assert negative.direction == "negative"


def test_reductions_land_exactly_across_corpus():
    checked = 0
    for pres in full_corpus(random_count=8):
        for walk in enumerate_gst(pres, 5).walks[:40]:
            witness = string_witness(pres, walk)
            if witness.hl <= 1:
                continue
            trace = reduce_string(pres, walk)
            assert trace.output.hl == witness.hl - 1, walk.literal()
            out = trace.output
            if out.kind == "beta":
                assert beta_cohomology(pres, out.walk) == out.cohomology
            checked += 1
    assert checked >= 100


def test_reduction_traces_are_pinned():
    # every family witness with hl > 1 at bound 4, reduced with each
    # direction tried first; the digest holds the surgery wording and the
    # plan order fixed
    digest = hashlib.sha256()
    reductions = 0
    for pres in full_corpus():
        witnesses, _ = witness_family(pres, 4)
        for w in witnesses:
            if w.hl <= 1:
                continue
            for negative in (False, True):
                trace = reduce_witness(pres, w, negative=negative)
                line = [pres.name, w.literal(), negative, trace.to_json()]
                digest.update(json.dumps(line).encode() + b"\n")
                reductions += 1
    assert reductions == 1366
    assert digest.hexdigest() == \
        "07a2b94af03cb25e8a3d184798dd936455c9a5fc13df5467933bb40a28066408"


# --- beta reductions --------------------------------------------------------

def test_reduce_beta_guard_case():
    walk = parse_walk(a0, "a1")
    assert beta_witness(a0, walk).hl == 1
    with pytest.raises(ReductionError):
        reduce_beta(a0, walk)


def test_reduce_beta_delegates_when_bottom_is_quiet():
    walk = parse_walk(a0, "~a2 , a3.a4.a5.a6")
    trace = reduce_beta(a0, walk)
    assert trace.case_tag == "BETA_TRUNCATION"
    assert trace.input.hl == 4 and trace.output.hl == 3


def test_reduce_beta_on_loud_bottom():
    # bottom cohomology exceeds the masked maximum: surgery must keep the
    # masked reading at l - 1
    from corpus import random_gentle
    pres = random_gentle(5)
    walk = parse_walk(pres, "r2 , r4 , ~r4.r5 , r3")
    masked = beta_witness(pres, walk)
    plain = string_witness(pres, walk)
    assert plain.hl == 5 and masked.hl == 4
    trace = reduce_beta(pres, walk)
    assert trace.case_tag == "BETA_TRUNCATION"
    assert trace.output.hl == 3


# --- band reductions --------------------------------------------------------

def test_reduce_band_kronecker():
    band = parse_walk(kron, "a , ~b")
    for d in (1, 2, 3):
        trace = reduce_band(kron, band, 1, d)
        assert trace.case_tag == "BAND_UNWIND"
        assert trace.input.hl == 2 * d
        assert trace.output.hl == 2 * d - 1


def test_reduce_band_lambda_choices():
    band = parse_walk(square, "a.b , ~c.d")
    for lam in (1, 2, -1, Fraction(1, 2)):
        trace = reduce_band(square, band, lam, 1)
        assert trace.output.hl == trace.input.hl - 1


def test_band_degree_zero_vanishes_under_rotation():
    for pres in (kron, square):
        for band in enumerate_gba(pres, 6).walks:
            for d in (1, 2):
                vec = cohomology_dims(pres, band_complex(pres, band, 1, d))
                assert vec.as_dict().get(0, 0) == 0


def test_unwound_string_is_a_valid_generalized_string():
    band = parse_walk(kron, "a , ~b")
    rotated = mu_minimal_rotation(kron, band)
    for d in (1, 2, 3):
        unwound = classify_walk(kron, rotated.letters * d)
        assert unwound.kind in ("GST", "GBA")


# --- stalk reductions -------------------------------------------------------

def test_reduce_stalk():
    for vertex, expected in (("2", 5), ("4", 3), ("1", 2)):
        trace = reduce_stalk(a0, vertex)
        assert trace.output.hl == expected
    with pytest.raises(ReductionError):
        reduce_stalk(a0, "7")


# --- spectra ----------------------------------------------------------------

def test_a0_spectrum_complete_and_gap_free():
    report = hl_spectrum(a0, longest_walk_arrows(a0), reduce_check=True)
    assert report.complete
    assert sorted(report.achieved) == [1, 2, 3, 4, 5, 6]
    assert report.gaps == ()
    assert report.failures == ()
    assert len(report.reductions) == 5


def test_semisimple_spectrum():
    pres = load("algebra k\nvertices 1\n")
    report = hl_spectrum(pres, 4)
    assert sorted(report.achieved) == [1]
    assert report.gaps == ()


def test_kronecker_spectrum_exercises_band_unwinding():
    report = hl_spectrum(kron, 7, reduce_check=True)
    assert report.gaps == ()
    assert report.failures == ()
    assert any(t.case_tag == "BAND_UNWIND" for t in report.reductions)


def test_witness_family_includes_beta_variants():
    witnesses, complete = witness_family(a0, longest_walk_arrows(a0))
    kinds = {w.kind for w in witnesses}
    assert kinds == {"stalk", "string", "beta"}
    assert complete
    betas = [w for w in witnesses if w.kind == "beta"]
    assert [w.walk.literal() for w in betas] == ["a1"]


def test_reduce_witness_dispatch():
    assert reduce_witness(a0, stalk_witness(a0, "2")).output.hl == 5
    assert reduce_witness(kron, band_witness(kron, parse_walk(kron, "a , ~b"))).output.hl == 1


def test_family_beta_vectors_match_the_rank_route():
    # the family reads each beta vector off its string vector; the rank
    # route rebuilds the complex from the walk and must agree
    betas = 0
    for pres in full_corpus():
        witnesses, _ = witness_family(pres, 5)
        for w in witnesses:
            if w.kind == "beta":
                assert w.cohomology == beta_cohomology(pres, w.walk), w.literal()
                betas += 1
    assert betas >= 50


def _count_ranks(monkeypatch):
    """Record the origin of every complex ranked, at every binding."""
    origins = []
    real = cohomology.cohomology_dims

    def counted(pres, cx):
        origins.append(cx.origin)
        return real(pres, cx)

    monkeypatch.setattr(nogaps, "cohomology_dims", counted)
    monkeypatch.setattr(cohomology, "cohomology_dims", counted)
    return origins


def test_witness_family_ranks_each_string_and_band_once(monkeypatch):
    from corpus import random_gentle
    origins = _count_ranks(monkeypatch)
    betas = 0
    for pres in (a0, kron, random_gentle(5)):
        origins.clear()
        witnesses, _ = witness_family(pres, 5)
        kinds = [w.kind for w in witnesses]
        betas += kinds.count("beta")
        assert len(origins) == kinds.count("string") + kinds.count("band")
        assert len(set(origins)) == len(origins)
    assert betas


def test_reduce_beta_ranks_its_walk_once(monkeypatch):
    from corpus import random_gentle
    origins = _count_ranks(monkeypatch)
    rnd5 = random_gentle(5)
    # one delegates to the string reduction, one runs its own search
    for pres, literal in ((a0, "~a2 , a3.a4.a5.a6"), (rnd5, "r2 , r4 , ~r4.r5 , r3")):
        walk = parse_walk(pres, literal)
        origins.clear()
        reduce_beta(pres, walk)
        assert origins.count(f"string:{walk.literal()}") == 1, literal


def test_reduction_search_evaluates_each_walk_once(monkeypatch):
    from corpus import random_gentle
    origins = _count_ranks(monkeypatch)
    pres = random_gentle(5)
    for walk in enumerate_gst(pres, 5).walks:
        if string_witness(pres, walk).hl <= 1:
            continue
        origins.clear()
        trace = reduce_string(pres, walk)
        assert trace.output.hl == trace.input.hl - 1
        # each proposed (kind, walk) is ranked once; what repeats is a plan
        # re-proposing the input walk, or one walk proposed as string and
        # as beta, and neither happens twice on this algebra
        assert len(origins) - len(set(origins)) <= 1, walk.literal()


def test_path_basis_is_built_once_per_presentation(monkeypatch):
    from gentle import core
    pres = load(A0)
    calls = []
    real = core.path_basis
    walks = enumerate_gst(pres, 6).walks
    monkeypatch.setattr(core, "path_basis", lambda p: calls.append(p) or real(p))
    for walk in walks:
        cohomology_dims(pres, string_complex(pres, walk))
    assert len(calls) == 1


# --- the built-in counterexample scan ---------------------------------------

def test_a0_report_values():
    report = verify_counterexample_a0()
    checks = report["checks"]
    assert checks["gentle"] and checks["derived_discrete"]
    assert checks["enumeration_complete"]
    assert checks["hr_8_achieved"] and checks["hr_7_absent"]
    assert checks["base_walk_hr_8"]
    assert checks["gl_hl_at_most_6"]
    assert report["hr_achieved"] == [1, 2, 3, 4, 5, 6, 8]
    assert report["gl_hl"] == 6
    # computed width maximum: two occupied degrees is the most any witness
    # of this algebra attains (the complexes themselves reach width three)
    assert report["gl_hw"] == 2
    assert checks["gl_hw_equals_3"] is False
    assert report["pass"] is False
