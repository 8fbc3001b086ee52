import hashlib
import json
import re
import time
from fractions import Fraction

import pytest

from gentle import (GBA, CohVector, PresentationError, ReductionError, cohomology,
                    nogaps, band_complex, band_sums, band_witness,
                    beta_cohomology, beta_witness, classify_walk, dim_projective,
                    cohomology_dims, enumerate_gba, enumerate_gst,
                    hl_spectrum, inverse_walk, longest_walk_arrows,
                    node_contributions, other_maximal_path, parse_walk,
                    reduce_witness, stalk_witness,
                    string_complex, string_witness, trivial_walk,
                    verify_counterexample_a0, Witness, witness_family)
from gentle.complexes import mu_minimal_rotation

from corpus import (A0, KRONECKER, SQUARE, TWO_RELATION_CHAIN, TWO_RELATION_CYCLES,
                    full_corpus, load, random_gentle)
from oracles import sorted_spectrum_choice

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
    trace = reduce_witness(a0, string_witness(a0, parse_walk(a0, "a1")))
    assert trace.input.hl == 4
    assert trace.output.hl == 3
    assert trace.case_tag == "ONE_SIDED_END"
    assert trace.output.kind == "beta"
    assert trace.output.walk.literal() == "a4.a5.a6"
    assert trace.output.cohomology.as_dict() == {0: 3}


def test_reduce_one_sided_start_with_second_maximal_path():
    trace = reduce_witness(a0, string_witness(a0, parse_walk(a0, "a2")))
    assert trace.input.hl == 5 and trace.output.hl == 4
    assert trace.case_tag == "ONE_SIDED_i0"
    assert trace.output.walk.literal() == "~a3.a4.a5.a6 , a2"


def test_reduce_interior_case():
    trace = reduce_witness(a0, string_witness(a0, parse_walk(a0, "a1 , a3.a4.a5.a6")))
    assert trace.input.hl == 3 and trace.output.hl == 2
    assert trace.case_tag == "ONE_SIDED_MID"


def test_reduce_backward_turn():
    trace = reduce_witness(a0, string_witness(a0, parse_walk(a0, "~a2 , a3.a4.a5.a6")))
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
        reduce_witness(a0, string_witness(a0, parse_walk(a0, "a1 , a3")))


def test_no_surgery_reduces_a_string_of_two_relation_cycles():
    # every plan and the near-miss round miss length 2, in both directions
    pres = load(TWO_RELATION_CYCLES)
    witness = string_witness(pres, parse_walk(pres, "x2 , ~x3"))
    assert witness.cohomology.as_dict() == {0: 3}
    for negative in (False, True):
        with pytest.raises(ReductionError) as err:
            reduce_witness(pres, witness, negative=negative)
        assert str(err.value) == "no verified surgery on x2 , ~x3 reached length 2"


def test_negative_direction_also_lands():
    for literal in ("a1", "a2", "a1 , a3.a4.a5.a6", "~a2 , a3.a4.a5.a6"):
        walk = parse_walk(a0, literal)
        positive = reduce_witness(a0, string_witness(a0, walk))
        negative = reduce_witness(a0, string_witness(a0, walk), negative=True)
        assert positive.output.hl == negative.output.hl == positive.input.hl - 1
        assert negative.direction == "negative"


def test_reductions_land_exactly_across_corpus():
    checked = 0
    for pres in full_corpus(random_count=8):
        for walk in enumerate_gst(pres, 5).walks[:40]:
            witness = string_witness(pres, walk)
            if witness.hl <= 1:
                continue
            trace = reduce_witness(pres, string_witness(pres, walk))
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
        reduce_witness(a0, beta_witness(a0, walk))


def test_reduce_beta_delegates_when_bottom_is_quiet():
    walk = parse_walk(a0, "~a2 , a3.a4.a5.a6")
    trace = reduce_witness(a0, beta_witness(a0, walk))
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
    trace = reduce_witness(pres, beta_witness(pres, walk))
    assert trace.case_tag == "BETA_TRUNCATION"
    assert trace.output.hl == 3


# --- band reductions --------------------------------------------------------

def test_reduce_band_kronecker():
    band = parse_walk(kron, "a , ~b")
    for d in (1, 2, 3):
        trace = reduce_witness(kron, band_witness(kron, band, 1, d))
        assert trace.case_tag == "BAND_UNWIND"
        assert trace.input.hl == 2 * d
        assert trace.output.hl == 2 * d - 1


def test_reduce_band_lambda_choices():
    band = parse_walk(square, "a.b , ~c.d")
    for lam in (1, 2, -1, Fraction(1, 2)):
        trace = reduce_witness(square, band_witness(square, band, lam, 1))
        assert trace.output.hl == trace.input.hl - 1


def test_band_degree_zero_vanishes_under_rotation():
    for pres in (kron, square):
        for band in enumerate_gba(pres, 6).walks:
            for d in (1, 2):
                vec = cohomology_dims(pres, band_complex(pres, band, 1, d))
                assert vec.as_dict().get(0, 0) == 0


def test_a_non_band_is_rejected_by_the_band_check_and_the_rotation():
    # the reduction has no guard of its own: band_witness runs check_band;
    # mu_minimal_rotation rejects through rotate_walk
    string = parse_walk(kron, "a")
    with pytest.raises(PresentationError, match="needs a generalized band"):
        reduce_witness(kron, band_witness(kron, string))
    for walk in (string, trivial_walk(kron, "1")):
        with pytest.raises(PresentationError, match="only bands rotate"):
            mu_minimal_rotation(kron, walk)


def test_unwound_string_is_a_valid_generalized_string():
    band = parse_walk(kron, "a , ~b")
    rotated = mu_minimal_rotation(kron, band)
    for d in (1, 2, 3):
        unwound = classify_walk(kron, rotated.letters * d)
        assert unwound.kind in ("GST", "GBA")


# --- stalk reductions -------------------------------------------------------

def test_reduce_stalk():
    for vertex, expected in (("2", 5), ("4", 3), ("1", 2)):
        trace = reduce_witness(a0, string_witness(a0, trivial_walk(a0, vertex)))
        assert trace.output.hl == expected
        assert (trace.case_tag, trace.target_node, trace.direction) == \
            ("GENERAL_Q", 0, "positive")
        # the stalk witness reduces as the string of its trivial walk
        assert reduce_witness(a0, stalk_witness(a0, vertex)) == trace
    with pytest.raises(ReductionError):
        reduce_witness(a0, string_witness(a0, trivial_walk(a0, "7")))


def test_a_stalk_reduces_the_same_in_both_directions():
    # the trivial walk is its own inverse, so either direction runs the one
    # positive search
    stalks = 0
    for pres in full_corpus():
        for v in pres.vertices:
            if dim_projective(pres, v) <= 1:
                continue
            walk = trivial_walk(pres, v)
            trace = reduce_witness(pres, string_witness(pres, walk))
            assert trace.direction == "positive"
            assert reduce_witness(pres, string_witness(pres, walk), negative=True) == trace, \
                (pres.name, v)
            stalks += 1
    assert stalks == 63


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


def test_spectrum_keeps_the_witness_the_sort_rule_keeps():
    cases = [(pres, 5) for pres in full_corpus() + [random_gentle(s) for s in range(14, 100)]]
    cases.append((random_gentle(5), 8))
    lengths = 0
    for pres, bound in cases:
        expected = sorted_spectrum_choice(witness_family(pres, bound)[0])
        achieved = hl_spectrum(pres, bound).achieved
        assert ({l: (w.kind, w.literal()) for l, w in achieved.items()}
                == {l: (w.kind, w.literal()) for l, w in expected.items()}), (pres.name, bound)
        lengths += len(achieved)
    assert lengths == 599


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


def test_witness_family_ranks_nothing(monkeypatch):
    from corpus import random_gentle
    origins = _count_ranks(monkeypatch)
    kinds = set()
    for pres in (a0, kron, random_gentle(5)):
        witnesses, _ = witness_family(pres, 5)
        kinds.update(w.kind for w in witnesses)
    assert kinds == {"stalk", "string", "beta", "band"}
    assert origins == []


def _ranked_once(origins, trace):
    """The ranks of one reduction: its output's string complex, a stalk's
    (on the trivial walk) included."""
    assert origins == [f"string:{trace.output.walk.literal()}"], trace.input.literal()


def test_each_reduction_ranks_its_output_once(monkeypatch):
    from corpus import random_gentle
    origins = _count_ranks(monkeypatch)
    rnd5 = random_gentle(5)
    # one beta delegates to the string reduction, one runs its own search
    for pres, literal in ((a0, "~a2 , a3.a4.a5.a6"), (rnd5, "r2 , r4 , ~r4.r5 , r3")):
        walk = parse_walk(pres, literal)
        for negative in (False, True):
            origins.clear()
            _ranked_once(origins, reduce_witness(pres, beta_witness(pres, walk),
                                                 negative=negative))
    # a landing on a stalk, the band shortcut, a band delegating to its
    # beta, and a stalk input
    band = parse_walk(rnd5, "r1 , r3.r1 , ~r2 , ~r2.r3")
    runs = [lambda neg: reduce_witness(square, string_witness(square, parse_walk(square, "b , ~d")),
                                       neg),
            lambda neg: reduce_witness(kron, band_witness(kron, parse_walk(kron, "a , ~b"), 1, 2),
                                       neg),
            lambda neg: reduce_witness(rnd5, band_witness(rnd5, band, Fraction(1, 3), 1), neg),
            lambda neg: reduce_witness(a0, string_witness(a0, trivial_walk(a0, "2")), neg)]
    kinds, cases = set(), set()
    for run in runs:
        for negative in (False, True):
            origins.clear()
            trace = run(negative)
            _ranked_once(origins, trace)
            kinds.add(trace.output.kind)
            cases.add((trace.input.kind, trace.surgery[-1].startswith("beta of the unwound")))
    assert kinds == {"stalk", "string", "beta"}
    assert ("band", True) in cases and ("band", False) in cases


def test_disagreeing_rank_fails_the_reduction(monkeypatch):
    # the output check is the rank oracle: a rank that disagrees with the
    # closed form fails the reduction, for a string and for a beta output
    walks = [parse_walk(a0, "a1 , a3.a4.a5.a6"), parse_walk(a0, "a1")]
    outputs = [reduce_witness(a0, string_witness(a0, walk)).output for walk in walks]
    assert [out.kind for out in outputs] == ["string", "beta"]
    wrong = lambda *args: CohVector.from_dict({7: 1})
    monkeypatch.setattr(nogaps, "cohomology_dims", wrong)
    monkeypatch.setattr(nogaps, "beta_cohomology", wrong)
    for walk, out in zip(walks, outputs):
        text = f"closed form and rank disagree on {out.literal()}"
        with pytest.raises(ReductionError, match=re.escape(text)):
            reduce_witness(a0, string_witness(a0, walk))


def test_reduction_search_evaluates_each_walk_once(monkeypatch):
    from corpus import random_gentle
    pres = random_gentle(5)
    evaluated = []
    real = cohomology.node_sums
    # a stalk's trivial walk has the empty literal, so its vertex is in the key
    monkeypatch.setattr(nogaps, "node_sums", lambda p, walk: evaluated.append(
        (walk.literal(), walk.node_vertex(0))) or real(p, walk))
    reductions = 0
    for walk in enumerate_gst(pres, 5).walks:
        if real(pres, walk).hl <= 1:
            continue
        evaluated.clear()
        trace = reduce_witness(pres, string_witness(pres, walk))
        assert trace.output.hl == trace.input.hl - 1
        # each proposed (kind, walk) is evaluated once; what repeats is a
        # plan re-proposing the input walk, or one walk proposed as string
        # and as beta, and neither happens twice on this algebra
        assert len(evaluated) - len(set(evaluated)) <= 1, walk.literal()
        reductions += 1
    assert reductions >= 200


def test_reduction_builds_only_the_plans_it_evaluates(monkeypatch):
    # the plans are a lazy stream: a reduction that lands early builds no
    # plan past the one that lands and never reaches the cut sweep
    counts = {}

    def count(name):
        real = getattr(nogaps, name)
        monkeypatch.setattr(nogaps, name, lambda *args: counts.update(
            {name: counts.get(name, 0) + 1}) or real(*args))

    for name in ("_plan", "_plan_witnesses", "_cut_plans"):
        count(name)
    # the stalk at 2 lands on its one local plan
    cases = [(parse_walk(a0, literal), plans) for literal, plans in (
        ("a1", 1), ("a1 , a3.a4.a5.a6", 1), ("a2", 1), ("~a2 , a3.a4.a5.a6", 2))]
    for walk, plans in cases + [(trivial_walk(a0, "2"), 1)]:
        counts.clear()
        trace = reduce_witness(a0, string_witness(a0, walk))
        assert trace.output.hl == trace.input.hl - 1
        assert counts == {"_plan": plans, "_plan_witnesses": plans}, trace.input.literal()


def test_a_backward_turn_on_a_single_arrow_has_no_check_path_glue():
    # the reason _local_plans glues no check path after consuming the
    # single-arrow inverse letter at a backward turn: the check path of its
    # arrow starts with the next letter's first arrow, so the glued walk
    # would backtrack; checked on both orientations of every corpus string
    turns = 0
    for pres in full_corpus():
        for walk in enumerate_gst(pres, 6).walks:
            for oriented in (walk, inverse_walk(pres, walk)):
                for before, after in zip(oriented.letters, oriented.letters[1:]):
                    if before.inverse and before.length == 1 and not after.inverse:
                        check = other_maximal_path(pres, before.path.arrows[0])
                        assert check.arrows[0] == after.path.arrows[0], oriented.literal()
                        turns += 1
    assert turns >= 1000


def test_every_corpus_witness_reduces():
    # every witness with hl > 1 at bound 6, bands at d = 1..4 and three
    # lambdas, lands on exactly l - 1
    reductions = 0
    for pres in full_corpus():
        witnesses, _ = witness_family(pres, 6)
        for w in witnesses:
            variants = [w] if w.kind != "band" else [
                band_witness(pres, w.walk, lam, d) for d in (1, 2, 3, 4)
                for lam in (Fraction(1), Fraction(-2), Fraction(1, 3))]
            for v in variants:
                if v.hl > 1:
                    assert reduce_witness(pres, v).output.hl == v.hl - 1, v.literal()
                    reductions += 1
    assert reductions == 2449


def test_band_witness_rejects_a_proper_power():
    square_band = parse_walk(kron, "a , ~b , a , ~b")
    assert square_band.kind == GBA
    for build in (lambda: band_witness(kron, square_band),
                  lambda: cohomology.band_sums(kron, square_band, 1),
                  lambda: band_complex(kron, square_band, 1, 1),
                  lambda: reduce_witness(kron, band_witness(kron, square_band))):
        with pytest.raises(PresentationError, match="band a , ~b , a , ~b is a proper power"):
            build()
    # the other rejections keep band_complex's wording
    band = parse_walk(kron, "a , ~b")
    for args, text in (((0, 1), "lambda must be nonzero"), ((1, 0), "d must be >= 1")):
        with pytest.raises(PresentationError, match=text):
            band_witness(kron, band, *args)
    with pytest.raises(PresentationError, match="needs a generalized band"):
        band_witness(kron, parse_walk(kron, "a"))


def test_path_basis_is_built_once_per_presentation(monkeypatch):
    from gentle import core
    pres = load(A0)
    calls = []
    real = core.path_basis
    monkeypatch.setattr(core, "path_basis", lambda p: calls.append(p) or real(p))
    walks = enumerate_gst(pres, 6).walks
    for walk in walks:
        cohomology_dims(pres, string_complex(pres, walk))
    assert len(calls) == 1


def test_maximal_extension_is_computed_once_per_path(monkeypatch):
    from gentle import core
    from corpus import random_gentle
    pres = random_gentle(5)
    calls = {}
    real = core.Presentation.path

    def counted(self, arrow_names):
        path = real(self, arrow_names)
        calls[path] = calls.get(path, 0) + 1
        return path

    monkeypatch.setattr(core.Presentation, "path", counted)
    witness_family(pres, 8)
    # the path facts built here are the maximal paths, one per arrow
    assert len(calls) == len(pres.arrows) and max(calls.values()) == 1


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


def test_large_multiplicity_band_stays_fast():
    # the time bound fails an elimination whose cost grows as d^3: at
    # d = 400 a band differential has at most two nonzeros per row
    band = parse_walk(kron, "a , ~b")
    start = time.perf_counter()
    dims = cohomology_dims(kron, band_complex(kron, band, Fraction(1, 2), 400))
    assert dims == band_sums(kron, band, 400) == CohVector.from_dict({1: 800})
    assert reduce_witness(kron, band_witness(kron, band, Fraction(1, 2), 400)).output.hl == 799
    assert time.perf_counter() - start < 1


def test_band_rank_pays_only_for_nonzeros():
    # at d = 2000 the degree-0 differential has 6000 x 2000 cells and at
    # most two nonzeros per row: allocating the cells alone overruns the bound
    band = parse_walk(kron, "a , ~b")
    cx = band_complex(kron, band, Fraction(1, 2), 2000)
    start = time.perf_counter()
    dims = cohomology_dims(kron, cx)
    assert time.perf_counter() - start < 0.25
    assert dims == band_sums(kron, band, 2000) == CohVector.from_dict({1: 4000})


def test_reduce_witness_reads_its_input_as_given(monkeypatch):
    # the input's vector is read, not rebuilt: node_sums never runs on the
    # input walk, except for a beta's underlying string, and the search
    # reads the walk's node contributions once per direction searched
    from corpus import random_gentle
    rnd5 = random_gentle(5)
    band = parse_walk(rnd5, "r1 , r3.r1 , ~r2 , ~r2.r3")
    cases = [
        (a0, string_witness(a0, parse_walk(a0, "a1 , a3.a4.a5.a6"))),
        (a0, stalk_witness(a0, "2")),
        # one beta delegates to its underlying string, one runs its own search
        (a0, beta_witness(a0, parse_walk(a0, "~a2 , a3.a4.a5.a6"))),
        (rnd5, beta_witness(rnd5, parse_walk(rnd5, "r2 , r4 , ~r4.r5 , r3"))),
        # one band lands on its unwound beta, one delegates to it
        (kron, band_witness(kron, parse_walk(kron, "a , ~b"), Fraction(1, 2), 2)),
        (rnd5, band_witness(rnd5, band, Fraction(1, 3), 1)),
    ]
    calls = []
    for name in ("node_sums", "node_contributions"):
        real = getattr(nogaps, name)
        monkeypatch.setattr(nogaps, name, lambda pres, walk, name=name, real=real:
                            calls.append((name, walk)) or real(pres, walk))
    kinds = set()
    for pres, w in cases:
        # the walk searched, and its inverse: a band's unwound string
        searched = w.walk
        if w.kind == "band":
            rotated = mu_minimal_rotation(pres, w.walk)
            searched = classify_walk(pres, rotated.letters * w.mult)
        both = (searched, inverse_walk(pres, searched) if searched.letters else searched)
        for negative in (False, True):
            calls.clear()
            trace = reduce_witness(pres, w, negative=negative)
            assert trace.input is w and trace.output.hl == w.hl - 1
            sums = [walk for name, walk in calls if name == "node_sums" and walk == w.walk]
            assert len(sums) == (w.kind == "beta"), (w.literal(), negative)
            # a trivial walk is searched once; a band may land unsearched
            if trace.surgery[-1] == "beta of the unwound string already lands":
                directions = 0
            elif (trace.direction == "negative") == negative or not searched.letters:
                directions = 1
            else:
                directions = 2
            contribs = [walk for name, walk in calls
                        if name == "node_contributions" and walk in both]
            assert len(contribs) <= directions, (w.literal(), negative)
            kinds.add(w.kind)
    assert kinds == {"string", "stalk", "beta", "band"}


def test_reduce_witness_rejects_a_vector_its_walk_cannot_carry():
    # the vector is read as given: a top degree where the walk's nodes
    # contribute less than the length, none at all or too little, is a
    # ReductionError naming the witness and the degree
    cases = [(a0, Witness("string", parse_walk(a0, "a1"), CohVector.from_dict({5: 9})),
              "a1 has length 9 in degree 5"),
             # the sink 7 carries dim P_7 = 1 in degree 0, not 2
             (a0, Witness("stalk", trivial_walk(a0, "7"), CohVector.from_dict({0: 2})),
              "stalk 7 has length 2 in degree 0"),
             # a band's length is its unwound beta's, or one more
             (kron, Witness("band", parse_walk(kron, "a , ~b"), CohVector.from_dict({1: 5}),
                            Fraction(1)),
              "unwound string has length 1 / beta 1, expected 5 or 4")]
    for pres, w, text in cases:
        with pytest.raises(ReductionError, match=re.escape(text)):
            reduce_witness(pres, w)


def test_a_failed_reduction_names_the_witness_it_was_given():
    # a band is searched through its unwound beta, and this beta through
    # its string, which keeps the length; the failure names the input
    from corpus import random_gentle

    rnd44, rnd75 = random_gentle(44), random_gentle(75)
    cases = [(rnd44, band_witness(rnd44, parse_walk(rnd44, "r1 , r5.r1 , ~r8 , ~r8.r5")),
              "band[ r1 , r5.r1 , ~r8 , ~r8.r5 ; lambda=1 ; d=1 ] reached length 1"),
             (rnd75, beta_witness(rnd75, parse_walk(rnd75, "~r2 , r5 , ~r4 , r3")),
              "beta[ ~r2 , r5 , ~r4 , r3 ] reached length 2")]
    for pres, w, text in cases:
        for negative in (False, True):
            with pytest.raises(ReductionError) as exc:
                reduce_witness(pres, w, negative=negative)
            assert str(exc.value) == f"no verified surgery on {text}"
    report = hl_spectrum(rnd44, 6, reduce_check=True)
    assert report.failures == (f"no verified surgery on {cases[0][2]}",)
    assert report.achieved[2].literal() == cases[0][1].literal()


def test_a_band_landing_on_its_unwound_beta_is_aligned():
    # the three sweep bands whose unwound string's beta lands at once: the
    # output's top degree, less its shift, is the band's
    from corpus import random_gentle

    def top(w):
        return max(nogaps._top_degrees(w)) - w.shift

    for seed, literal in ((24, "r1 , ~r8.r7 , ~r5 , r2"), (99, "r1 , ~r6.r4 , ~r4 , r7"),
                          (123, "r2 , r8 , ~r4.r5 , ~r3")):
        pres = random_gentle(seed)
        band = band_witness(pres, parse_walk(pres, literal))
        for negative in (False, True):
            trace = reduce_witness(pres, band, negative=negative)
            assert trace.surgery[-1] == "beta of the unwound string already lands"
            assert top(trace.output) == top(band), (seed, literal, negative)


def test_reductions_chain_down_to_length_one():
    # each output is fed back in, shift included, until hl 1: the chain of
    # the theorem, from every corpus witness
    # every output's top degree, less its shift, is the first input's
    def top(w):
        return max(nogaps._top_degrees(w))

    steps = shifted = 0
    for pres in full_corpus():
        witnesses, _ = witness_family(pres, 5)
        for w in witnesses:
            first = w
            while w.hl > 1:
                trace = reduce_witness(pres, w)
                assert trace.input is w, w.literal()
                assert trace.output.hl == w.hl - 1, w.literal()
                w = trace.output
                assert top(w) - w.shift == top(first) - first.shift, \
                    (first.literal(), w.literal())
                steps += 1
                shifted += w.shift != 0
    assert steps == 3956
    assert shifted > 0
