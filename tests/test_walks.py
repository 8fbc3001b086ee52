import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gentle import (GBA, GST, INVALID, Letter, PresentationError,
                    canonical_band, canonical_string, classify_walk,
                    enumerate_gba, enumerate_gst, glue_bar, inverse_walk,
                    is_derived_discrete, is_string, longest_walk_arrows,
                    parse_walk, rotate_walk, truncate_first, truncate_last)
from gentle.walks import transition_edges, is_primitive, mu_profile

from corpus import A0, KRONECKER, RELATION_CYCLE, LINEAR_A5, full_corpus, load

a0 = load(A0)
kron = load(KRONECKER)
cyc = load(RELATION_CYCLE)


def letters(pres, pattern):
    out = []
    for name, inv in pattern:
        out.append(Letter(pres.path(name.split(".")), inv))
    return out


def test_classify_relation_pair_is_gst():
    walk = classify_walk(a0, letters(a0, [("a1", False), ("a3", False)]))
    assert walk.kind == GST
    assert walk.mu == (0, -1, -2)


def test_classify_nonrelation_direct_pair_is_invalid():
    walk = classify_walk(a0, letters(a0, [("a1", False), ("a2", False)]))
    assert walk.kind == INVALID
    assert "relation" in walk.reason


def test_classify_kronecker_band():
    walk = classify_walk(kron, letters(kron, [("a", False), ("b", True)]))
    assert walk.kind == GBA
    assert walk.mu == (0, -1, 0)


def test_trivial_path_letters_are_rejected():
    with pytest.raises(PresentationError):
        classify_walk(a0, [Letter(a0.trivial_path("1"), False)])


def test_backtracking_is_invalid():
    walk = classify_walk(kron, letters(kron, [("a", False), ("a", True)]))
    assert walk.kind == INVALID
    assert "backtrack" in walk.reason


def test_is_string_helper():
    assert is_string(a0, letters(a0, [("a1", False), ("a2", False)]))
    assert not is_string(a0, letters(a0, [("a1", False), ("a3", False)]))


def _sampled_walks(pres, bound=6, cap=200):
    return enumerate_gst(pres, bound).walks[:cap]


@pytest.mark.parametrize("pres", [a0, kron, cyc])
def test_mu_profile_steps(pres):
    for walk in _sampled_walks(pres):
        assert walk.mu[0] == 0
        for letter, before, after in zip(walk.letters, walk.mu, walk.mu[1:]):
            assert after - before == (1 if letter.inverse else -1)


@pytest.mark.parametrize("pres", [a0, kron, cyc])
def test_kind_is_inversion_invariant(pres):
    for walk in _sampled_walks(pres):
        assert inverse_walk(pres, walk).kind == walk.kind


@pytest.mark.parametrize("pres", [a0, kron])
def test_canonical_string_constant_on_orbit(pres):
    for walk in _sampled_walks(pres):
        canon = canonical_string(pres, walk)
        assert canonical_string(pres, inverse_walk(pres, walk)) == canon
        assert canonical_string(pres, canon) == canon


def test_canonical_band_constant_on_orbit():
    band = classify_walk(kron, letters(kron, [("a", False), ("b", True)]))
    canon = canonical_band(kron, band)
    for base in (band, inverse_walk(kron, band)):
        for k in range(base.width):
            assert canonical_band(kron, rotate_walk(kron, base, k)) == canon


def test_enumerate_gst_a0():
    result = enumerate_gst(a0, 10)
    assert result.complete
    literals = {w.literal() for w in result.walks}
    assert "a1" in literals
    assert "a1 , a3" in literals
    for walk in result.walks:
        reclassified = classify_walk(a0, walk.letters)
        assert reclassified.kind in (GST, GBA)
        assert canonical_string(a0, walk) == walk
    assert len(literals) == len(result.walks)


def test_enumerate_gst_empty_algebra():
    pres = load("algebra k\nvertices 1\n")
    assert enumerate_gst(pres, 5).walks == ()


def test_enumerate_gst_kronecker_small_bound():
    result = enumerate_gst(kron, 2)
    literals = {w.literal() for w in result.walks}
    assert "a" in literals and "b" in literals
    assert "a , ~b" in literals
    assert not result.complete


def test_enumerate_gba():
    assert enumerate_gba(a0, 12).walks == ()
    kr_bands = enumerate_gba(kron, 2).walks
    assert [w.literal() for w in kr_bands] == ["a , ~b"]
    assert enumerate_gba(load(LINEAR_A5), 8).walks == ()


def test_enumerate_gba_only_primitive():
    for walk in enumerate_gba(kron, 8).walks:
        assert is_primitive(walk)


def test_enumerate_gba_long_walks_need_no_recursion():
    # one stack frame per letter would overflow long before 250 letters
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        bands = enumerate_gba(kron, 250)
    finally:
        sys.setrecursionlimit(limit)
    assert [w.literal() for w in bands.walks] == ["a , ~b"]
    assert not bands.complete


def test_derived_discrete_decisions():
    assert is_derived_discrete(a0).discrete
    assert is_derived_discrete(load("algebra k\nvertices 1\n")).discrete
    report = is_derived_discrete(kron)
    assert not report.discrete
    assert report.band.kind == GBA


def test_discreteness_cross_checked_against_enumeration():
    for pres in full_corpus(random_count=10):
        report = is_derived_discrete(pres)
        bands = enumerate_gba(pres, 12).walks
        if report.discrete:
            assert bands == ()
        else:
            assert classify_walk(pres, report.band.letters).kind == GBA


def test_truncate_first_examples():
    walk = classify_walk(a0, letters(a0, [("a3.a4.a5", False)]))
    assert truncate_first(a0, walk, 1).letters[0].path.label() == "a4.a5"
    assert truncate_first(a0, walk, 0) == walk

    pair = classify_walk(a0, letters(a0, [("a1", False), ("a3", False)]))
    shortened = truncate_first(a0, pair, 1)
    assert shortened.literal() == "a3"

    with pytest.raises(PresentationError):
        truncate_first(a0, walk, 4)
    with pytest.raises(PresentationError):
        truncate_first(a0, classify_walk(a0, letters(a0, [("a1", False)])), 1)


def test_truncate_last_acts_on_the_walk_end():
    walk = classify_walk(a0, letters(a0, [("a1", False), ("a3.a4.a5", False)]))
    assert truncate_last(a0, walk, 2).literal() == "a1 , a3"
    inv = inverse_walk(a0, walk)
    assert truncate_first(a0, inv, 2).literal() == "~a3 , ~a1"


def test_glue_bar_examples():
    bar = glue_bar(a0, a0.path(["a1"]))
    assert bar.finite
    assert [l.literal() for l in bar.letters()] == ["a1", "a3"]

    bar = glue_bar(a0, a0.path(["a4"]))
    assert bar.finite
    assert [l.literal() for l in bar.letters()] == ["a4"]

    bar = glue_bar(cyc, cyc.path(["x"]))
    assert not bar.finite
    assert len(bar.period) == 3
    head = [l.literal() for l in bar.letters(7)]
    assert head == ["x", "y", "z", "x", "y", "z", "x"]


def test_glue_bar_steps_are_unique():
    # at most one arrow continues any chain head into a relation
    for pres in full_corpus(random_count=8):
        for arrow in pres.arrows:
            hits = [b.name for b in pres.out_arrows(arrow.target)
                    if pres.is_relation(arrow.name, b.name)]
            assert len(hits) <= 1


def test_longest_walk_arrows():
    assert longest_walk_arrows(a0) == 5
    assert longest_walk_arrows(kron) is None
    assert longest_walk_arrows(cyc) is None


def test_walk_literals_round_trip():
    for pres in (a0, kron):
        for walk in _sampled_walks(pres):
            assert parse_walk(pres, walk.literal()) == walk


def test_transition_graph_edges_are_walk_legal():
    edges = transition_edges(a0)
    for src, dsts in edges.items():
        for dst in dsts:
            assert classify_walk(a0, [src, dst]).kind in (GST, GBA)


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_random_gentle_walks_classify_consistently(seed):
    from corpus import random_gentle
    pres = random_gentle(seed)
    for walk in enumerate_gst(pres, 4).walks[:40]:
        assert walk.mu == mu_profile(walk.letters)
        assert inverse_walk(pres, walk).kind == walk.kind
