import functools
import hashlib
import inspect
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gentle import (GBA, GST, Letter, Path, PresentationError, beta_window,
                    canonical_band, classify_walk, enumerate_gba, enumerate_gst,
                    glue_bar, inverse_walk, is_derived_discrete,
                    longest_walk_arrows, parse_presentation, parse_walk,
                    rotate_walk, shorten_letter, string_complex, trivial_walk)
from gentle import walks
from gentle.cohomology import beta_extension_chains
from gentle.walks import is_primitive, letter_graph, mu_profile

from corpus import (A0, KRONECKER, RELATION_CYCLE, LINEAR_A5, full_corpus, load,
                    random_gentle)
from oracles import canonical_string, is_string, truncate_first, truncate_last, unpruned_bands

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
    with pytest.raises(PresentationError, match="junction 0") as err:
        classify_walk(a0, letters(a0, [("a1", False), ("a2", False)]))
    assert "relation" in str(err.value)


def test_classify_kronecker_band():
    walk = classify_walk(kron, letters(kron, [("a", False), ("b", True)]))
    assert walk.kind == GBA
    assert walk.mu == (0, -1, 0)


def test_trivial_path_letters_are_rejected():
    with pytest.raises(PresentationError):
        classify_walk(a0, [Letter(a0.trivial_path("1"), False)])


def test_letters_off_the_algebra_raise_the_path_error():
    # the same text as Presentation.path, on a validated presentation and
    # on one that was never validated
    for pres in (a0, parse_presentation(A0)):
        for source, target, arrows, message in (
                ("1", "4", ("a1", "a3"), "path hits the relation a1.a3"),
                ("1", "5", ("a1", "a4"), "arrows a1 and a4 do not compose"),
                ("1", "2", ("zz",), "unknown arrow 'zz'")):
            with pytest.raises(PresentationError) as err:
                classify_walk(pres, [Letter(Path(source, target, arrows))])
            assert str(err.value) == message
        assert classify_walk(pres, letters(a0, [("a1", False), ("a3", False)])).kind == GST


def test_backtracking_is_invalid():
    with pytest.raises(PresentationError, match="junction 0") as err:
        classify_walk(kron, letters(kron, [("a", False), ("a", True)]))
    assert "backtrack" in str(err.value)


@pytest.mark.parametrize("pres, pattern, reason", [
    (a0, [("a1", False), ("a4", False)], "junction 0: not composable: t(a1) != s(a4)"),
    (a0, [("a1", False), ("a3", False), ("a4", False)],
     "junction 1: consecutive direct letters must compose into a relation: a3.a4 is nonzero"),
    (a0, [("a2", True), ("a1", True)],
     "junction 0: consecutive inverse letters must compose into a relation: a1.a2 is nonzero"),
    (kron, [("b", True), ("a", False), ("a", True)], "junction 1: backtracking junction on arrow a"),
    (kron, [("a", False), ("b", True), ("b", False)], "junction 1: backtracking junction on arrow b"),
], ids=["not-composable", "direct-pair", "inverse-pair", "direct-then-inverse",
        "inverse-then-direct"])
def test_classify_walk_names_the_walk_and_its_first_broken_junction(pres, pattern, reason):
    literal = " , ".join(("~" if inverse else "") + name for name, inverse in pattern)
    with pytest.raises(PresentationError) as err:
        classify_walk(pres, letters(pres, pattern))
    assert str(err.value) == f"walk {literal!r} is not a generalized string: {reason}"


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


def _enumerate_by_classification(pres, max_arrows):
    """The enumeration as first written: classify every prefix along the
    transition graph from scratch, make it canonical and dedupe by sort key.
    Returns (strings, bands, complete)."""
    graph = letter_graph(pres)
    letters = graph.letters
    strings, bands = {}, {}
    stack = [((j,), letters[j].length) for j in range(len(letters))
             if letters[j].length <= max_arrows]
    while stack:
        prefix, used = stack.pop()
        walk = classify_walk(pres, [letters[j] for j in prefix])
        canon = canonical_string(pres, walk)
        strings.setdefault(canon.sort_key(), canon)
        if walk.kind == GBA and is_primitive(walk):
            canon = canonical_band(pres, walk)
            bands.setdefault(canon.sort_key(), canon)
        for nxt in graph.succ[prefix[-1]]:
            if used + letters[nxt].length <= max_arrows:
                stack.append((prefix + (nxt,), used + letters[nxt].length))
    longest = longest_walk_arrows(pres)
    return ([strings[k] for k in sorted(strings)], [bands[k] for k in sorted(bands)],
            longest is not None and longest <= max_arrows)


@pytest.mark.parametrize("cases", [
    pytest.param(lambda: [(p, b) for p in full_corpus() for b in range(7)], id="corpus-0..6"),
    pytest.param(lambda: [(random_gentle(s), 5) for s in range(14, 100)], id="rnd14..99-5"),
    pytest.param(lambda: [(random_gentle(5), 8)], id="rnd5-8"),
    pytest.param(lambda: [(load(KRONECKER), 40)], id="kronecker-40"),
])
def test_enumeration_matches_classification_oracle(cases):
    for pres, bound in cases():
        strings, bands, complete = _enumerate_by_classification(pres, bound)
        gst, gba = enumerate_gst(pres, bound), enumerate_gba(pres, bound)
        assert list(gst.walks) == strings, (pres.name, bound)
        assert list(gba.walks) == bands, (pres.name, bound)
        assert gst.complete == gba.complete == complete, (pres.name, bound)


def test_band_prefixes_are_pruned():
    # rnd5 is walks-growth's algebra: the band mode grows only prefixes
    # that can still become a least rotation
    graph = letter_graph(random_gentle(5))
    assert sum(1 for _ in walks._prefixes(graph, 10)) == 40_148
    assert sum(1 for _ in walks._prefixes(graph, 10, bands=True)) == 1_663


def test_band_pruning_matches_the_unpruned_oracle():
    bands = 0
    for pres in full_corpus() + [random_gentle(seed) for seed in range(14, 120)]:
        for bound in range(9):
            found = enumerate_gba(pres, bound).walks
            assert found == unpruned_bands(pres, bound), (pres.name, bound)
            bands += len(found)
    assert bands == 743


def test_walks_of_one_enumeration_share_each_degree_profile():
    pres = random_gentle(5)
    for enumerate_walks in (enumerate_gst, enumerate_gba):
        found = enumerate_walks(pres, 10).walks
        assert len({id(w.mu) for w in found}) == len({w.mu for w in found}) < len(found)


def test_enumeration_classifies_nothing(monkeypatch):
    def refuse(pres, letters):
        raise AssertionError("enumeration classified a walk")

    monkeypatch.setattr(walks, "classify_walk", refuse)
    pres = random_gentle(5)
    assert len(enumerate_gst(pres, 8).walks) == 3596
    assert len(enumerate_gba(pres, 8).walks) == 18


def test_kronecker_long_walks_enumerate_exactly():
    # a quadratic enumerator takes tens of seconds here
    assert len(enumerate_gst(kron, 1000).walks) == 2000
    assert [w.literal() for w in enumerate_gba(kron, 1000).walks] == ["a , ~b"]


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


@functools.cache
def _discreteness_algebras():
    """full_corpus() plus random_gentle(14..599)."""
    return full_corpus() + [random_gentle(seed) for seed in range(14, 600)]


def test_discreteness_output_is_pinned():
    # the band-witness literals and component summaries, not only the verdict
    algs = _discreteness_algebras()[:206]  # up to random_gentle(199)
    report = json.dumps([[p.name, is_derived_discrete(p).to_json()] for p in algs])
    assert len(algs) == 206
    assert report.count('"derived_discrete": true') == 149
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "aa3dd1d53f0e71b64404e41bb3ed6425b11e21f8e7614f09e069bee1dd9ad2e2")


def _vossieck_discrete(pres):
    """Per connected component: a tree, or one cycle whose clockwise and
    anticlockwise relation counts differ (Vossieck 2001;
    Bobinski-Geiss-Skowronski 2004)."""
    root = {v: v for v in pres.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a in pres.arrows:
        root[find(a.source)] = find(a.target)
    for comp in {find(v) for v in pres.vertices}:
        arrows = [a for a in pres.arrows if find(a.source) == comp]
        size = sum(1 for v in pres.vertices if find(v) == comp)
        if len(arrows) == size - 1:
            continue
        if len(arrows) > size:
            return False
        # strip leaves until only the cycle's arrows are left
        cycle = list(arrows)
        while True:
            degree = Counter(v for a in cycle for v in (a.source, a.target))
            leaves = [a for a in cycle if 1 in (degree[a.source], degree[a.target])]
            if not leaves:
                break
            cycle = [a for a in cycle if a not in leaves]
        forward = {cycle[0].name: True}
        at = cycle[0].target
        while len(forward) < len(cycle):
            nxt = next(a for a in cycle if a.name not in forward and at in (a.source, a.target))
            forward[nxt.name] = nxt.source == at
            at = nxt.target if forward[nxt.name] else nxt.source
        clock = Counter(forward[a] for a, b in pres.relations
                        if a in forward and b in forward)
        if clock[True] == clock[False]:
            return False
    return True


def test_discreteness_agrees_with_the_vossieck_oracle():
    algs = _discreteness_algebras()
    verdicts = [is_derived_discrete(pres).discrete for pres in algs]
    assert verdicts == [_vossieck_discrete(pres) for pres in algs]
    assert (len(algs), sum(verdicts)) == (606, 424)


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


def _window_is_the_stalk(walk):
    cx, info = beta_window(a0, walk, 2)
    return cx == string_complex(a0, walk) and info == {
        "left_attached": 0, "right_attached": 0,
        "left_exhausted": True, "right_exhausted": True}


def _no_letter_to_truncate(truncate):
    def check(walk):
        with pytest.raises(PresentationError, match="trivial walk has no letter"):
            truncate(a0, walk, 1)
        return True
    return check


@pytest.mark.parametrize("check", [
    pytest.param(lambda walk: beta_extension_chains(a0, walk) == (None, None),
                 id="beta_extension_chains"),
    pytest.param(_window_is_the_stalk, id="beta_window"),
    pytest.param(_no_letter_to_truncate(truncate_first), id="truncate_first"),
    pytest.param(_no_letter_to_truncate(truncate_last), id="truncate_last"),
    pytest.param(is_primitive, id="is_primitive"),
])
def test_walk_operations_take_the_trivial_walk(check):
    # P_2 in degree 0: no kernel chain, its own beta window, no letter to
    # truncate, and no proper power
    assert check(trivial_walk(a0, "2"))


def test_shorten_letter_drops_the_walk_front():
    path = a0.path(["a3", "a4", "a5"])
    assert shorten_letter(a0, Letter(path), 1).literal() == "a4.a5"
    # an inverse letter runs back to front: its walk-front is a5
    assert shorten_letter(a0, Letter(path, True), 2).literal() == "~a3"
    assert shorten_letter(a0, Letter(path, True), 3) is None


def test_glue_bar_examples():
    bar = glue_bar(a0, a0.path(["a1"]))
    assert bar.finite
    assert [l.literal() for l in bar.letters()] == ["a1", "a3"]
    # a count truncates a finite chain and never lengthens it
    assert [l.literal() for l in bar.letters(1)] == ["a1"]
    assert bar.letters(5) == bar.letters()

    bar = glue_bar(a0, a0.path(["a4"]))
    assert bar.finite
    assert [l.literal() for l in bar.letters()] == ["a4"]

    bar = glue_bar(cyc, cyc.path(["x"]))
    assert not bar.finite
    assert len(bar.period) == 3
    head = [l.literal() for l in bar.letters(7)]
    assert head == ["x", "y", "z", "x", "y", "z", "x"]
    assert glue_bar(cyc, cyc.path(["x"])) is bar


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: beta_window(a0, parse_walk(a0, "a1"), -1), "steps must be >= 0",
                 id="beta_window"),
    pytest.param(lambda: a0.out_arrows("9"), "unknown vertex '9'", id="out_arrows"),
    pytest.param(lambda: a0.in_arrows("9"), "unknown vertex '9'", id="in_arrows"),
    pytest.param(lambda: a0.trivial_path("9"), "unknown vertex '9'", id="trivial_path"),
    pytest.param(lambda: a0.path([]), "a nontrivial path needs at least one arrow", id="path"),
    pytest.param(lambda: classify_walk(a0, []), "a generalized walk needs at least one letter",
                 id="classify_walk"),
    pytest.param(lambda: canonical_band(a0, parse_walk(a0, "a1")),
                 "canonical_band needs a generalized band, got GST", id="canonical_band"),
    pytest.param(lambda: glue_bar(cyc, cyc.path(["x"])).letters(),
                 "periodic chain needs an explicit length", id="letters"),
    pytest.param(lambda: glue_bar(a0, a0.trivial_path("1")),
                 "glue_bar needs a path of length >= 1", id="glue_bar"),
])
def test_library_input_errors(call, message):
    with pytest.raises(PresentationError) as err:
        call()
    assert str(err.value) == message


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


def test_longest_walk_arrows_against_enumeration():
    """The enumerated strings bound the answer without the letter graph's
    order: a finite value is the largest arrow total and no longer string
    exists one arrow further, and when there is no bound, a walk that
    repeats a letter shows up by six arrows on these draws."""
    finite = 0
    for seed in range(200):
        pres = random_gentle(seed)
        longest = longest_walk_arrows(pres)
        if longest is None:
            found = enumerate_gst(pres, 6).walks
            assert any(len(set(w.letters)) < w.width for w in found), seed
            continue
        finite += 1
        for bound in (longest, longest + 1):
            totals = [sum(l.length for l in w.letters) for w in enumerate_gst(pres, bound).walks]
            assert max(totals, default=0) == longest, (seed, bound)
    assert 50 < finite < 150


def test_walk_literals_round_trip():
    for pres in (a0, kron):
        for walk in _sampled_walks(pres):
            assert parse_walk(pres, walk.literal()) == walk


def test_walk_literals_reject_empty_letters_and_arrow_names():
    for literal in ("", "a1 , ", "~", "a1 , ~ , a3"):
        with pytest.raises(PresentationError, match="empty letter"):
            parse_walk(a0, literal)
    for literal in ("a1.", "a3..a4", ".a3", "~a3. .a4"):
        with pytest.raises(PresentationError, match="empty arrow name"):
            parse_walk(a0, literal)
    assert parse_walk(a0, " ~ a3 . a4 ").literal() == "~a3.a4"


def test_transition_graph_edges_are_walk_legal():
    graph = letter_graph(a0)
    for src, dsts in zip(graph.letters, graph.succ):
        for dst in dsts:
            assert classify_walk(a0, [src, graph.letters[dst]]).kind in (GST, GBA)


def test_letter_graph_components_against_reachability():
    """Tarjan's components, checked against reachability by search: they
    partition the letters, two letters share one exactly when each reaches
    the other, and each is listed after every component it reaches."""
    for seed in range(100):
        graph = letter_graph(random_gentle(seed))
        n = len(graph.letters)
        reach = []
        for start in range(n):
            seen, todo = set(), [start]
            while todo:
                for k in graph.succ[todo.pop()]:
                    if k not in seen:
                        seen.add(k)
                        todo.append(k)
            reach.append(seen)
        where = {j: c for c, comp in enumerate(graph.components) for j in comp}
        assert sorted(where) == list(range(n))
        assert sum(map(len, graph.components)) == n, seed
        for i in range(n):
            for j in range(n):
                mutual = i == j or (j in reach[i] and i in reach[j])
                assert (where[i] == where[j]) == mutual, (seed, i, j)
                if j in reach[i]:
                    assert where[j] <= where[i], (seed, i, j)


def test_letter_graph_is_built_once_per_presentation(monkeypatch):
    from gentle import hl_spectrum, verify_counterexample_a0
    builds = []
    real = walks._sccs
    monkeypatch.setattr(walks, "_sccs", lambda succ: builds.append(succ) or real(succ))
    verify_counterexample_a0()
    assert len(builds) == 1
    hl_spectrum(random_gentle(5), 6, reduce_check=True)
    assert len(builds) == 2


@given(st.integers(0, 2**30))
@settings(max_examples=25, deadline=None)
def test_random_gentle_walks_classify_consistently(seed):
    from corpus import random_gentle
    pres = random_gentle(seed)
    for walk in enumerate_gst(pres, 4).walks[:40]:
        assert walk.mu == mu_profile(walk.letters)
        assert inverse_walk(pres, walk).kind == walk.kind
