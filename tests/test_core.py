import pytest

from gentle import (NotComposable, PresentationError, compose, dim_projective,
                    left_action, maximal_path, other_maximal_path,
                    parse_presentation, path_basis, validate_gentle)

from corpus import A0, KRONECKER, full_corpus, load


def test_parse_a0():
    pres = parse_presentation(A0)
    assert pres.name == "a0"
    assert len(pres.vertices) == 7
    assert len(pres.arrows) == 6
    assert pres.relations == {("a1", "a3")}


def test_parse_single_vertex_no_arrows():
    pres = parse_presentation("algebra k\nvertices 1\n")
    assert validate_gentle(pres).ok
    assert [p.label() for p in path_basis(pres)] == ["e_1"]


def test_parse_rejects_non_composable_relation():
    text = "algebra t\nvertices 1 2 3\narrow a1 : 1 -> 2\narrow a2 : 2 -> 3\nrel a2 a1\n"
    with pytest.raises(PresentationError, match="not composable"):
        parse_presentation(text)


@pytest.mark.parametrize("text,match", [
    ("vertices 1\narrow a : 1 -> 1 -> 1\n", "expected"),
    ("vertices 1 1\n", "duplicate vertex"),
    ("vertices 1\narrow a : 1 -> 2\n", "unknown vertex"),
    ("vertices 1\nrel a b\n", "unknown arrow"),
    ("vertices 1\nbogus x\n", "unknown directive"),
    # such names would make "a.b , ~c" read as a walk over arrows a, b and c
    ("vertices 1 2\narrow a.b : 1 -> 2\n", "contains '.', ',' or '~'"),
    ("vertices 1 2\narrow ~c : 1 -> 2\n", "contains '.', ',' or '~'"),
    ("vertices 1 2\narrow c,d : 1 -> 2\n", "contains '.', ',' or '~'"),
    ("algebra a b\nvertices 1\n", "exactly one name"),
    ("vertices\n", "at least one id"),
    ("vertices 1 2\narrow a : 1 -> 2\narrow a : 1 -> 2\n", "duplicate arrow 'a'"),
    ("vertices 1\narrow a : 2 -> 1\n", "unknown vertex '2'"),
    ("vertices 1\narrow a : 1 -> 1\nrel a\n", "expected 'rel A B'"),
    ("vertices 1\narrow a : 1 -> 1\nrel a b\n", "unknown arrow 'b'"),
    ("vertices 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\nrel a b\nrel a b\n",
     "duplicate relation a b"),
])
def test_parse_errors_carry_line_numbers(text, match):
    with pytest.raises(PresentationError, match=match) as err:
        parse_presentation(text)
    assert "line" in str(err.value)


def test_validate_a0_passes():
    report = validate_gentle(parse_presentation(A0))
    assert report.ok
    assert report.violations == ()
    assert report.connected


def test_three_parallel_arrows_violate_axiom_one():
    text = ("algebra t\nvertices 1 2\n"
            "arrow a : 1 -> 2\narrow b : 1 -> 2\narrow c : 1 -> 2\n")
    report = validate_gentle(parse_presentation(text))
    assert not report.ok
    assert any(v.axiom == "axiom-1" for v in report.violations)


def test_relation_free_loop_is_infinite_dimensional():
    report = validate_gentle(parse_presentation("algebra t\nvertices 1\narrow c : 1 -> 1\n"))
    assert not report.ok
    assert any(v.axiom == "finite-dimension" for v in report.violations)


# not gentle: a has two relation and two relation-free continuations, 1 has
# four in-arrows, and a.d is a relation-free cycle
CROWDED = ("algebra t\nvertices 1 2\narrow a : 1 -> 2\narrow b : 2 -> 1\n"
           "arrow c : 2 -> 1\narrow d : 2 -> 1\narrow e : 2 -> 1\nrel a b\nrel a c\nrel b a\n")


def test_validation_report_is_pinned():
    # apart is disconnected and z has two relation predecessors
    crowded = parse_presentation(CROWDED)
    apart = parse_presentation("algebra t\nvertices 1 2 3 4\narrow x : 1 -> 2\n"
                               "arrow y : 1 -> 2\narrow z : 2 -> 3\nrel x z\nrel y z\n")
    assert validate_gentle(crowded).to_json() == {"pass": False, "connected": True, "violations": [
        {"axiom": "axiom-1", "message": "vertex 1 has 4 incoming arrows (max 2)",
         "items": ["b", "c", "d", "e"]},
        {"axiom": "axiom-1", "message": "vertex 2 has 4 outgoing arrows (max 2)",
         "items": ["b", "c", "d", "e"]},
        {"axiom": "axiom-2", "message": "arrow a has several relation continuations",
         "items": ["b", "c"]},
        {"axiom": "axiom-3", "message": "arrow a has several relation-free continuations",
         "items": ["d", "e"]},
        {"axiom": "axiom-3", "message": "arrow a has several relation-free predecessors",
         "items": ["c", "d", "e"]},
        {"axiom": "finite-dimension", "message": "relation-free oriented cycle",
         "items": ["a", "d"]}]}
    assert validate_gentle(apart).to_json() == {"pass": False, "connected": False, "violations": [
        {"axiom": "axiom-2", "message": "arrow z has several relation predecessors",
         "items": ["x", "y"]}]}


def test_square_zero_loop_is_fine():
    report = validate_gentle(parse_presentation(
        "algebra t\nvertices 1\narrow c : 1 -> 1\nrel c c\n"))
    assert report.ok


@pytest.mark.parametrize("target", ["1", "3", "5"])
def test_extra_arrow_out_of_vertex_2_breaks_a0(target):
    text = A0 + f"arrow extra : 2 -> {target}\n"
    report = validate_gentle(parse_presentation(text))
    assert not report.ok


def _brute_force_paths(pres):
    # independent breadth-first enumeration of relation-free paths
    found = [((), v, v) for v in pres.vertices]
    frontier = [((a.name,), a.source, a.target) for a in pres.arrows]
    while frontier:
        found.extend(frontier)
        nxt = []
        for arrs, s, t in frontier:
            for b in pres.arrows:
                if b.source == t and (arrs[-1], b.name) not in pres.relations:
                    nxt.append((arrs + (b.name,), s, b.target))
        frontier = nxt
    return found


def test_a0_basis_matches_brute_force():
    pres = load(A0)
    basis = path_basis(pres)
    brute = _brute_force_paths(pres)
    assert len(basis) == len(brute) == 20
    assert {p.arrows for p in basis} == {arrs for arrs, _, _ in brute}


def test_a0_basis_from_vertex_2():
    pres = load(A0)
    from_2 = [p.label() for p in path_basis(pres) if p.source == "2"]
    assert from_2 == ["e_2", "a2", "a3", "a3.a4", "a3.a4.a5", "a3.a4.a5.a6"]
    assert dim_projective(pres, "2") == 6


def test_kronecker_basis():
    pres = load(KRONECKER)
    assert [p.label() for p in path_basis(pres)] == ["e_1", "a", "b", "e_2"]
    assert dim_projective(pres, "1") == 3
    assert dim_projective(pres, "2") == 1


def test_basis_is_closed_under_subpaths_and_ordered():
    for pres in full_corpus(random_count=6):
        basis = path_basis(pres)
        arrow_sets = {p.arrows for p in basis}
        for p in basis:
            for i in range(p.length):
                for j in range(i + 1, p.length + 1):
                    assert p.arrows[i:j] in arrow_sets or i == j
        keys = [(p.source, p.length, p.arrows) for p in basis]
        assert keys == sorted(keys)


def test_maximal_extension_a0():
    # a1 extends to a1.a2 by hat = a2, and no other arrow leaves s(a1)
    pres = load(A0)
    assert maximal_path(pres, "a1").label() == "a1.a2"
    assert maximal_path(pres, pres.free_continuation("a1")).label() == "a2"
    assert other_maximal_path(pres, "a1") is None

    assert maximal_path(pres, "a3").label() == "a3.a4.a5.a6"
    assert other_maximal_path(pres, "a3").label() == "a2"


def test_maximal_extension_kronecker():
    pres = load(KRONECKER)
    assert maximal_path(pres, "a").label() == "a"
    assert pres.free_continuation("a") is None  # hat is trivial
    assert other_maximal_path(pres, "a").label() == "b"


def _scanned_continuation(pres, arrow_name, relation):
    """The first arrow out of the target whose product with the arrow is
    (or is not) a relation, by a scan of the out-arrows."""
    a = pres.arrow(arrow_name)
    return next((b.name for b in pres.out_arrows(a.target)
                 if pres.is_relation(arrow_name, b.name) == relation), None)


def test_continuations_agree_with_a_scan_of_the_out_arrows():
    # never validated
    crowded = parse_presentation(CROWDED)
    assert (crowded.relation_continuation("a"), crowded.free_continuation("a")) == ("b", "d")
    for pres in full_corpus() + [crowded]:
        for a in pres.arrows:
            assert pres.relation_continuation(a.name) == _scanned_continuation(pres, a.name, True)
            assert pres.free_continuation(a.name) == _scanned_continuation(pres, a.name, False)
    for lookup in (crowded.relation_continuation, crowded.free_continuation):
        with pytest.raises(PresentationError, match="unknown arrow"):
            lookup("z")
    for pres in full_corpus():
        for a in pres.arrows:
            other = next((b.name for b in pres.out_arrows(a.source) if b.name != a.name), None)
            check = other_maximal_path(pres, a.name)
            assert check == (maximal_path(pres, other) if other is not None else None)
            assert check is None or check.source == a.source
    with pytest.raises(PresentationError, match="validate_gentle"):
        other_maximal_path(crowded, "a")  # the only arrow out of 1


def test_maximal_path_is_the_maximal_extension_of_its_arrow():
    assert maximal_path(load(A0), "a3").label() == "a3.a4.a5.a6"
    for pres in full_corpus():
        for a in pres.arrows:
            arrows = maximal_path(pres, a.name).arrows
            assert arrows[0] == a.name
            assert all(pres.free_continuation(x) == y for x, y in zip(arrows, arrows[1:]))
            assert pres.free_continuation(arrows[-1]) is None
            assert maximal_path(pres, a.name) is maximal_path(pres, a.name)


def test_compose_relation_and_identity():
    pres = load(A0)
    a1, a2, a3 = pres.path(["a1"]), pres.path(["a2"]), pres.path(["a3"])
    assert compose(pres, a1, a3) is None
    assert compose(pres, a1, a2).label() == "a1.a2"
    e1 = pres.trivial_path("1")
    assert compose(pres, e1, a1) == a1
    with pytest.raises(NotComposable):
        compose(pres, a2, a1)


def test_compose_associative_brute_force():
    pres = load(A0)
    basis = path_basis(pres)

    def mul(p, q):
        if p is None or q is None or p.target != q.source:
            return None
        return compose(pres, p, q)

    for p in basis:
        for q in basis:
            for r in basis:
                if p.target == q.source and q.target == r.source:
                    assert mul(mul(p, q), r) == mul(p, mul(q, r))


def test_dim_projective_equals_basis_count_everywhere():
    for pres in full_corpus(random_count=8):
        basis = path_basis(pres)
        for v in pres.vertices:
            assert dim_projective(pres, v) == sum(1 for p in basis if p.source == v)


def test_a0_sink_has_dimension_one():
    assert dim_projective(load(A0), "7") == 1


def test_left_action_agrees_with_compose():
    for pres in full_corpus():
        basis = path_basis(pres)
        for path in basis:
            targets = [u for u in basis if u.source == path.target]
            images = [p for p in basis if p.source == path.source]
            expected = tuple((k, images.index(compose(pres, path, u)))
                             for k, u in enumerate(targets)
                             if compose(pres, path, u) is not None)
            assert left_action(pres, path) == expected, path
            assert left_action(pres, path) is left_action(pres, path)


def test_presentation_fields_are_its_inputs_and_facts_are_kept_per_presentation():
    from dataclasses import fields
    from gentle import cohomology, core, walks
    assert [f.name for f in fields(core.Presentation)] == [
        "name", "vertices", "arrows", "relations", "validated"]
    used, fresh = load(A0), load(A0)
    a1 = used.path(["a1"])
    builders = [
        core._vertex_basis,
        lambda pres: left_action(pres, a1),
        lambda pres: other_maximal_path(pres, "a3"),
        lambda pres: maximal_path(pres, "a3"),
        lambda pres: walks.glue_bar(pres, a1),
        walks.letter_graph,
        lambda pres: cohomology._vector(pres, (-1, (2,))),
    ]
    built = [build(used) for build in builders]
    assert used == fresh
    for build, value in zip(builders, built):
        assert build(used) is value
        other = build(fresh)
        assert other is not value and other == value
