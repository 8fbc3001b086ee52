import hashlib
import json
from fractions import Fraction

import pytest

from gentle import (NotComposable, band_complex, cohomology_dims, complex_to_json,
                    differential_matrix, enumerate_gba,
                    enumerate_gst, inverse_walk, parse_walk, shift,
                    string_complex, trivial_walk)
from gentle.complexes import ProjComplex, Summand, total_dimension
from gentle.exact import rank

from corpus import A0, KRONECKER, SQUARE, full_corpus, load
from oracles import brutal_truncate, check_minimal

a0 = load(A0)
kron = load(KRONECKER)
square = load(SQUARE)


def test_string_complex_of_single_relation_arrow():
    cx = string_complex(a0, parse_walk(a0, "a1"))
    assert cx.degrees() == [-1, 0]
    assert [s.vertex for s in cx.summands[0]] == ["1"]
    assert [s.vertex for s in cx.summands[-1]] == ["2"]
    ((path, scalar),) = cx.diffs[-1][(0, 0)]
    assert path.label() == "a1" and scalar == 1


def test_string_complex_relation_pair():
    cx = string_complex(a0, parse_walk(a0, "a1 , a3"))
    assert cx.degrees() == [-2, -1, 0]
    assert [s.vertex for d in (-2, -1, 0) for s in cx.summands[d]] == ["4", "2", "1"]
    assert [p.label() for (p, _) in cx.diffs[-2][(0, 0)]] == ["a3"]
    assert [p.label() for (p, _) in cx.diffs[-1][(0, 0)]] == ["a1"]


def test_stalk_complex():
    cx = string_complex(a0, trivial_walk(a0, "3"))
    assert cx.degrees() == [0]
    assert cx.diffs == {}
    assert check_minimal(cx)


def test_band_complex_kronecker_shape():
    band = parse_walk(kron, "a , ~b")
    cx = band_complex(kron, band, 1, 1)
    # built on the rotation with the degree minimum at node 0
    assert cx.degrees() == [0, 1]
    assert [s.vertex for s in cx.summands[0]] == ["2"]
    assert [s.vertex for s in cx.summands[1]] == ["1"]
    terms = cx.diffs[0][(0, 0)]
    assert sorted((p.label(), s) for p, s in terms) == [("a", 1), ("b", 1)]


def test_band_complex_multiplicity_two_jordan_block():
    band = parse_walk(kron, "a , ~b")
    lam = Fraction(1, 2)
    cx = band_complex(kron, band, lam, 2)
    assert [s.vertex for s in cx.summands[0]] == ["2", "2"]
    assert [s.vertex for s in cx.summands[1]] == ["1", "1"]
    entries = cx.diffs[0]
    # identity carries b on the diagonal, the Jordan block carries a
    assert sorted((p.label(), s) for p, s in entries[(0, 0)]) == [("a", lam), ("b", 1)]
    assert sorted((p.label(), s) for p, s in entries[(0, 1)]) == [("a", 1)]
    assert sorted((p.label(), s) for p, s in entries[(1, 1)]) == [("a", lam), ("b", 1)]
    assert (1, 0) not in entries


def test_band_complex_lambda_only_changes_scalars():
    band = parse_walk(kron, "a , ~b")
    shapes = set()
    for lam in (1, 2, -1):
        cx = band_complex(kron, band, lam, 1)
        shapes.add(tuple((d, tuple(s.vertex for s in cx.summands[d])) for d in cx.degrees()))
    assert len(shapes) == 1


def test_band_complex_rejects_bad_parameters():
    band = parse_walk(kron, "a , ~b")
    with pytest.raises(Exception):
        band_complex(kron, band, 0, 1)
    with pytest.raises(Exception):
        band_complex(kron, band, 1, 0)
    with pytest.raises(Exception):
        band_complex(kron, parse_walk(kron, "a"), 1, 1)


def test_shift_identity_and_inverse():
    cx = string_complex(a0, parse_walk(a0, "a1"))
    assert shift(cx, 0) is cx
    double = shift(shift(cx, 1), -1)
    assert double.summands == cx.summands
    assert double.diffs == cx.diffs


def test_shift_moves_cohomology():
    walk = parse_walk(a0, "a1")
    cx = string_complex(a0, walk)
    base = cohomology_dims(a0, cx).as_dict()
    for k in (-2, 1, 3):
        shifted = cohomology_dims(a0, shift(cx, k)).as_dict()
        assert shifted == {deg - k: v for deg, v in base.items()}


def test_brutal_truncate():
    cx = string_complex(a0, parse_walk(a0, "a1 , a3"))
    assert brutal_truncate(cx, -5).summands == cx.summands
    cut = brutal_truncate(cx, -1)
    assert cut.degrees() == [-1, 0]
    assert -2 not in cut.diffs
    assert brutal_truncate(cx, 7).is_zero()


def test_check_minimal_flags_identity_entries():
    assert check_minimal(string_complex(a0, parse_walk(a0, "a1")))
    bad = ProjComplex(
        {0: (Summand("1", 0),), 1: (Summand("1", 1),)},
        {0: {(0, 0): ((a0.trivial_path("1"), Fraction(1)),)}})
    assert not check_minimal(bad)
    assert check_minimal(ProjComplex({}, {}))


def test_differential_matrix_a1():
    cx = string_complex(a0, parse_walk(a0, "a1"))
    rows = differential_matrix(a0, cx, -1)
    assert len(rows) == total_dimension(a0, cx, 0) == 3
    assert total_dimension(a0, cx, -1) == 6
    assert all(col < 6 for row in rows for col in row)
    assert rank(rows) == 2


def test_differential_matrix_band():
    cx = band_complex(kron, parse_walk(kron, "a , ~b"), 1, 1)
    rows = differential_matrix(kron, cx, 0)
    assert len(rows) == total_dimension(kron, cx, 1) == 3
    assert total_dimension(kron, cx, 0) == 1
    assert all(col < 1 for row in rows for col in row)
    assert rank(rows) == 1


def test_differential_matrix_rejects_entries_off_their_summands():
    a1 = a0.path(["a1"])  # 1 -> 2: maps P_2 into P_1
    for col, row in (("3", "1"), ("2", "4")):
        cx = ProjComplex({0: (Summand(col, 0),), 1: (Summand(row, 1),)},
                         {0: {(0, 0): ((a1, Fraction(1)),)}})
        with pytest.raises(NotComposable):
            differential_matrix(a0, cx, 0)


def test_zero_differential_matrix():
    cx = string_complex(a0, trivial_walk(a0, "2"))
    assert differential_matrix(a0, cx, 0) == []


def _corpus_complexes(bound=5, walk_cap=60):
    for pres in full_corpus(random_count=8):
        walks = enumerate_gst(pres, bound).walks[:walk_cap]
        for walk in walks:
            yield pres, walk, string_complex(pres, walk)
        for band in enumerate_gba(pres, bound).walks[:6]:
            for d in (1, 2):
                yield pres, band, band_complex(pres, band, 1, d)


def test_summand_counts():
    for pres, walk, cx in _corpus_complexes():
        if cx.origin.startswith("string"):
            assert cx.summand_count() == walk.width + 1
        else:
            d = int(cx.origin.rsplit("d=", 1)[1])
            assert cx.summand_count() == walk.width * d


def test_minimality_everywhere():
    for _, _, cx in _corpus_complexes():
        assert check_minimal(cx)


def test_euler_characteristic():
    for pres, _, cx in _corpus_complexes(bound=4, walk_cap=30):
        vec = cohomology_dims(pres, cx).as_dict()
        chi_complex = sum((-1) ** d * total_dimension(pres, cx, d) for d in cx.degrees())
        chi_cohomology = sum((-1) ** d * v for d, v in vec.items())
        assert chi_complex == chi_cohomology


def test_inverse_walk_gives_shifted_summand_multiset():
    for pres in (a0, kron, square):
        for walk in enumerate_gst(pres, 5).walks[:40]:
            cx = string_complex(pres, walk)
            inv = string_complex(pres, inverse_walk(pres, walk))
            offset = walk.mu[-1]
            for deg in cx.degrees():
                ours = sorted(s.vertex for s in cx.summands[deg])
                theirs = sorted(s.vertex for s in inv.summands.get(deg - offset, ()))
                assert ours == theirs


def test_complex_json_shape():
    cx = string_complex(a0, parse_walk(a0, "a1"))
    payload = complex_to_json(a0, cx)
    assert payload["degrees"] == {"-1": [["2", 1]], "0": [["1", 1]]}
    assert payload["diffs"] == {"-1": [{"row": 0, "col": 0, "terms": [["a1", "1"]]}]}
    band = complex_to_json(kron, band_complex(kron, parse_walk(kron, "a , ~b"), Fraction(1, 2), 2))
    assert band["degrees"]["0"] == [["2", 2]]
    assert any(term[1] == "1/2" for entry in band["diffs"]["0"] for term in entry["terms"])


COMPLEX_ROUTE_DIGEST = "a32c51353dd4da142a0b79fc25eff37fc5ce4bd57bc039769159cafe28ef4fdb"


def test_complex_route_is_pinned():
    # every corpus string at bound 6 and every band at three lambdas and
    # d = 1..4: the built complex, its ranked cohomology and its origin
    digest = hashlib.sha256()
    count = 0

    def feed(pres, cx):
        nonlocal count
        digest.update(json.dumps([complex_to_json(pres, cx),
                                  cohomology_dims(pres, cx).to_json(),
                                  cx.origin]).encode())
        count += 1

    for pres in full_corpus():
        for walk in enumerate_gst(pres, 6).walks:
            feed(pres, string_complex(pres, walk))
        for band in enumerate_gba(pres, 6).walks:
            for lam in (1, -2, Fraction(1, 3)):
                for d in (1, 2, 3, 4):
                    feed(pres, band_complex(pres, band, lam, d))
    assert count == 1841
    assert digest.hexdigest() == COMPLEX_ROUTE_DIGEST
