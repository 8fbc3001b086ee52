"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Two expectations bundled with the source material do not survive the exact
computation, and the values asserted here are the ones the mathematics gives:
the global cohomological width of the built-in seven-vertex scan is 2 (not 3),
and a band's vector exceeds the beta vector of its unwound repeated string by
exactly one in degree 1 (it is not equal to it).  Each test states the
argument that settles its value independently of the code under test.
"""
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from gentle import (A0_SOURCE, band_complex,
                    beta_cohomology, beta_window, classify_walk,
                    cohomology_dims, differential_matrix, enumerate_gba,
                    enumerate_gst, hl_spectrum, load_builtin,
                    longest_walk_arrows, node_sums, parse_walk,
                    stalk_witness, string_complex, trivial_walk,
                    verify_counterexample_a0)
from gentle.cli import main
from gentle.complexes import mu_minimal_rotation, total_dimension
from gentle.exact import rank

from corpus import full_corpus
from oracles import check_minimal

ROOT = Path(__file__).resolve().parent.parent
A0_FILE = str(ROOT / "algebras" / "a0.alg")

CORPUS = full_corpus()


def verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_1_base_computation():
    start = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["cohomology", A0_FILE, "--walk", "a1"])
    elapsed = time.time() - start
    payload = json.loads(buf.getvalue())
    ok = (code == 0
          and payload == {"dims": {"-1": 4, "0": 1}, "hl": 4, "hw": 2, "hr": 8}
          and elapsed < 1.0)
    assert verdict("1 base computation", ok, f"{elapsed:.2f}s")


def test_criterion_2_counterexample_scan():
    start = time.time()
    report = verify_counterexample_a0()
    elapsed = time.time() - start
    checks = report["checks"]
    ok = (checks["enumeration_complete"]
          and checks["hr_8_achieved"]
          and checks["hr_7_absent"]
          and checks["gl_hl_at_most_6"]
          and checks["derived_discrete"]
          and elapsed < 30.0)
    assert verdict("2 counterexample scan", ok,
                   f"hr achieved {report['hr_achieved']}, {elapsed:.2f}s")


def test_criterion_2_global_width_value():
    """The global cohomological width of the seven-vertex scan is 2.

    A0 is a gentle algebra whose quiver is a tree on 7 vertices, so by
    Assem-Happel (1981) it is iterated tilted of type A_7 and
    D^b(A0) ~ D^b(kA_7).  By Happel the indecomposables of D^b(kA_7) up to
    shift are the 7 * 8 / 2 = 28 indecomposable kA_7-modules.  Distinct
    generalized strings up to inversion give non-isomorphic complexes
    (Bekkert-Merklen 2003), so 7 stalks and 21 strings exhaust D^b(A0) up
    to shift, and A0 has no bands.  The width is therefore the largest hw
    over those 28 complexes, computed here by rank elimination and by the
    closed form.  The widest *complex* (`a1 , a3...`, mu = (0, -1, -2))
    spans 3 degrees, but its lowest map is injective, so no cohomology does.
    """
    report = verify_counterexample_a0()
    pres = load_builtin(A0_SOURCE)
    n = len(pres.vertices)
    bound = longest_walk_arrows(pres)
    strings = enumerate_gst(pres, bound)
    bands = enumerate_gba(pres, bound)
    complexes = ([string_complex(pres, trivial_walk(pres, v)) for v in pres.vertices]
                 + [string_complex(pres, w) for w in strings.walks])
    by_rank = [cohomology_dims(pres, cx) for cx in complexes]
    by_closed_form = ([stalk_witness(pres, v).cohomology for v in pres.vertices]
                      + [node_sums(pres, w) for w in strings.walks])
    rank_hw = max(v.hw for v in by_rank)
    closed_form_hw = max(v.hw for v in by_closed_form)
    widest_complex = max(cx.degrees()[-1] - cx.degrees()[0] + 1 for cx in complexes)
    ok = (report["gl_hw"] == 2
          and strings.complete and not bands.walks
          and len(complexes) == n * (n + 1) // 2 == 28
          and by_rank == by_closed_form
          and rank_hw == closed_form_hw == report["gl_hw"]
          and widest_complex == 3)
    assert verdict("2 global width equals 2", ok,
                   f"computed {report['gl_hw']} (rank {rank_hw}, closed form "
                   f"{closed_form_hw}), {len(complexes)} indecomposables, "
                   f"widest complex {widest_complex}")


def _spectrum_bound(pres):
    longest = longest_walk_arrows(pres)
    if longest is not None and longest <= 12:
        return [longest]
    return [7, 8, 9, 10, 11]


def test_criterion_3_no_gaps_with_reductions():
    start = time.time()
    assert len(CORPUS) >= 20
    problems = []
    reductions = 0
    for pres in CORPUS:
        outcome = None
        for bound in _spectrum_bound(pres):
            report = hl_spectrum(pres, bound, include_bands=True, reduce_check=True)
            if not report.gaps and not report.failures:
                outcome = report
                break
        if outcome is None:
            problems.append(pres.name)
        else:
            for trace in outcome.reductions:
                assert trace.output.hl == trace.input.hl - 1
            reductions += len(outcome.reductions)
    elapsed = time.time() - start
    ok = not problems and elapsed < 300.0
    assert verdict("3 gap-free spectra with exact reductions", ok,
                   f"{len(CORPUS)} algebras, {reductions} reductions, {elapsed:.1f}s"
                   + (f", problems {problems}" if problems else ""))


def test_criterion_4_oracle_equivalence():
    walks = 0
    mismatches = []
    for pres in CORPUS:
        for walk in enumerate_gst(pres, 6).walks[:120]:
            expected = cohomology_dims(pres, string_complex(pres, walk))
            if node_sums(pres, walk) != expected:
                mismatches.append((pres.name, walk.literal()))
            walks += 1
    ok = walks >= 500 and not mismatches
    assert verdict("4 closed form equals rank oracle", ok,
                   f"{walks} walks, {len(mismatches)} mismatches")


LAMBDAS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))


def _corpus_bands():
    for pres in CORPUS:
        for band in enumerate_gba(pres, 6).walks[:6]:
            yield pres, band


def test_criterion_5_band_identities():
    bands = 0
    problems = []
    for pres, band in _corpus_bands():
        bands += 1
        per_d = {}
        for d in (1, 2, 3):
            vectors = {lam: cohomology_dims(pres, band_complex(pres, band, lam, d))
                       for lam in LAMBDAS}
            values = {v.dims for v in vectors.values()}
            if len(values) != 1:
                problems.append((pres.name, band.literal(), d, "lambda"))
            per_d[d] = vectors[Fraction(1)]
            if per_d[d].as_dict().get(0, 0) != 0:
                problems.append((pres.name, band.literal(), d, "degree zero"))
        base = per_d[1].as_dict()
        for d in (2, 3):
            if per_d[d].as_dict() != {deg: d * v for deg, v in base.items()}:
                problems.append((pres.name, band.literal(), d, "d-linearity"))
    ok = bands > 0 and not problems
    assert verdict("5 band lambda independence and d-linearity", ok,
                   f"{bands} bands" + (f", problems {problems[:3]}" if problems else ""))


def _unwinding_pair(pres, band, d):
    """(band vector, beta vector of the d-fold unwound string) at lambda = 1."""
    band_vec = cohomology_dims(pres, band_complex(pres, band, 1, d))
    unwound = classify_walk(pres, mu_minimal_rotation(pres, band).letters * d)
    return band_vec.as_dict(), beta_cohomology(pres, unwound).as_dict()


def test_criterion_5_band_unwinding_bridge():
    """A band's vector is the beta vector of its unwound string plus one in
    degree 1.

    At the mu-minimal rotation the band complex and the complex of the
    d-fold unwound string differ only at the cut node in degree 0: the band
    has d copies of P_v there, the unwound string d + 1.  Both neighbours of
    the cut node sit in degree 1, so every degree >= 2 agrees, degree 0 is
    silent in the band and dropped by beta, and the extra rank of d^0 lands
    in H^1.  By hand for the Kronecker band `a , ~b` with d = 1: the band is
    P_2 -(a + lambda b)-> P_1 with H^1 of dimension 3 - 1 = 2; the unwound
    string is P_2 + P_2 -(a, b)-> P_1 with H^1 of dimension 3 - 2 = 1.
    """
    kronecker = load_builtin((ROOT / "algebras" / "kronecker.alg").read_text(encoding="utf-8"))
    hand = _unwinding_pair(kronecker, parse_walk(kronecker, "a , ~b"), 1)
    mismatches = []
    bands = 0
    for pres, band in _corpus_bands():
        for d in (1, 2, 3):
            bands += 1
            band_vec, beta_vec = _unwinding_pair(pres, band, d)
            excess = {deg: band_vec.get(deg, 0) - beta_vec.get(deg, 0)
                      for deg in band_vec.keys() | beta_vec.keys()}
            if {deg: v for deg, v in excess.items() if v} != {1: 1}:
                mismatches.append((pres.name, band.literal(), d, band_vec, beta_vec))
    ok = hand == ({1: 2}, {1: 1}) and bands > 0 and not mismatches
    assert verdict("5 band exceeds unwound beta by one in degree 1", ok,
                   f"{bands} cases, {len(mismatches)} mismatches, kronecker {hand}"
                   + (f", e.g. {mismatches[0]}" if mismatches else ""))


def test_criterion_6_structural_invariants():
    built = 0
    problems = []
    for pres in CORPUS:
        for walk in enumerate_gst(pres, 7).walks[:200]:
            cx = string_complex(pres, walk)  # cohomology_dims asserts d.d = 0 on rank
            built += 1
            if not check_minimal(cx):
                problems.append((pres.name, walk.literal(), "minimality"))
            if cx.summand_count() != walk.width + 1:
                problems.append((pres.name, walk.literal(), "summand count"))
            vec = cohomology_dims(pres, cx).as_dict()
            chi_x = sum((-1) ** d * total_dimension(pres, cx, d) for d in cx.degrees())
            chi_h = sum((-1) ** d * v for d, v in vec.items())
            if chi_x != chi_h:
                problems.append((pres.name, walk.literal(), "euler"))
        for band in enumerate_gba(pres, 8).walks[:8]:
            for d in (1, 2, 3):
                cx = band_complex(pres, band, 1, d)
                built += 1
                if not check_minimal(cx):
                    problems.append((pres.name, band.literal(), "minimality"))
                if cx.summand_count() != band.width * d:
                    problems.append((pres.name, band.literal(), "summand count"))
    # independent numeric route for d.d = 0 on a sample: d^(i+1) applied
    # to every column of d^i, over the sparse rows
    columns = 0
    for pres in CORPUS[:6]:
        for walk in enumerate_gst(pres, 5).walks[:10]:
            cx = string_complex(pres, walk)
            for deg in cx.degrees():
                first = differential_matrix(pres, cx, deg)
                second = differential_matrix(pres, cx, deg + 1)
                if not first or not second:
                    continue
                for col in range(total_dimension(pres, cx, deg)):
                    image = [sum(x * first[k].get(col, 0) for k, x in row.items())
                             for row in second]
                    columns += 1
                    if any(image):
                        problems.append((pres.name, walk.literal(), "d squared"))
    ok = built >= 1000 and columns > 0 and not problems
    assert verdict("6 structural invariants", ok,
                   f"{built} complexes, d.d = 0 on {columns} columns"
                   + (f", problems {problems[:3]}" if problems else ""))


def test_criterion_7_beta_rule_against_windows():
    checked = 0
    mismatches = []
    for pres in CORPUS:
        for walk in enumerate_gst(pres, 5).walks[:60]:
            cx = string_complex(pres, walk)
            bottom = min(cx.degrees())
            if cohomology_dims(pres, cx).as_dict().get(bottom, 0) == 0:
                continue
            expected = beta_cohomology(pres, walk).as_dict()
            for steps in (1, 2, 3):
                window, _ = beta_window(pres, walk, steps)
                seen = {d: v for d, v in cohomology_dims(pres, window).as_dict().items()
                        if d >= bottom}
                if seen != expected:
                    mismatches.append((pres.name, walk.literal(), steps))
            checked += 1
    ok = checked > 0 and not mismatches
    assert verdict("7 beta rule matches resolution windows", ok,
                   f"{checked} strings, {len(mismatches)} mismatches")
