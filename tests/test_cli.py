import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gentle import cli, nogaps
from gentle.cli import main

from corpus import TWO_RELATION_CYCLES, random_gentle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
A0_FILE = str(ROOT / "algebras" / "a0.alg")
KR_FILE = str(ROOT / "algebras" / "kronecker.alg")


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv, expect=0):
    code, out = run(argv)
    assert code == expect, out
    return json.loads(out)


def test_validate_a0():
    payload = run_json(["validate", A0_FILE])
    assert payload["pass"] is True
    assert payload["algebra"] == "a0"
    assert payload["violations"] == []


def test_validate_reports_violations():
    bad = ROOT / "build_bad.alg"
    bad.write_text("algebra t\nvertices 1 2\n"
                   "arrow a : 1 -> 2\narrow b : 1 -> 2\narrow c : 1 -> 2\n")
    try:
        code, out = run(["validate", str(bad)])
        assert code == 1
        assert json.loads(out)["pass"] is False
    finally:
        bad.unlink()


def test_basis_verb():
    code, out = run(["basis", A0_FILE])
    assert code == 0
    assert out == (GOLDEN / "a0_basis.json").read_text()
    payload = json.loads(out)
    assert payload["size"] == 20
    assert payload["projective_dimensions"]["2"] == 6


def test_cohomology_golden_byte_exact():
    code, out = run(["cohomology", A0_FILE, "--walk", "a1"])
    assert code == 0
    assert out == (GOLDEN / "a0_cohomology_a1.json").read_text()


def test_cohomology_beta_flag():
    payload = run_json(["cohomology", A0_FILE, "--walk", "a1", "--beta"])
    assert payload == {"dims": {"0": 1}, "hl": 1, "hw": 1, "hr": 1}


def test_cohomology_band_golden():
    code, out = run(["cohomology", KR_FILE, "--walk", "a , ~b", "--band",
                     "--lambda", "1/2", "--mult", "2"])
    assert code == 0
    assert out == (GOLDEN / "kronecker_band_cohomology.json").read_text()


def test_complex_verb():
    payload = run_json(["complex", A0_FILE, "--walk", "a1"])
    assert payload["degrees"] == {"-1": [["2", 1]], "0": [["1", 1]]}
    assert payload["diffs"]["-1"] == [{"row": 0, "col": 0, "terms": [["a1", "1"]]}]


def test_lambda_must_be_exact():
    code, _ = run(["cohomology", KR_FILE, "--walk", "a , ~b", "--band",
                   "--lambda", "0.5"])
    assert code == 1
    code, _ = run(["cohomology", KR_FILE, "--walk", "a , ~b", "--band",
                   "--lambda", "0"])
    assert code == 1


def test_enumerate_verb():
    payload = run_json(["enumerate", A0_FILE, "--max-arrows", "10", "--bands"])
    assert payload["complete"] is True
    assert "a1" in payload["strings"]
    assert "a1 , a3" in payload["strings"]
    assert payload["bands"] == []


def test_discrete_verb():
    assert run_json(["discrete", A0_FILE])["derived_discrete"] is True
    payload = run_json(["discrete", KR_FILE])
    assert payload["derived_discrete"] is False
    assert payload["band_witness"] == "a , ~b"


def test_discrete_verb_golden_byte_exact():
    for name in ("kronecker", "a0"):
        code, out = run(["discrete", str(ROOT / "algebras" / f"{name}.alg")])
        assert code == 0
        assert out == (GOLDEN / f"{name}_discrete.json").read_text()


def test_byte_order_mark_is_accepted(tmp_path):
    bom = tmp_path / "kronecker_bom.alg"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(KR_FILE).read_bytes())
    for verb in ("validate", "discrete"):
        plain = run([verb, KR_FILE])
        assert plain[0] == 0
        assert run([verb, str(bom)]) == plain


def test_spectrum_verb_exit_codes():
    payload = run_json(["spectrum", A0_FILE, "--max-arrows", "10", "--reduce-check"])
    assert payload["gaps"] == []
    assert payload["complete"] is True
    assert sorted(int(k) for k in payload["achieved"]) == [1, 2, 3, 4, 5, 6]
    assert payload["reduction_failures"] == []


def test_spectrum_reduction_failure_exits_three(monkeypatch):
    real = nogaps.reduce_witness

    def failing(pres, witness, negative=False):
        if witness.hl == 4:
            raise nogaps.ReductionError("no surgery at length 4")
        return real(pres, witness, negative)

    monkeypatch.setattr(nogaps, "reduce_witness", failing)
    code, out = run(["spectrum", A0_FILE, "--max-arrows", "10", "--reduce-check"])
    payload = json.loads(out)
    assert code == 3
    assert payload["reduction_failures"] == ["no surgery at length 4"]
    assert sorted(t["input"]["cohomology"]["hl"] for t in payload["reductions"]) == [2, 3, 5, 6]


def test_a_reduction_no_surgery_lands_fails_the_spectrum(tmp_path, capsys):
    algebra = tmp_path / "cyc2x2.alg"
    algebra.write_text(TWO_RELATION_CYCLES)
    failure = "no verified surgery on x2 , ~x3 reached length 2"
    code, out = run(["spectrum", str(algebra), "--max-arrows", "2", "--reduce-check"])
    assert code == 3
    assert json.loads(out)["reduction_failures"] == [failure]
    code, out = run(["reduce", str(algebra), "--walk", "x2 , ~x3"])
    assert (code, out) == (1, "")
    assert json.loads(capsys.readouterr().err) == {"error": failure}


def test_spectrum_golden_byte_exact():
    code, out = run(["spectrum", A0_FILE, "--max-arrows", "6", "--reduce-check"])
    assert code == 0
    assert out == (GOLDEN / "a0_spectrum_reduce_check.json").read_text()


def test_incomplete_spectrum_scan_exits_zero():
    # below the top of a bounded scan a gap is a length the scan did not
    # reach, not a counterexample: exit 2 needs a complete scan
    for path in (A0_FILE, KR_FILE):
        payload = run_json(["spectrum", path, "--max-arrows", "0"])
        assert payload["complete"] is False and payload["gaps"], path


def test_no_bands_drops_the_band_witnesses():
    both = run_json(["spectrum", KR_FILE, "--max-arrows", "4"])
    strings = run_json(["spectrum", KR_FILE, "--max-arrows", "4", "--no-bands"])
    assert (both["witnesses"], both["achieved"]["2"]["kind"]) == (11, "band")
    assert (strings["witnesses"], strings["achieved"]["2"]["kind"]) == (10, "string")


def test_reduce_verb():
    payload = run_json(["reduce", A0_FILE, "--walk", "a1"])
    assert payload["input"]["cohomology"]["hl"] == 4
    assert payload["output"]["cohomology"]["hl"] == 3
    negative = run_json(["reduce", A0_FILE, "--walk", "a1", "--negative"])
    assert negative["direction"] == "negative"
    assert negative["output"]["cohomology"]["hl"] == 3
    band = run_json(["reduce", KR_FILE, "--walk", "a , ~b", "--band", "--mult", "2"])
    assert band["case"] == "BAND_UNWIND"
    assert band["output"]["cohomology"]["hl"] == 3


def test_reduce_golden_byte_exact():
    # both directions glue the chain of the other maximal path a2; the beta
    # reduces its underlying string, the band lands on its unwound beta
    cases = [([A0_FILE, "--walk", "a3.a4.a5.a6"], "a0_reduce_a3_a4_a5_a6"),
             ([A0_FILE, "--walk", "a3.a4.a5.a6", "--negative"],
              "a0_reduce_a3_a4_a5_a6_negative"),
             ([A0_FILE, "--walk", "~a2 , a3.a4.a5.a6", "--beta"], "a0_reduce_beta"),
             ([KR_FILE, "--walk", "a , ~b", "--band", "--lambda", "1/2", "--mult", "2"],
              "kronecker_reduce_band")]
    for args, name in cases:
        code, out = run(["reduce", *args])
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()


def test_demo_a0_golden_and_exit_code():
    code, out = run(["demo-a0"])
    # one expectation of the bundled scan does not hold for the computed
    # invariants (global width), so the verb signals assertion failure
    assert code == 3
    assert out == (GOLDEN / "demo_a0.json").read_text()
    payload = json.loads(out)
    assert payload["checks"]["hr_8_achieved"] and payload["checks"]["hr_7_absent"]


def test_complex_verb_goldens():
    for name, argv in (("a0_complex_a1_a3", [A0_FILE, "--walk", "a1 , a3"]),
                       ("kronecker_complex_band", [KR_FILE, "--walk", "a , ~b", "--band",
                                                   "--lambda", "1/2", "--mult", "2"])):
        code, out = run(["complex", *argv])
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()


def test_walk_literals_round_trip_through_the_cli():
    payload = run_json(["enumerate", A0_FILE, "--max-arrows", "6"])
    for literal in payload["strings"]:
        vec = run_json(["cohomology", A0_FILE, "--walk", literal])
        assert vec["hl"] >= 1


def test_byte_identical_reruns():
    for argv in (["demo-a0"], ["spectrum", A0_FILE, "--max-arrows", "8"],
                 ["basis", A0_FILE]):
        _, first = run(argv)
        _, second = run(argv)
        assert first == second


def test_input_errors_exit_one(tmp_path, capsys):
    code, _ = run(["cohomology", A0_FILE, "--walk", "a1 , a2"])
    assert code == 1
    code, _ = run(["validate", str(ROOT / "no_such_file.alg")])
    assert code == 1
    empty = tmp_path / "empty.alg"
    empty.write_text("# declares nothing\n")
    not_utf8 = tmp_path / "not_utf8.alg"
    not_utf8.write_bytes(b"\xff\xfealgebra t\nvertices 1\n")
    dotted = tmp_path / "dotted.alg"
    dotted.write_text("vertices 1 2 3\narrow a.b : 1 -> 2\narrow ~c : 2 -> 3\nrel a.b ~c\n")
    power = ["--walk", "a , ~b , a , ~b", "--band"]
    crowded = tmp_path / "crowded.alg"
    crowded.write_text("algebra t\nvertices 1 2\n"
                       "arrow a : 1 -> 2\narrow b : 1 -> 2\narrow c : 1 -> 2\n")
    string_as_band = ["cohomology", A0_FILE, "--walk", "a1", "--band"]
    not_gentle = ["basis", str(crowded)]
    over_budget = [[verb, KR_FILE, "--walk", "a , ~b", "--band", "--mult", str(cli._MAX_MULT + 1)]
                   for verb in ("complex", "cohomology", "reduce")]
    for argv in (["validate", str(empty)],
                 ["validate", str(not_utf8)],
                 ["validate", str(dotted)],
                 # empty arrow names in a walk literal
                 ["cohomology", A0_FILE, "--walk", "a1."],
                 ["cohomology", A0_FILE, "--walk", "a3..a4"],
                 ["spectrum", A0_FILE, "--max-arrows", "-1"],
                 ["enumerate", A0_FILE, "--max-arrows", "-1"],
                 ["complex", KR_FILE] + power,
                 ["cohomology", KR_FILE] + power,
                 ["reduce", KR_FILE] + power,
                 ["reduce", A0_FILE, "--walk", "a1 , a2"],
                 string_as_band,
                 not_gentle,
                 ["cohomology", A0_FILE, "--walk", "a1 , a2"],
                 # band parameters without --band
                 ["complex", A0_FILE, "--walk", "a1", "--mult", "2"],
                 ["cohomology", A0_FILE, "--walk", "a1", "--lambda", "0"],
                 ["reduce", A0_FILE, "--walk", "a1", "--mult", "0"],
                 # usage errors: exit 2 would read as a spectrum gap
                 ["spectrum", A0_FILE, "--max-arrows", "abc"],
                 ["cohomology", A0_FILE],
                 [],
                 # --band and --beta exclude each other
                 ["cohomology", KR_FILE, "--walk", "a , ~b", "--band", "--beta"],
                 ["reduce", KR_FILE, "--walk", "a , ~b", "--band", "--beta"],
                 *over_budget):
        capsys.readouterr()
        code, out = run(argv)
        assert (code, out) == (1, ""), argv
        error = json.loads(capsys.readouterr().err)["error"]
        if "a1 , a2" in argv:
            assert "walk 'a1 , a2'" in error and "junction 0" in error, argv
        if "a1." in argv or "a3..a4" in argv:
            assert "empty arrow name" in error, argv
        if argv == string_as_band:
            assert "is not a band" in error, error
        if argv == not_gentle:
            assert "is not gentle" in error, error
        if argv in over_budget:
            assert f"over the limit of {cli._MAX_MULT}" in error, error
    with pytest.raises(SystemExit) as help_exit:
        run(["--help"])
    assert help_exit.value.code == 0


def run_all(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_carries_nothing_between_calls(monkeypatch):
    band = ["--walk", "a , ~b", "--band"]
    calls = [["cohomology", KR_FILE] + band + ["--lambda", "1/2", "--mult", "3"],
             ["cohomology", KR_FILE, "--walk", "a"],
             ["reduce", A0_FILE, "--walk", "a1", "--negative"],
             ["reduce", A0_FILE, "--walk", "a1"],
             ["cohomology", A0_FILE, "--walk", "a1", "--beta"],
             ["cohomology", A0_FILE, "--walk", "a1"],
             ["cohomology", KR_FILE] + band + ["--beta"],
             ["cohomology", KR_FILE] + band,
             ["--help"],
             ["--help"]]
    forward = [run_all(argv) for argv in calls]
    backward = [run_all(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
    assert json.loads(forward[3][1])["direction"] != json.loads(forward[2][1])["direction"]
    assert "usage: gentle" in forward[-1][1]

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    run_all(["discrete", KR_FILE])
    built.clear()
    for _ in range(10):
        assert run_all(["discrete", KR_FILE])[0] == 0
    assert built == []


def src_env():
    """The environment of a fresh interpreter that imports gentle from src."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_python_m_gentle_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "gentle", "validate", "algebras/a0.alg"],
                          cwd=ROOT, env=src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(["validate", A0_FILE])[1]


def test_closed_pipe_exits_without_traceback(tmp_path):
    pres = random_gentle(5)
    source = tmp_path / "rnd5.alg"
    source.write_text("\n".join(
        [f"algebra {pres.name}", "vertices " + " ".join(pres.vertices)]
        + [f"arrow {a.name} : {a.source} -> {a.target}" for a in pres.arrows]
        + [f"rel {a} {b}" for a, b in sorted(pres.relations)]) + "\n")
    # about 300 kB of output: far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "gentle.cli", "enumerate", str(source), "--max-arrows", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
