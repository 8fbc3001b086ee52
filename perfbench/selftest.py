"""Self-test of the benchmark at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
untraced and traced runs of every workload; that each workload's gate
rejects a wrong output; that seed 0 is the acceptance corpus; and that the
benchmark refuses to run without the program's source.  Exits 1 on the
first failure.
"""
import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(ok, what):
    if not ok:
        print(f"selftest FAIL: {what}")
        sys.exit(1)
    print(f"selftest ok: {what}")


def metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_metrics():
    end_to_end, per_layer, names = metric_names()
    expect(sorted(names) == sorted(WORKLOADS), "BENCHMARK.json lists the four workloads")
    for name in names:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result, _ = run.measure(name, 0, 0.2, trace, tiny=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted and result["correct"] and result["attempted"] >= 1,
                   f"{name} --trace {trace} emits every metric and passes its gate")


def tiny(name, workdir=ROOT / ".bench_work" / "selftest"):
    cls = WORKLOADS[name]
    return cls(0, True, workdir=workdir) if name == "cli-mix" else cls(0, True)


def check_gates():
    w = tiny("reduce-all")
    _, outputs = w.run_pass([])
    i = next(k for k, hl in enumerate(outputs) if isinstance(hl, int))
    outputs[i] = w.jobs[i][1].hl  # lands on l instead of l - 1
    expect(w.check([outputs])[1], "reduce-all gate rejects a reduction landing on l")

    w = tiny("spectrum-corpus")
    _, outputs = w.run_pass([])
    name, bound, report = next(o for o in outputs if o[2].reductions)
    bad = dataclasses.replace(report.reductions[0], output=report.reductions[0].input)
    outputs[0] = (name, bound, dataclasses.replace(report, reductions=(bad,)))
    expect(w.check([outputs])[1], "spectrum-corpus gate rejects a trace off l - 1")

    w = tiny("walks-growth")
    w.SAMPLE = 10 ** 6  # check every string
    _, outputs = w.run_pass([])
    bound, strings, bands, vectors = outputs[0]
    vectors[0] = vectors[0].shifted(1)
    expect(w.check([outputs])[1], "walks-growth gate rejects a wrong node_sums vector")

    w = tiny("cli-mix")
    try:
        _, outputs = w.run_pass([])
        expect(w.check([outputs]) == (2, []), "cli-mix fails exactly the two known faults")
        k = next(k for k, (argv, _, _) in enumerate(w.calls) if argv[0] == "cohomology")
        code, out, err = outputs[k]
        outputs[k] = (code, out.replace('"hl": ', '"hl": 1'), err)
        expect(w.check([outputs])[1], "cli-mix gate rejects a wrong cohomology output")
        outputs[0] = (1, "", "")
        expect(w.check([outputs])[0] == 3, "cli-mix counts a wrong exit code as failed")
    finally:
        shutil.rmtree(w.workdir, ignore_errors=True)


def check_corpus():
    from gentle import enumerate_gst
    spec = importlib.util.spec_from_file_location("tests_corpus", ROOT / "tests" / "corpus.py")
    tests_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests_corpus)
    ours = [corpus.load(s) for s in corpus.corpus_sources(0)]
    expect(ours == tests_corpus.full_corpus(), "seed 0 is tests/corpus.full_corpus()")
    tail = [p for p in ours[len(corpus.HAND_SOURCES):]
            if p.name not in {f"rnd{k}" for k in corpus.ANCHORS}]
    sizes = sorted((len(enumerate_gst(p, 6).walks) for p in tail), reverse=True)
    expect(tuple(sizes) == corpus.TAIL_PROFILE, "TAIL_PROFILE is the seed 0 tail")


def check_refuses_without_source():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-mix",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           "a directory with only the benchmark exits non-zero without a result")


if __name__ == "__main__":
    check_corpus()
    check_gates()
    check_metrics()
    check_refuses_without_source()
    shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    print("selftest passed")
