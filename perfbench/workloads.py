"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (timed as
set-up), runs one pass over them in `run_pass` (timed), and checks every
recorded output in `check` (not timed).  Functions of the program are
looked up on their modules at call time, so a traced run sees every call.

`PASS_SECONDS` is the nominal time of one pass on a shared 2-core VM
(Python 3.11); a run of --seconds makes that many whole passes.

`run_pass` appends one latency in seconds per operation to `latencies` and
returns (operations attempted, outputs).  `check` returns (failed
operations, problems); a problem is an output that is wrong, which makes
the run incorrect, while a failed operation is one that did not complete
under its contract.
"""
import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from gentle import cli, cohomology, complexes, nogaps, walks
from gentle.nogaps import ReductionError

import corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _presentations(seed, tiny):
    sources = list(corpus.HAND_SOURCES.values()) if tiny else corpus.corpus_sources(seed)
    return [(source, corpus.load(source)) for source in sources]


class SpectrumCorpus:
    """hl_spectrum with bands and the reduce check, at the bound rule of
    acceptance criterion 3, over every corpus algebra.  One operation is a
    witness built (by the family or by the reduce check); its latency is
    the witness constructor's, which includes its rank computation."""

    name = "spectrum-corpus"
    PASS_SECONDS = 17
    CONSTRUCTORS = ("string_witness", "beta_witness", "band_witness", "stalk_witness")
    # sha256 of the accepted spectra of the acceptance corpus (seed 0)
    SEED0_DIGEST = "a47a3f31792e1f566719c7452c77bb8a5eef7879eafbbcb74829aa6bb9f7ec0b"

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.tiny = tiny
        self.algebras = [pres for _, pres in _presentations(seed, tiny)]

    @staticmethod
    def bounds(pres):
        longest = walks.longest_walk_arrows(pres)
        if longest is not None and longest <= 12:
            return [longest]
        return [7, 8, 9, 10, 11]

    def run_pass(self, latencies):
        originals = {name: getattr(nogaps, name) for name in self.CONSTRUCTORS}

        def timed(fn):
            def constructor(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latencies.append(perf_counter() - start)
            return constructor

        before = len(latencies)
        for name, fn in originals.items():
            setattr(nogaps, name, timed(fn))
        try:
            outputs = []
            for pres in self.algebras:
                for bound in self.bounds(pres):
                    report = nogaps.hl_spectrum(pres, bound, include_bands=True,
                                                reduce_check=True)
                    if not report.gaps and not report.failures:
                        break
                outputs.append((pres.name, bound, report))
        finally:
            for name, fn in originals.items():
                setattr(nogaps, name, fn)
        return len(latencies) - before, outputs

    @staticmethod
    def digest(outputs):
        spectra = [[name, bound, sorted(report.achieved), report.witnesses]
                   for name, bound, report in outputs]
        return hashlib.sha256(json.dumps(spectra).encode()).hexdigest()

    def check(self, passes):
        failed, problems = 0, []
        for outputs in passes:
            for name, bound, report in outputs:
                failed += len(report.gaps) + len(report.failures)
                for trace in report.reductions:
                    if trace.output.hl != trace.input.hl - 1:
                        problems.append(f"{name}: {trace.input.literal()} reduced to "
                                        f"hl {trace.output.hl}, not {trace.input.hl - 1}")
        digests = {self.digest(outputs) for outputs in passes}
        if len(digests) != 1:
            problems.append("spectra differ between passes")
        self.spectra_digest = digests.pop()
        if self.seed == 0 and not self.tiny and self.spectra_digest != self.SEED0_DIGEST:
            problems.append(f"corpus spectra digest {self.spectra_digest} "
                            f"!= recorded {self.SEED0_DIGEST}")
        return failed, problems

    def provenance(self):
        return {"spectra_digest": self.spectra_digest}


class WalksGrowth:
    """The corpus algebra with the most strings at bound 6 (rnd5 at every
    seed, see corpus.py) swept over bounds 6-10: enumerate_gst,
    enumerate_gba and the closed form node_sums on every string.  Never
    ranks.  One operation is an enumerated walk; the latency is that of
    node_sums on one string."""

    name = "walks-growth"
    PASS_SECONDS = 9
    BOUNDS = (6, 7, 8, 9, 10)
    WALK_BUDGET = 50_000
    # (strings, bands) of rnd5 per bound
    EXPECTED = {6: (642, 5), 7: (1519, 12), 8: (3596, 18), 9: (8493, 35), 10: (20074, 72)}
    SAMPLE = 40

    def __init__(self, seed, tiny=False):
        self.seed = seed
        algebras = [pres for _, pres in _presentations(seed, tiny)]
        self.pres = max(algebras, key=lambda p: len(walks.enumerate_gst(p, 6).walks))
        self.bounds = (2, 3) if tiny else self.BOUNDS

    def run_pass(self, latencies):
        outputs = []
        walked = 0
        for bound in self.bounds:
            strings = walks.enumerate_gst(self.pres, bound).walks
            bands = walks.enumerate_gba(self.pres, bound).walks
            vectors = []
            for walk in strings:
                start = perf_counter()
                vectors.append(cohomology.node_sums(self.pres, walk))
                latencies.append(perf_counter() - start)
            outputs.append((bound, strings, len(bands), vectors))
            walked += len(strings) + len(bands)
            if walked >= self.WALK_BUDGET:
                break
        return walked, outputs

    def check(self, passes):
        problems = []
        counts = [[(b, len(s), nb) for b, s, nb, _ in outputs] for outputs in passes]
        if any(c != counts[0] for c in counts):
            problems.append("walk counts differ between passes")
        self.counts = {b: [ns, nb] for b, ns, nb in counts[0]}
        if self.pres.name == "rnd5":
            for bound, (ns, nb) in self.counts.items():
                if (ns, nb) != self.EXPECTED[bound]:
                    problems.append(f"rnd5 bound {bound}: {ns} strings, {nb} bands, "
                                    f"expected {self.EXPECTED[bound]}")
        rng = random.Random(self.seed)
        for bound, strings, _, vectors in passes[0]:
            for i in rng.sample(range(len(strings)), min(self.SAMPLE, len(strings))):
                cx = complexes.string_complex(self.pres, strings[i])
                if vectors[i] != cohomology.cohomology_dims(self.pres, cx):
                    problems.append(f"node_sums != cohomology_dims on {strings[i].literal()}")
        return 0, problems

    def provenance(self):
        return {"algebra": self.pres.name, "counts": self.counts}


class ReduceAll:
    """reduce_witness on every witness with hl > 1 at bound 6 across the
    corpus; band witnesses at d = 1..4 and lambda in {1, -2, 1/3}.  One
    operation is one reduction; building the job list is set-up."""

    name = "reduce-all"
    PASS_SECONDS = 10
    BOUND = 6
    LAMBDAS = (Fraction(1), Fraction(-2), Fraction(1, 3))
    MULTS = (1, 2, 3, 4)

    def __init__(self, seed, tiny=False):
        bound = 4 if tiny else self.BOUND
        self.jobs = []
        for _, pres in _presentations(seed, tiny):
            witnesses, _ = nogaps.witness_family(pres, bound)
            for w in witnesses:
                if w.kind != "band":
                    if w.hl > 1:
                        self.jobs.append((pres, w))
                    continue
                for d in self.MULTS:
                    for lam in self.LAMBDAS:
                        band = nogaps.band_witness(pres, w.walk, lam, d)
                        if band.hl > 1:
                            self.jobs.append((pres, band))

    def run_pass(self, latencies):
        outputs = []
        for pres, witness in self.jobs:
            start = perf_counter()
            try:
                hl = nogaps.reduce_witness(pres, witness).output.hl
            except ReductionError as exc:
                hl = exc
            latencies.append(perf_counter() - start)
            outputs.append(hl)
        return len(self.jobs), outputs

    def check(self, passes):
        failed, problems, failures = 0, [], set()
        for outputs in passes:
            for (pres, witness), hl in zip(self.jobs, outputs):
                if isinstance(hl, ReductionError):
                    failed += 1
                    failures.add(f"{pres.name}: {witness.literal()}")
                elif hl != witness.hl - 1:
                    problems.append(f"{pres.name}: {witness.literal()} reduced to hl {hl}, "
                                    f"not {witness.hl - 1}")
        self.failures = sorted(failures)
        return failed, problems

    def provenance(self):
        return {"jobs": dict(Counter(w.kind for _, w in self.jobs)),
                "reduction_failures": self.failures}


class CliMix:
    """One-shot in-process `gentle.cli.main` calls on `.alg` files written
    at set-up from the corpus, so each call parses and validates a fresh
    presentation.  One operation is one CLI call."""

    name = "cli-mix"
    PASS_SECONDS = 1
    PICKS = 3  # seeded walks per algebra and verb

    def __init__(self, seed, tiny=False, *, workdir):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.calls = []  # (argv, expected exit code, output check)
        files = []
        for i, (source, pres) in enumerate(_presentations(seed, tiny)):
            path = self._write(f"{i:02d}-{pres.name}.alg", source)
            files.append(path)
            self._algebra_calls(rng, pres, path)
        a0, kronecker = files[0], files[1]
        self._fixed_calls(a0, kronecker)

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _add(self, argv, code=0, check=None):
        self.calls.append((argv, code, check))

    def _algebra_calls(self, rng, pres, path):
        strings = walks.enumerate_gst(pres, 4).walks
        self._add(["validate", path], check=lambda out: json.loads(out)["pass"] is True)
        self._add(["basis", path], check=lambda out: _basis_ok(json.loads(out)))
        self._add(["discrete", path],
                  check=lambda out: isinstance(json.loads(out)["derived_discrete"], bool))
        literals = [w.literal() for w in strings]
        self._add(["enumerate", path, "--max-arrows", "4"],
                  check=lambda out: json.loads(out)["strings"] == literals)
        for walk in rng.sample(strings, min(self.PICKS, len(strings))):
            self._walk_calls(pres, path, walk)
        tall = [w for w in strings if cohomology.node_sums(pres, w).hl > 1]
        for walk in rng.sample(tall, min(self.PICKS, len(tall))):
            self._add(["reduce", path, "--walk", walk.literal()], check=_reduced_one_lower)
        bands = walks.enumerate_gba(pres, 6).walks
        for band in rng.sample(bands, min(self.PICKS, len(bands))):
            self._band_call(pres, path, band, rng.choice(["1/2", "-2"]), rng.randint(1, 4))

    def _band_call(self, pres, path, band, lam, mult):
        self._add(["cohomology", path, "--walk", band.literal(), "--band",
                   "--lambda", lam, "--mult", str(mult)],
                  check=lambda out: json.loads(out) == _band_expected(pres, band, mult))

    def _walk_calls(self, pres, path, walk):
        expected = cohomology.node_sums(pres, walk)
        beta = expected.drop_degree(min(walk.mu))
        self._add(["complex", path, "--walk", walk.literal()],
                  check=lambda out: bool(json.loads(out)["degrees"]))
        self._add(["cohomology", path, "--walk", walk.literal()],
                  check=lambda out: json.loads(out) == expected.to_json())
        self._add(["cohomology", path, "--walk", walk.literal(), "--beta"],
                  check=lambda out: json.loads(out) == beta.to_json())

    def _fixed_calls(self, a0, kronecker):
        golden = lambda name: lambda out: out == (GOLDEN / name).read_text(encoding="utf-8")
        self._add(["cohomology", a0, "--walk", "a1"], check=golden("a0_cohomology_a1.json"))
        self._add(["cohomology", kronecker, "--walk", "a , ~b", "--band", "--lambda", "1/2",
                   "--mult", "2"], check=golden("kronecker_band_cohomology.json"))
        # red by design: the scan's stated global width does not hold
        self._add(["demo-a0"], 3, check=golden("demo_a0.json"))
        not_gentle = self._write("bad-not-gentle.alg", "algebra t\nvertices 1 2\narrow a : 1 -> 2\n"
                                 "arrow b : 1 -> 2\narrow c : 1 -> 2\n")
        self._add(["validate", not_gentle], 1,
                  check=lambda out: json.loads(out)["pass"] is False)
        syntax = self._write("bad-syntax.alg", "algebra t\nvertices 1 2\narrow a : 1 ->\n")
        self._add(["validate", syntax], 1)
        self._add(["validate", str(self.workdir / "missing.alg")], 1)
        self._add(["cohomology", a0, "--walk", "a1 , a2"], 1)
        self._add(["cohomology", kronecker, "--walk", "a , ~b", "--band", "--lambda", "0.5"], 1)
        # input faults the contract gives exit 1; they fail at the parent commit
        self._add(["validate", self._write("bad-empty.alg", "")], 1)
        self._add(["spectrum", a0, "--max-arrows", "-1"], 1)

    def run_pass(self, latencies):
        outputs = []
        for argv, _, _ in self.calls:
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            latencies.append(perf_counter() - start)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return len(self.calls), outputs

    def check(self, passes):
        failed, problems = 0, []
        faults = set()
        for outputs in passes:
            for (argv, want, check), (code, out, err) in zip(self.calls, outputs):
                if code != want or (want == 1 and check is None and not _json_error(err)):
                    failed += 1
                    faults.add(f"{' '.join(argv[:1] + argv[2:])}: exit {code}, contract {want}")
                elif check is not None and not check(out):
                    problems.append(f"{' '.join(argv)}: wrong output")
        self.faults = sorted(faults)
        return failed, problems

    def provenance(self):
        return {"calls": len(self.calls), "contract_faults": self.faults}


def _basis_ok(payload):
    return payload["size"] == len(payload["paths"])


def _reduced_one_lower(out):
    payload = json.loads(out)
    return payload["output"]["cohomology"]["hl"] == payload["input"]["cohomology"]["hl"] - 1


def _band_expected(pres, band, mult):
    """d-linearity and lambda-independence: d times the lambda = 1, d = 1 vector."""
    base = cohomology.cohomology_dims(pres, complexes.band_complex(pres, band, Fraction(1), 1))
    return cohomology.CohVector.from_dict(
        {deg: mult * v for deg, v in base.as_dict().items()}).to_json()


def _json_error(err):
    try:
        return "error" in json.loads(err)
    except ValueError:
        return False


WORKLOADS = {w.name: w for w in (SpectrumCorpus, WalksGrowth, ReduceAll, CliMix)}
