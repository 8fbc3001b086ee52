"""Benchmark of the gentle-derived library: one workload per run.

    python3 perfbench/run.py --workload spectrum-corpus --seed 0 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src in this
process: one process, no threads, and GENTLE_THREADS removed from the
environment so the spectrum thread pool never starts.  Set-up is done
several times and timed; then as many whole passes over the workload as
fit in --seconds at its nominal pass time.  Every output is checked.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics (layers.py) for --trace 1.  The line before it is the provenance.
See README.md for the workloads and metrics.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3

END_TO_END = (
    ("wall_s", "s"), ("cpu_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def make(workload_cls, seed, tiny, workdir):
    if workload_cls.name == "cli-mix":
        return workload_cls(seed, tiny, workdir=workdir)
    return workload_cls(seed, tiny)


def run_passes(workload, seconds, latencies, walls, cpus, outputs, tracer=None):
    """As many whole passes as fit in `seconds` at the workload's nominal pass
    time, at least one.  The count does not depend on measured times, so a
    slow first pass does not shorten the run."""
    for _ in range(max(1, int(seconds // workload.PASS_SECONDS))):
        wall0, cpu0 = perf_counter(), process_time()
        ops, out = workload.run_pass(latencies)
        walls.append(perf_counter() - wall0)
        cpus.append(process_time() - cpu0)
        outputs.append(out)
        if tracer is not None:
            tracer.end_pass()
        yield ops


def measure(workload_name, seed, seconds, trace, tiny=False, threads_env=None):
    """Set up, run and check one workload; returns (result, provenance)."""
    wall0 = perf_counter()
    import gentle  # noqa: F401  (import time is part of set-up)
    import_s = perf_counter() - wall0
    from workloads import WORKLOADS
    workload_cls = WORKLOADS[workload_name]
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        setups = []
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            start = perf_counter()
            workload = make(workload_cls, seed, tiny, workdir)
            setups.append(perf_counter() - start)
        latencies, walls, cpus, outputs = [], [], [], []
        if trace:
            from layers import Tracer, metric_specs
            untraced = []
            attempted = sum(run_passes(workload, seconds / 2, [], untraced, [], outputs))
            tracer = Tracer()
            tracer.install()
            try:
                attempted += sum(run_passes(workload, seconds / 2, latencies, walls, cpus,
                                            outputs, tracer))
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(len(walls), statistics.median(walls),
                                     statistics.median(untraced))
            units = {name: unit for name, unit, _ in metric_specs()}
        else:
            attempted = sum(run_passes(workload, seconds, latencies, walls, cpus, outputs))
            deciles = statistics.quantiles(latencies, n=10)
            metrics = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "ops_per_s": attempted / sum(walls),
                "op_p50_ms": statistics.median(latencies) * 1000,
                "op_p90_ms": deciles[8] * 1000,
                "setup_s": import_s + statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        failed, problems = workload.check(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    provenance = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(), "commit": git_commit(),
        "gentle_threads_env": threads_env, "passes": len(walls),
        "problems": problems[:20], **workload.provenance(),
    }
    return result, provenance


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["spectrum-corpus", "walks-growth", "reduce-all", "cli-mix"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "gentle" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'gentle'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("GENTLE_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result, provenance = measure(args.workload, args.seed, args.seconds, args.trace,
                                 threads_env=threads_env)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
