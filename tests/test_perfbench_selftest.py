"""The benchmark's self-test, run as part of the test suite.

perfbench/ wraps public functions of the program by name, so renaming one
must fail here.  Every check of perfbench/selftest.py runs in a subprocess
with its failures recorded instead of exiting on the first one.

Two cli-mix checks still pin the two input faults the CLI used to get
wrong (an empty presentation file and a negative --max-arrows bound): the
self-test expects exactly 2 failed calls per tiny pass, and 3 after it
breaks one more.  Both faults now exit 1 with a JSON error, so those two
checks fail; every other check must pass.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STALE = ["cli-mix fails exactly the two known faults",
         "cli-mix counts a wrong exit code as failed"]

DRIVER = """
import json, shutil, sys
sys.path.insert(0, "perfbench")
import selftest
failures = []
selftest.expect = lambda ok, what: ok or failures.append(what)
try:
    selftest.check_corpus()
    selftest.check_gates()
    selftest.check_metrics()
    selftest.check_refuses_without_source()
finally:
    shutil.rmtree(selftest.ROOT / ".bench_work", ignore_errors=True)
print(json.dumps(failures))
"""


def test_perfbench_selftest():
    proc = subprocess.run([sys.executable, "-c", DRIVER], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == STALE
