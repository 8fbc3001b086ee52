"""The reduction sweep: every witness with hl > 1 of random_gentle(0..299).

Each algebra is scanned at bound min(6, longest walk), bands at d = 1, and
every witness with hl > 1 is reduced positive first, then negative.  One
line per reduction, in seed, family and direction order: the trace's JSON,
or the ReductionError text.  The script exits 1 unless the line count, the
error count and the sha256 of the lines (each ended by a newline) equal the
recorded ones, so any change to a reduction trace shows here.

Run from the repository root:

    PYTHONPATH=src python tests/sweep.py

It is not a test module, so pytest does not collect it.
"""
import hashlib
import json
import sys

from corpus import random_gentle
from gentle import ReductionError, longest_walk_arrows, reduce_witness, witness_family

SEEDS = range(300)
LINES = 103_080
ERRORS = 240
DIGEST = "a5040550e657d6d77229cb1b71da61f55e412f76e9bb364e59b3d14bf90d927f"


def sweep_lines():
    for seed in SEEDS:
        pres = random_gentle(seed)
        longest = longest_walk_arrows(pres)
        bound = 6 if longest is None else min(6, longest)
        witnesses, _ = witness_family(pres, bound)
        for w in witnesses:
            if w.hl <= 1:
                continue
            for negative in (False, True):
                try:
                    yield json.dumps(reduce_witness(pres, w, negative=negative).to_json())
                except ReductionError as exc:
                    yield str(exc)


def main():
    digest = hashlib.sha256()
    lines = errors = 0
    for line in sweep_lines():
        digest.update(line.encode() + b"\n")
        lines += 1
        errors += not line.startswith("{")
    got = (lines, errors, digest.hexdigest())
    print(f"{lines} lines, {errors} errors, sha256 {got[2]}")
    if got != (LINES, ERRORS, DIGEST):
        print(f"expected {LINES} lines, {ERRORS} errors, sha256 {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
