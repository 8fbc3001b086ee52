"""Command line front end: every operation with JSON output on stdout.

Exit codes: 0 all checks pass, 1 input error (a usage error included:
an unknown or missing argument, ``--band`` together with ``--beta``,
which exclude each other, or ``--lambda`` or ``--mult`` without
``--band``) or a ``reduce`` on which no surgery lands, 2 a complete
spectrum scan found a gap, 3 an assertion of the built-in counterexample
scan failed, or a reduction failed in ``spectrum --reduce-check``.  On an
incomplete scan ``gaps`` lists the lengths below the top that the bounded
scan did not reach, and the exit is 0.  Every error is a JSON object on
stderr.

The argument parser is built once per process, on first use
(``build_parser`` is cached), so repeated in-process ``main`` calls pay
only for their verb.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .core import PresentationError, NotComposable, parse_presentation, validate_gentle, path_basis, dim_projective
from .walks import GBA, enumerate_gba, enumerate_gst, is_derived_discrete, parse_walk
from .complexes import band_complex, complex_to_json, string_complex
from .cohomology import beta_cohomology, cohomology_dims
from .nogaps import (ReductionError, band_witness, beta_witness, hl_spectrum,
                     reduce_witness, string_witness)
from .demo import verify_counterexample_a0

_FRACTION = re.compile(r"^-?\d+(/[1-9]\d*)?$")
# d = 10,000 takes each band verb about 1 s and 35 MB; an unbounded d grows until killed
_MAX_MULT = 10_000


class UsageError(ValueError):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting 2, the code of a spectrum gap;
    its subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def _read(path):
    """The presentation in ``path`` and its validation report."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PresentationError(f"cannot read {path}: {exc}") from exc
    pres = parse_presentation(text)
    return pres, validate_gentle(pres)


def _load(path):
    """The presentation in ``path``, which must be gentle."""
    pres, report = _read(path)
    if not report.ok:
        raise PresentationError(
            f"presentation {pres.name!r} is not gentle: "
            + "; ".join(v.message for v in report.violations))
    return pres


def _walk(pres, args):
    """The ``--walk`` argument: a generalized band under ``--band``, a
    generalized string otherwise."""
    if not args.band and (args.lam is not None or args.mult is not None):
        raise UsageError("--lambda and --mult need --band")
    walk = parse_walk(pres, args.walk)
    if args.band and walk.kind != GBA:
        raise PresentationError(f"walk {args.walk!r} is not a band: {walk.kind}")
    return walk


def _band_parameters(args):
    """(lambda, d) of a ``--band`` call; each is 1 unless given, d <= ``_MAX_MULT``."""
    if args.mult is not None and args.mult > _MAX_MULT:
        raise PresentationError(f"--mult {args.mult} is over the limit of {_MAX_MULT}")
    return (_parse_lambda("1" if args.lam is None else args.lam),
            1 if args.mult is None else args.mult)


def _complex(pres, walk, args):
    """The band complex of a ``--band`` call, the string complex otherwise."""
    if args.band:
        return band_complex(pres, walk, *_band_parameters(args))
    return string_complex(pres, walk)


def _parse_lambda(text):
    if not _FRACTION.match(text):
        raise PresentationError(
            f"lambda must be an exact integer or fraction like 1/2, got {text!r}")
    value = Fraction(text)
    if value == 0:
        raise PresentationError("lambda must be nonzero")
    return value


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


def cmd_validate(args):
    pres, report = _read(args.algebra)
    _emit({"algebra": pres.name, **report.to_json()})
    return 0 if report.ok else 1


def cmd_basis(args):
    pres = _load(args.algebra)
    basis = path_basis(pres)
    _emit({
        "algebra": pres.name,
        "size": len(basis),
        "paths": [p.label() for p in basis],
        "projective_dimensions": {v: dim_projective(pres, v) for v in pres.vertices},
    })
    return 0


def cmd_enumerate(args):
    pres = _load(args.algebra)
    strings = enumerate_gst(pres, args.max_arrows)
    payload = {
        "algebra": pres.name,
        "max_arrows": args.max_arrows,
        "complete": strings.complete,
        "strings": [w.literal() for w in strings.walks],
    }
    if args.bands:
        bands = enumerate_gba(pres, args.max_arrows)
        payload["bands"] = [w.literal() for w in bands.walks]
    _emit(payload)
    return 0


def cmd_complex(args):
    pres = _load(args.algebra)
    walk = _walk(pres, args)
    cx = _complex(pres, walk, args)
    _emit({"algebra": pres.name, "walk": walk.literal(), **complex_to_json(pres, cx)})
    return 0


def cmd_cohomology(args):
    pres = _load(args.algebra)
    walk = _walk(pres, args)
    if args.beta:
        vec = beta_cohomology(pres, walk)
    else:
        vec = cohomology_dims(pres, _complex(pres, walk, args))
    _emit(vec.to_json())
    return 0


def cmd_spectrum(args):
    pres = _load(args.algebra)
    result = hl_spectrum(pres, args.max_arrows, include_bands=not args.no_bands,
                         reduce_check=args.reduce_check)
    _emit({"algebra": pres.name, **result.to_json()})
    if result.failures:
        return 3
    return 2 if result.gaps and result.complete else 0


def cmd_reduce(args):
    pres = _load(args.algebra)
    walk = _walk(pres, args)
    if args.band:
        witness = band_witness(pres, walk, *_band_parameters(args))
    elif args.beta:
        witness = beta_witness(pres, walk)
    else:
        witness = string_witness(pres, walk)
    _emit(reduce_witness(pres, witness, negative=args.negative).to_json())
    return 0


def cmd_discrete(args):
    pres = _load(args.algebra)
    _emit({"algebra": pres.name, **is_derived_discrete(pres).to_json()})
    return 0


def cmd_demo_a0(args):
    report = verify_counterexample_a0()
    _emit(report)
    return 0 if report["pass"] else 3


@functools.cache
def build_parser():
    """The one parser of the process, built on first use.  argparse keeps
    no state between parse_args calls: each call fills a fresh Namespace
    and tracks its own required and mutually exclusive arguments."""
    parser = _Parser(
        prog="gentle",
        description="string and band combinatorics for gentle algebra presentations")
    sub = parser.add_subparsers(dest="verb", required=True)

    def with_algebra(p):
        p.add_argument("algebra", help="presentation file")
        return p

    def with_walk(p, beta=True):
        """The walk arguments of ``complex``, ``cohomology`` and ``reduce``;
        ``complex`` has no ``--beta``."""
        p.add_argument("--walk", required=True, help="walk literal, e.g. 'a1 , ~a2.a3'")
        kind = p.add_mutually_exclusive_group()
        kind.add_argument("--band", action="store_true")
        if beta:
            kind.add_argument("--beta", action="store_true",
                              help="erase the lowest occupied degree")
        p.add_argument("--lambda", dest="lam", help="band parameter (exact fraction)")
        p.add_argument("--mult", type=int, help="band multiplicity d")
        return p

    with_algebra(sub.add_parser("validate", help="check the gentleness axioms")) \
        .set_defaults(func=cmd_validate)
    with_algebra(sub.add_parser("basis", help="path basis and projective dimensions")) \
        .set_defaults(func=cmd_basis)

    p = with_algebra(sub.add_parser("enumerate", help="generalized strings up to a bound"))
    p.add_argument("--max-arrows", type=int, required=True)
    p.add_argument("--bands", action="store_true", help="also list generalized bands")
    p.set_defaults(func=cmd_enumerate)

    with_walk(with_algebra(sub.add_parser("complex", help="projective complex of a walk")),
              beta=False).set_defaults(func=cmd_complex)
    with_walk(with_algebra(sub.add_parser("cohomology", help="cohomology dimension vector"))) \
        .set_defaults(func=cmd_cohomology)

    p = with_algebra(sub.add_parser("spectrum", help="achieved cohomological lengths"))
    p.add_argument("--max-arrows", type=int, required=True)
    p.add_argument("--no-bands", action="store_true")
    p.add_argument("--reduce-check", action="store_true",
                   help="verify a length l-1 witness for every achieved l > 1")
    p.set_defaults(func=cmd_spectrum)

    p = with_walk(with_algebra(sub.add_parser("reduce",
                                              help="construct a witness one length lower")))
    p.add_argument("--negative", action="store_true", help="prefer the mirrored construction")
    p.set_defaults(func=cmd_reduce)

    with_algebra(sub.add_parser("discrete", help="decide derived discreteness")) \
        .set_defaults(func=cmd_discrete)

    sub.add_parser("demo-a0", help="run the built-in counterexample scan") \
        .set_defaults(func=cmd_demo_a0)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except (UsageError, PresentationError, NotComposable, ReductionError) as exc:
        json.dump({"error": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except BrokenPipeError:
        # The reader closed the pipe; send what is still buffered to devnull
        # so the interpreter's final flush of stdout cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
