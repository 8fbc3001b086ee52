"""The built-in seven-vertex algebra A0 and the scan behind ``demo-a0``."""
from __future__ import annotations

from .core import PresentationError, parse_presentation, validate_gentle
from .walks import Letter, classify_walk, is_derived_discrete, longest_walk_arrows
from .nogaps import string_witness, witness_family


A0_SOURCE = """\
# seven vertices, one length-two relation
algebra a0
vertices 1 2 3 4 5 6 7
arrow a1 : 1 -> 2
arrow a2 : 2 -> 3
arrow a3 : 2 -> 4
arrow a4 : 4 -> 5
arrow a5 : 5 -> 6
arrow a6 : 6 -> 7
rel a1 a3
"""


def load_builtin(source):
    pres = parse_presentation(source)
    report = validate_gentle(pres)
    if not report.ok:
        raise PresentationError("built-in presentation failed validation")
    return pres


def verify_counterexample_a0():
    """Exhaustive scan of A0: length range 8 is achieved, 7 is not.

    Returns the full report including every check outcome; the stated
    expectation of global width 3 is recorded next to the computed value,
    which is 2 (no walk of this algebra carries cohomology in three
    consecutive degrees; 3 is the maximal width of the complexes).
    """
    pres = load_builtin(A0_SOURCE)
    discrete = is_derived_discrete(pres)
    bound = longest_walk_arrows(pres)
    witnesses, complete = witness_family(pres, bound, include_bands=True)
    hr_values = {}
    hl_max = 0
    hw_max = 0
    for w in witnesses:
        vec = w.cohomology
        if vec.hr and vec.hr not in hr_values:
            hr_values[vec.hr] = w
        hl_max = max(hl_max, vec.hl)
        hw_max = max(hw_max, vec.hw)
    base = string_witness(pres, classify_walk(pres, [Letter(pres.path(["a1"]))]))
    checks = {
        "gentle": validate_gentle(pres).ok,
        "derived_discrete": discrete.discrete,
        "enumeration_complete": complete,
        "hr_8_achieved": 8 in hr_values,
        "hr_7_absent": 7 not in hr_values,
        "base_walk_hr_8": base.cohomology.hr == 8,
        "gl_hw_equals_3": hw_max == 3,
        "gl_hl_at_most_6": hl_max <= 6,
    }
    return {
        "algebra": pres.name,
        "max_arrows": bound,
        "witnesses": len(witnesses),
        "hr_achieved": sorted(hr_values),
        "gl_hl": hl_max,
        "gl_hw": hw_max,
        "expected_gl_hw": 3,
        "base_walk": base.to_json(),
        "checks": checks,
        "pass": all(checks.values()),
    }
