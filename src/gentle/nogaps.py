"""Constructive length reduction, spectrum scans, and the A0 check.

Given a witness of cohomological length l > 1 this module produces one of
length exactly l - 1 by cutting and regluing its walk: truncate an arrow
from the letter governing the selected summand, discard the far side, and
attach relation chains so every newly exposed node contributes nothing.
Each candidate surgery is verified against the exact rank computation
before it is accepted; a surgery that misses l - 1 is never returned.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import Path, PresentationError, dim_projective, maximal_extension, parse_presentation, validate_gentle
from .walks import (GBA, GST, Letter, classify_walk, enumerate_gba,
                    enumerate_gst, glue_bar, inverse_walk, is_derived_discrete,
                    longest_walk_arrows, mu_profile)
from .complexes import band_complex, mu_minimal_rotation, string_complex
from .cohomology import CohVector, beta_cohomology, cohomology_dims, node_contributions


class ReductionError(RuntimeError):
    """No verified surgery achieved length l - 1."""


@dataclass(frozen=True)
class Witness:
    """A named indecomposable: a string / beta / band walk or a stalk."""

    kind: str  # string | beta | band | stalk
    walk: object = None
    vertex: str | None = None
    lam: Fraction | None = None
    mult: int = 1
    shift: int = 0
    cohomology: CohVector = CohVector(())

    @property
    def hl(self):
        return self.cohomology.hl

    def literal(self):
        if self.kind == "stalk":
            return f"stalk {self.vertex}"
        base = self.walk.literal()
        if self.kind == "beta":
            return f"beta[ {base} ]"
        if self.kind == "band":
            return f"band[ {base} ; lambda={self.lam} ; d={self.mult} ]"
        return base

    def to_json(self):
        out = {"kind": self.kind, "shift": self.shift,
               "cohomology": self.cohomology.to_json()}
        if self.kind == "stalk":
            out["vertex"] = self.vertex
        else:
            out["walk"] = self.walk.literal()
        if self.kind == "band":
            out["lambda"] = str(self.lam)
            out["d"] = self.mult
        return out


def string_witness(pres, walk, shift=0):
    vec = cohomology_dims(pres, string_complex(pres, walk))
    return Witness("string", walk=walk, shift=shift, cohomology=vec)


def beta_witness(pres, walk, shift=0):
    return Witness("beta", walk=walk, shift=shift,
                   cohomology=beta_cohomology(pres, walk))


def _beta_of(string):
    """The beta witness of a string witness's walk, read off its vector:
    beta erases the lowest degree of the walk and keeps the rest."""
    return replace(string, kind="beta",
                   cohomology=string.cohomology.drop_degree(min(string.walk.mu)))


def band_witness(pres, walk, lam=1, mult=1, shift=0):
    vec = cohomology_dims(pres, band_complex(pres, walk, lam, mult))
    return Witness("band", walk=walk, lam=Fraction(lam), mult=mult,
                   shift=shift, cohomology=vec)


def stalk_witness(pres, vertex, shift=0):
    vec = CohVector.from_dict({0: dim_projective(pres, vertex)})
    return Witness("stalk", vertex=vertex, shift=shift, cohomology=vec)


@dataclass(frozen=True)
class ReductionTrace:
    input: Witness
    case_tag: str
    target_node: int
    direction: str
    surgery: tuple[str, ...]
    output: Witness

    def to_json(self):
        return {
            "input": self.input.to_json(),
            "case": self.case_tag,
            "target_node": self.target_node,
            "direction": self.direction,
            "surgery": list(self.surgery),
            "output": self.output.to_json(),
        }


# ---------------------------------------------------------------------------
# target selection


def _degree_masses(pres, walk):
    contribs = node_contributions(pres, walk)
    masses = {}
    for j, (deg, c) in contribs.items():
        masses[deg] = masses.get(deg, 0) + c
    return contribs, masses


def select_target_summand(pres, walk):
    """The summand the surgery aims at: first nonzero in a degree realizing
    the maximum, nearest the walk start among those."""
    contribs, masses = _degree_masses(pres, walk)
    top = max(masses.values(), default=0)
    if top <= 1:
        raise ReductionError("cohomological length is already <= 1")
    candidates = []
    for deg, mass in masses.items():
        if mass != top:
            continue
        first = min(j for j, (d, c) in contribs.items() if d == deg and c > 0)
        candidates.append(first)
    return min(candidates)


def _positive_candidates(pres, walk, mask_degree=None):
    """First nonzero summand of each realizing degree, farthest first.

    Cutting away the walk prefix keeps the target degree's later summands
    and destroys at least one unit in every other realizing degree, so the
    farthest first-summand is the canonical positive-direction target.
    ``mask_degree`` drops one degree from the reading (the beta-erased
    bottom of a resolution witness).
    """
    contribs, masses = _degree_masses(pres, walk)
    top = max((m for d, m in masses.items() if d != mask_degree), default=0)
    firsts = []
    others = []
    for deg, mass in masses.items():
        if mass != top or deg == mask_degree:
            continue
        nodes = sorted(j for j, (d, c) in contribs.items() if d == deg and c > 0)
        firsts.append(nodes[0])
        others.extend(nodes[1:])
    ordered = sorted(firsts, reverse=True) + sorted(others, reverse=True)
    return ordered, contribs, masses, top


# ---------------------------------------------------------------------------
# glue chains as letter lists


def _arrow_path(pres, name):
    a = pres.arrow(name)
    return Path(a.source, a.target, (name,))


def _left_chain(pres, rest):
    """Chain eliminating the exposed inverse start letter of ``rest``.

    Returns (letters_to_prepend, is_beta, note) or None.  A periodic chain
    is cut deep enough that the lowest degree of the extended walk occurs
    only at the new start node, so the beta rule erases exactly the cut."""
    p = rest[0].path
    g = pres.relation_continuation(p.arrows[-1])
    if g is None:
        return None
    return _pack_chain(pres, glue_bar(pres, _arrow_path(pres, g)), True, rest)


def _right_chain(pres, rest):
    """Chain eliminating the exposed direct end letter of ``rest``."""
    p = rest[-1].path
    g = pres.relation_continuation(p.arrows[-1])
    if g is None:
        return None
    return _pack_chain(pres, glue_bar(pres, _arrow_path(pres, g)), False, rest)


def _chain_from_path(pres, path, left, rest):
    """Glue chain whose head is the full given path (used to turn an end
    node into a turning point or run interior)."""
    return _pack_chain(pres, glue_bar(pres, path), left, rest)


def _pack_chain(pres, bar, left, rest):
    if bar.finite:
        letters = bar.letters()
        beta = False
    else:
        mu = mu_profile(rest)
        if left:
            depth = 1 - min(mu)
        else:
            depth = mu[-1] - min(mu) + 1
        count = max(len(bar.preperiod) + len(bar.period), depth)
        letters = bar.letters(count)
        beta = True
    if left:
        letters = [l.inverted() for l in reversed(letters)]
    note = "periodic chain, beta" if beta else "finite chain"
    return letters, beta, note


# ---------------------------------------------------------------------------
# surgery plans


@dataclass(frozen=True)
class _Plan:
    tag: str
    target: int
    steps: tuple[str, ...]
    kind: str          # string | beta | stalk
    letters: tuple     # proposed walk (the vertex, for a stalk)


def _plan(tag, target, steps, kind, letters):
    return _Plan(tag, target, tuple(steps), kind, tuple(letters))


def _prepend_plans(pres, tag, target, steps, rest, beta_forced=False):
    """Variants of an exposed suffix: bare, or with the left glue chain."""
    plans = [_plan(tag, target, steps + ["exposed start kept bare"],
                   "beta" if beta_forced else "string", rest)]
    first = rest[0]
    if first.inverse:
        chain = _left_chain(pres, rest)
        if chain is not None:
            letters, beta, note = chain
            plans.append(_plan(tag, target,
                               steps + [f"left glue chain of {len(letters)} letters ({note})"],
                               "beta" if (beta or beta_forced) else "string",
                               tuple(letters) + tuple(rest)))
    return plans


def _append_plans(pres, tag, target, steps, rest, beta_forced=False):
    plans = [_plan(tag, target, steps + ["exposed end kept bare"],
                   "beta" if beta_forced else "string", rest)]
    last = rest[-1]
    if not last.inverse:
        chain = _right_chain(pres, rest)
        if chain is not None:
            letters, beta, note = chain
            plans.append(_plan(tag, target,
                               steps + [f"right glue chain of {len(letters)} letters ({note})"],
                               "beta" if (beta or beta_forced) else "string",
                               tuple(rest) + tuple(letters)))
    return plans


def _shorten_letter(pres, letter, drop, from_walk_front):
    """Drop ``drop`` arrows from the letter on its walk-front or walk-back."""
    arrows = letter.path.arrows
    if drop >= len(arrows):
        return None
    if from_walk_front != letter.inverse:
        kept = arrows[drop:]
    else:
        kept = arrows[:-drop]
    return Letter(pres.path(kept), letter.inverse)


def _one_sided(walk):
    return len({l.inverse for l in walk.letters}) == 1


def _local_plans(pres, walk, q, contribs):
    """Local surgeries reducing the contribution at node q by one.

    Every plan is later checked against the rank computation; plans for
    the degenerate corners (a governing letter fully consumed) are emitted
    in several glue variants and the check keeps whichever lands.
    """
    letters = walk.letters
    n = walk.width
    plans = []
    one_sided = _one_sided(walk)

    if q == 0:
        first = letters[0]
        if not first.inverse:
            tag = "ONE_SIDED_i0" if one_sided else "GENERAL_Q"
            ext = maximal_extension(pres, first.path)
            if ext.check is not None:
                chain, beta, note = _chain_from_path(pres, ext.check, True, letters)
                plans.append(_plan(tag, q,
                                   [f"glue inverted chain of the other maximal path {ext.check.label()} ({note})"],
                                   "beta" if beta else "string",
                                   tuple(chain) + letters))
            if first.length >= 2:
                shorter = _shorten_letter(pres, first, 1, from_walk_front=True)
                rest = (shorter,) + letters[1:]
                others = [a for a in pres.out_arrows(shorter.source)
                          if a.name != shorter.path.arrows[0]]
                steps = ["truncate first arrow of the first letter"]
                if others:
                    chain, beta, note = _chain_from_path(
                        pres, _arrow_path(pres, others[0].name), True, rest)
                    plans.append(_plan(tag, q,
                                       steps + [f"glue inverted chain of arrow {others[0].name} ({note})"],
                                       "beta" if beta else "string",
                                       tuple(chain) + rest))
                plans.append(_plan(tag, q, steps + ["no second arrow at the new start"],
                                   "string", rest))
            elif n > 1:
                rest = letters[1:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            ["drop the single-arrow first letter"], rest))
        else:
            tag = "ONE_SIDED_i0" if one_sided else "GENERAL_Q"
            g = pres.relation_continuation(first.path.arrows[-1])
            if g is not None:
                tilde = maximal_extension(pres, _arrow_path(pres, g)).tilde
                chain, beta, note = _chain_from_path(pres, tilde, True, letters)
                plans.append(_plan(tag, q,
                                   [f"glue inverted chain of the maximal path {tilde.label()} ({note})"],
                                   "beta" if beta else "string",
                                   tuple(chain) + letters))

    elif q == n:
        last = letters[-1]
        if last.inverse:
            tag = "ONE_SIDED_i0" if one_sided else "GENERAL_Q"
            ext = maximal_extension(pres, last.path)
            if ext.check is not None:
                chain, beta, note = _chain_from_path(pres, ext.check, False, letters)
                plans.append(_plan(tag, q,
                                   [f"glue chain of the other maximal path {ext.check.label()} ({note})"],
                                   "beta" if beta else "string",
                                   letters + tuple(chain)))
            if last.length >= 2:
                shorter = _shorten_letter(pres, last, 1, from_walk_front=False)
                rest = letters[:-1] + (shorter,)
                others = [a for a in pres.out_arrows(shorter.target)
                          if a.name != shorter.path.arrows[0]]
                steps = ["truncate last arrow of the last letter"]
                if others:
                    chain, beta, note = _chain_from_path(
                        pres, _arrow_path(pres, others[0].name), False, rest)
                    plans.append(_plan(tag, q,
                                       steps + [f"glue chain of arrow {others[0].name} ({note})"],
                                       "beta" if beta else "string",
                                       rest + tuple(chain)))
                plans.append(_plan(tag, q, steps + ["no second arrow at the new end"],
                                   "string", rest))
            elif n > 1:
                rest = letters[:-1]
                plans.extend(_append_plans(pres, tag, q,
                                           ["drop the single-arrow last letter"], rest))
        else:
            tag = "ONE_SIDED_END" if one_sided else "GENERAL_Q"
            g = pres.relation_continuation(last.path.arrows[-1])
            if g is not None:
                tilde = maximal_extension(pres, _arrow_path(pres, g)).tilde
                if tilde.length >= 2:
                    head = Letter(pres.path(tilde.arrows[1:]))
                    others = [a for a in pres.out_arrows(head.source)
                              if a.name != head.path.arrows[0]]
                    if others:
                        inv = Letter(_arrow_path(pres, others[0].name), True)
                        plans.append(_plan(tag, q,
                                           [f"jump to the truncated maximal path {tilde.label()}",
                                            f"prepend inverted arrow {others[0].name}", "beta"],
                                           "beta", (inv, head)))
                    plans.append(_plan(tag, q,
                                       [f"jump to the truncated maximal path {tilde.label()}", "beta"],
                                       "beta", (head,)))
                chain, beta, note = _chain_from_path(pres, tilde, False, letters)
                plans.append(_plan(tag, q,
                                   [f"glue chain of the maximal path {tilde.label()} ({note})"],
                                   "beta" if beta else "string",
                                   letters + tuple(chain)))

    else:
        before, after = letters[q - 1], letters[q]
        if not before.inverse and not after.inverse:
            tag = "ONE_SIDED_MID" if one_sided else "GENERAL_Q"
            if after.length >= 3:
                shorter = _shorten_letter(pres, after, 2, from_walk_front=True)
                rest = (shorter,) + letters[q + 1:]
                steps = [f"truncate two arrows of letter {q + 1}", "discard the prefix"]
                others = [a for a in pres.out_arrows(shorter.source)
                          if a.name != shorter.path.arrows[0]]
                if others:
                    chain, beta, note = _chain_from_path(
                        pres, _arrow_path(pres, others[0].name), True, rest)
                    plans.append(_plan(tag, q,
                                       steps + [f"glue inverted chain of arrow {others[0].name} ({note})"],
                                       "beta" if beta else "string",
                                       tuple(chain) + rest))
                plans.append(_plan(tag, q, steps, "string", rest))
            elif after.length == 2 and q + 1 <= n - 1:
                rest = letters[q + 1:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            [f"consume letter {q + 1}", "discard the prefix"], rest))
            # negative-style fallback handled by the mirrored direction
        elif before.inverse and after.inverse:
            tag = "ONE_SIDED_MID" if one_sided else "GENERAL_Q"
            if before.length >= 2:
                shorter = _shorten_letter(pres, before, 1, from_walk_front=True)
                rest = (shorter,) + letters[q:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            [f"truncate one arrow of letter {q}", "discard the prefix"],
                                            rest))
            else:
                rest = letters[q:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            [f"consume letter {q}", "discard the prefix"], rest))
        elif before.inverse and not after.inverse:
            tag = "BACKWARD_TURN"
            if before.length >= 2:
                shorter = _shorten_letter(pres, before, 1, from_walk_front=True)
                rest = (shorter,) + letters[q:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            [f"truncate one arrow of letter {q}", "discard the prefix"],
                                            rest))
            else:
                rest = letters[q:]
                plans.extend(_prepend_plans(pres, tag, q,
                                            [f"consume letter {q}", "discard the prefix"], rest))
                ext = maximal_extension(pres, before.path)
                if ext.check is not None:
                    chain, beta, note = _chain_from_path(pres, ext.check, True, rest)
                    plans.append(_plan(tag, q,
                                       [f"consume letter {q}",
                                        f"glue inverted chain of {ext.check.label()} ({note})"],
                                       "beta" if beta else "string",
                                       tuple(chain) + rest))
            if after.length >= 2:
                shorter = _shorten_letter(pres, after, 1, from_walk_front=False)
                rest = letters[:q] + (shorter,)
                plans.extend(_append_plans(pres, tag, q,
                                           [f"truncate one arrow of letter {q + 1}",
                                            "discard the suffix"], rest))
        # forward turning points contribute nothing and are never targets
    return plans


def _cut_plans(pres, walk):
    """Cuts at every interior node, with glue variants for the exposed end
    and with up to two arrows trimmed off the exposed letter.

    At a forward turn the cut only discards cohomology (the turn itself is
    silent); elsewhere the exposed end picks up or loses units that the
    rank check settles.  Forward turns come first as the canonical case."""
    letters = walk.letters
    fturns = [f for f in range(1, walk.width)
              if not letters[f - 1].inverse and letters[f].inverse]
    rest = [f for f in range(1, walk.width) if f not in fturns]
    plans = []
    for f in fturns + rest:
        where = "forward turn" if f in fturns else "node"
        for k in (0, 1, 2):
            suffix = letters[f:]
            if k:
                head = _shorten_letter(pres, suffix[0], k, from_walk_front=True)
                if head is None:
                    continue
                suffix = (head,) + suffix[1:]
            trim = f" and truncate {k} arrows" if k else ""
            plans.extend(_prepend_plans(pres, "GENERAL_Q", f,
                                        [f"cut at {where} {f}, keep the suffix{trim}"],
                                        suffix))
        for k in (0, 1, 2):
            prefix = letters[:f]
            if k:
                tail = _shorten_letter(pres, prefix[-1], k, from_walk_front=False)
                if tail is None:
                    continue
                prefix = prefix[:-1] + (tail,)
            trim = f" and truncate {k} arrows" if k else ""
            plans.extend(_append_plans(pres, "GENERAL_Q", f,
                                       [f"cut at {where} {f}, keep the prefix{trim}"],
                                       prefix))
    return plans


def _stalk_plans(pres, walk, contribs, masses, top):
    """Brutal truncation to a single projective summand.

    Needed where a forward turn shares one unit between both neighbours:
    no letter surgery then reaches l - 1, but one projective of the top
    degree can (its stalk is the complex cut down to that summand)."""
    preferred = []
    seen = set()
    for j, (deg, c) in sorted(contribs.items()):
        if c > 0 and masses[deg] == top:
            v = walk.node_vertex(j)
            if v not in seen:
                seen.add(v)
                preferred.append(v)
    for v in pres.vertices:
        if v not in seen:
            seen.add(v)
            preferred.append(v)
    return [_plan("GENERAL_Q", 0,
                  [f"brutal truncation to the projective at {v}"], "stalk", (v,))
            for v in preferred]


def _candidate_plans(pres, walk, mask_degree=None):
    ordered, contribs, masses, top = _positive_candidates(pres, walk, mask_degree)
    plans = []
    for q in ordered:
        plans.extend(_local_plans(pres, walk, q, contribs))
    plans.extend(_cut_plans(pres, walk))
    plans.extend(_stalk_plans(pres, walk, contribs, masses, top))
    return plans


def _plan_witnesses(pres, plan):
    if plan.kind == "stalk":
        return [stalk_witness(pres, plan.letters[0])]
    walk = classify_walk(pres, plan.letters)
    if walk.kind not in (GST, GBA):
        return []
    if plan.kind == "beta":
        return [beta_witness(pres, walk)]
    out = string_witness(pres, walk)
    beta = _beta_of(out)
    return [out] if beta.cohomology == out.cohomology else [out, beta]


def _aligned(input_witness, out):
    """Record the shift matching the output's top degree to the input's."""
    din = max((d for d, v in input_witness.cohomology.dims
               if v == input_witness.hl), default=0)
    dout = max((d for d, v in out.cohomology.dims if v == out.hl), default=0)
    return replace(out, shift=dout - din)


def _run_plans(pres, walk, target_hl, plans, direction, input_witness,
               mask_degree=None):
    """First verified plan whose output has exactly the target length.

    When no single surgery lands, surgeries that leave the length unchanged
    (typically a glue that levels a second realizing degree) are expanded
    one more round; the composed trace lists both stages.  A proposed walk
    is evaluated once: a repeat cannot land where its first proposal missed."""
    evaluated = set()

    def fresh(plan):
        key = (plan.kind, plan.letters)
        if key in evaluated:
            return False
        evaluated.add(key)
        return True

    intermediates = []
    for plan in filter(fresh, plans):
        for cand in _plan_witnesses(pres, plan):
            if cand.hl == target_hl:
                if direction == "negative":
                    cand = _invert_witness(pres, cand)
                return ReductionTrace(input_witness, plan.tag, plan.target,
                                      direction, plan.steps,
                                      _aligned(input_witness, cand))
            if cand.hl == target_hl + 1 and cand.kind != "stalk":
                intermediates.append((plan, cand))
    seen = set()
    expanded = 0
    for plan, mid in intermediates:
        key = tuple(l.sort_key() for l in mid.walk.letters)
        if key in seen:
            continue
        seen.add(key)
        expanded += 1
        if expanded > 25:
            break
        mid_mask = min(mid.walk.mu) if mid.kind == "beta" else None
        for inner in filter(fresh, _candidate_plans(pres, mid.walk, mid_mask)):
            for cand in _plan_witnesses(pres, inner):
                if cand.hl == target_hl:
                    if direction == "negative":
                        cand = _invert_witness(pres, cand)
                    steps = plan.steps + ("then, on the intermediate walk:",) + inner.steps
                    return ReductionTrace(input_witness, plan.tag, plan.target,
                                          direction, steps,
                                          _aligned(input_witness, cand))
    return None


def _invert_witness(pres, witness):
    if witness.kind == "stalk":
        return witness
    walk = inverse_walk(pres, witness.walk)
    if witness.kind == "beta":
        return beta_witness(pres, walk, shift=witness.shift)
    return string_witness(pres, walk, shift=witness.shift)


def reduce_string(pres, walk, negative=False):
    """A verified witness of length hl(P_walk) - 1 for a width >= 1 string."""
    if walk.kind not in (GST, GBA):
        raise PresentationError(f"reduce_string needs a generalized string, got {walk.kind}")
    return _reduce_string(pres, string_witness(pres, walk), negative)


def _reduce_string(pres, witness, negative):
    walk = witness.walk
    l = witness.hl
    if l <= 1:
        raise ReductionError("cohomological length is already <= 1")
    directions = ["negative", "positive"] if negative else ["positive", "negative"]
    for direction in directions:
        base = inverse_walk(pres, walk) if direction == "negative" else walk
        trace = _run_plans(pres, base, l - 1, _candidate_plans(pres, base),
                           direction, witness)
        if trace is not None:
            return trace
    raise ReductionError(
        f"no verified surgery on {walk.literal()} reached length {l - 1}")


def reduce_beta(pres, walk, negative=False):
    """Reduce a beta witness: lengths are read with the lowest occupied
    degree of the underlying string erased."""
    return _reduce_beta(pres, string_witness(pres, walk), negative)


def _reduce_beta(pres, plain, negative):
    walk = plain.walk
    witness = _beta_of(plain)
    l = witness.hl
    if l <= 1:
        raise ReductionError("cohomological length is already <= 1")
    if plain.hl == l:
        trace = _reduce_string(pres, plain, negative)
        return ReductionTrace(witness, "BETA_TRUNCATION", trace.target_node,
                              trace.direction,
                              ("reduce the underlying string",) + trace.surgery,
                              trace.output)
    directions = ["negative", "positive"] if negative else ["positive", "negative"]
    for direction in directions:
        base = inverse_walk(pres, walk) if direction == "negative" else walk
        trace = _run_plans(pres, base, l - 1, _candidate_plans(pres, base, min(base.mu)),
                           direction, witness)
        if trace is not None:
            return ReductionTrace(witness, "BETA_TRUNCATION", trace.target_node,
                                  trace.direction, trace.surgery, trace.output)
    raise ReductionError(
        f"no verified surgery on beta[{walk.literal()}] reached length {l - 1}")


def reduce_band(pres, walk, lam=1, mult=1, negative=False):
    """Unwind a band into the d-fold repeated string and reduce there."""
    if walk.kind != GBA:
        raise PresentationError(f"reduce_band needs a generalized band, got {walk.kind}")
    witness = band_witness(pres, walk, lam, mult)
    l = witness.hl
    if l <= 1:
        raise ReductionError("cohomological length is already <= 1")
    rotated = mu_minimal_rotation(pres, walk)
    unwound = classify_walk(pres, rotated.letters * mult)
    steps = (f"unwind to the {mult}-fold repeated string",)
    plain = string_witness(pres, unwound)
    beta = _beta_of(plain)
    if beta.hl == l - 1:
        return ReductionTrace(witness, "BAND_UNWIND", 0, "positive",
                              steps + ("beta of the unwound string already lands",),
                              beta)
    if beta.hl == l:
        inner = _reduce_beta(pres, plain, negative)
        return ReductionTrace(witness, "BAND_UNWIND", inner.target_node,
                              inner.direction, steps + inner.surgery, inner.output)
    if plain.hl == l:
        inner = _reduce_string(pres, plain, negative)
        return ReductionTrace(witness, "BAND_UNWIND", inner.target_node,
                              inner.direction, steps + inner.surgery, inner.output)
    if plain.hl == l - 1:
        return ReductionTrace(witness, "BAND_UNWIND", 0, "positive",
                              steps + ("the unwound string already lands",), plain)
    raise ReductionError(
        f"band {walk.literal()} (lambda={lam}, d={mult}): unwound string has "
        f"length {plain.hl} / beta {beta.hl}, expected {l} or {l - 1}")


def reduce_stalk(pres, vertex):
    """Reduce a projective stalk: the single-letter walk on a maximal path
    from the vertex has top cohomology dim P_v - 1, and its beta variant
    erases everything else."""
    witness = stalk_witness(pres, vertex)
    l = witness.hl
    if l <= 1:
        raise ReductionError("cohomological length is already <= 1")
    arrow = pres.out_arrows(vertex)[0]
    tilde = maximal_extension(pres, _arrow_path(pres, arrow.name)).tilde
    walk = classify_walk(pres, [Letter(tilde)])
    out = string_witness(pres, walk)
    if out.hl != l - 1:
        out = _beta_of(out)
    if out.hl != l - 1:
        raise ReductionError(f"stalk reduction at {vertex} missed {l - 1}")
    return ReductionTrace(witness, "GENERAL_Q", 0, "positive",
                          (f"replace the stalk by the maximal path {tilde.label()}",),
                          out)


def reduce_witness(pres, witness, negative=False):
    if witness.kind == "string":
        return reduce_string(pres, witness.walk, negative=negative)
    if witness.kind == "beta":
        return reduce_beta(pres, witness.walk, negative=negative)
    if witness.kind == "band":
        return reduce_band(pres, witness.walk, witness.lam, witness.mult,
                           negative=negative)
    return reduce_stalk(pres, witness.vertex)


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumReport:
    achieved: dict
    gaps: tuple[int, ...]
    complete: bool
    max_arrows: int
    witnesses: int
    reductions: tuple
    failures: tuple[str, ...]

    def to_json(self):
        return {
            "achieved": {str(l): w.to_json() for l, w in sorted(self.achieved.items())},
            "gaps": list(self.gaps),
            "complete": self.complete,
            "max_arrows": self.max_arrows,
            "witnesses": self.witnesses,
            "reductions": [t.to_json() for t in self.reductions],
            "reduction_failures": list(self.failures),
        }


def witness_family(pres, max_arrows, include_bands=True):
    """Stalks, enumerated strings, their beta variants, and bands at d = 1."""
    witnesses = [stalk_witness(pres, v) for v in pres.vertices]
    enum = enumerate_gst(pres, max_arrows)
    for walk in enum.walks:
        w = string_witness(pres, walk)
        witnesses.append(w)
        if w.cohomology.as_dict().get(min(walk.mu), 0):
            witnesses.append(_beta_of(w))
    if include_bands:
        for walk in enumerate_gba(pres, max_arrows).walks:
            witnesses.append(band_witness(pres, walk, 1, 1))
    return witnesses, enum.complete


def hl_spectrum(pres, max_arrows, include_bands=True, reduce_check=False):
    """Achieved cohomological lengths with witnesses, gaps, reductions."""
    witnesses, complete = witness_family(pres, max_arrows, include_bands)
    achieved = {}
    # bands first so the reduce check exercises the unwinding route
    order = {"band": 0, "string": 1, "beta": 2, "stalk": 3}
    for w in sorted(witnesses, key=lambda w: (order[w.kind], w.literal())):
        l = w.hl
        if l >= 1 and l not in achieved:
            achieved[l] = w
    top = max(achieved, default=0)
    gaps = tuple(v for v in range(1, top) if v not in achieved)
    reductions = []
    failures = []
    if reduce_check:
        for l in sorted(achieved, reverse=True):
            if l <= 1:
                continue
            try:
                trace = reduce_witness(pres, achieved[l])
            except ReductionError as exc:
                failures.append(str(exc))
                continue
            if trace.output.hl != l - 1:
                failures.append(f"reduction of {achieved[l].literal()} landed on {trace.output.hl}")
            else:
                reductions.append(trace)
    return SpectrumReport(achieved, gaps, complete, max_arrows,
                          len(witnesses), tuple(reductions), tuple(failures))


# ---------------------------------------------------------------------------
# the built-in presentations and the A0 verification


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

KRONECKER_SOURCE = """\
# two parallel arrows, no relations
algebra kronecker
vertices 1 2
arrow a : 1 -> 2
arrow b : 1 -> 2
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
