"""Constructive length reduction and spectrum scans.

Given a witness of cohomological length l > 1 this module produces one of
length exactly l - 1 by cutting and regluing its walk: truncate an arrow
from the letter governing the selected summand, discard the far side, and
attach relation chains so every newly exposed node contributes nothing.
Witness vectors are read off the walk in closed form, candidate surgeries
included, and ``reduce_witness`` reads its input's vector as given.  The
exact rank computation stays the independent oracle: it checks the one
surgery that lands before it is returned, and a surgery that misses l - 1
is never returned.

``reduce_witness`` is the one entry.  A band unwinds to the beta of its
d-fold string, and a beta whose string keeps the length searches that
string; every witness then runs one plan search.  Every reduction leaves
through ``_landed``, the one place a trace is built: it aligns the output's
top degree to the input's and ranks the output.

The surgeries form one lazy stream of plans: the local plans at each target
node, then cuts at the interior nodes, then stalks, then one round on the
near misses.  A plan is built only when the search reaches it, so the search
stops building at the first plan that lands.  A stalk P_v is the string
witness of the trivial walk at v: it is reduced by the same search, and a
stalk proposed by a plan is that walk.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import maximal_path, other_maximal_path
from .walks import (Letter, _flip, classify_walk, enumerate_gba, enumerate_gst, glue_bar,
                    inverse_walk, mu_minimal_rotation, mu_profile, shorten_letter,
                    trivial_walk)
from .complexes import check_band, string_complex
from .cohomology import (CohVector, band_sums, beta_cohomology, cohomology_dims,
                         node_contributions, node_sums)


class ReductionError(RuntimeError):
    """No verified surgery achieved length l - 1."""


@dataclass(frozen=True, slots=True)
class Witness:
    """A named indecomposable: a string / beta / band walk, or a stalk on a
    trivial walk.  ``cohomology`` is the walk's closed-form vector (for a
    band, at ``mult``); ``reduce_witness`` reads it as given."""

    kind: str  # string | beta | band | stalk
    walk: object
    cohomology: CohVector
    lam: Fraction | None = None
    mult: int = 1
    shift: int = 0

    @property
    def hl(self):
        return self.cohomology.hl

    def literal(self):
        if self.kind == "stalk":
            return f"stalk {self.walk.node_vertex(0)}"
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
            out["vertex"] = self.walk.node_vertex(0)
        else:
            out["walk"] = self.walk.literal()
        if self.kind == "band":
            out["lambda"] = str(self.lam)
            out["d"] = self.mult
        return out


def string_witness(pres, walk):
    """A walk's string witness; on the trivial walk at v, the stalk P_v."""
    return Witness("string" if walk.letters else "stalk", walk, node_sums(pres, walk))


def beta_witness(pres, walk):
    return _beta_of(string_witness(pres, walk))


def _beta_of(string):
    """The beta witness of a string witness's walk, read off its vector:
    beta erases the lowest degree of the walk and keeps the rest."""
    return Witness("beta", string.walk, string.cohomology.drop_degree(min(string.walk.mu)))


def _with_beta(string):
    """A string witness, then its beta variant when beta erases something."""
    yield string
    beta = _beta_of(string)
    if beta.cohomology != string.cohomology:
        yield beta


def band_witness(pres, walk, lam=1, mult=1):
    lam = check_band(walk, lam, mult)
    return Witness("band", walk, band_sums(pres, walk, mult), lam, mult)


def stalk_witness(pres, vertex):
    return string_witness(pres, trivial_walk(pres, vertex))


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


def _top_degrees(witness):
    """The degrees whose dimension is the witness's length."""
    vector, hl = witness.cohomology, witness.hl
    return [vector.low + k for k, v in enumerate(vector.counts) if v == hl]


def _positive_candidates(pres, witness):
    """First nonzero summand of each realizing degree, farthest first, then
    every other contributing node of a realizing degree, farthest first.

    Cutting away the walk prefix keeps the target degree's later summands
    and destroys at least one unit in every other realizing degree, so the
    farthest first-summand is the canonical positive-direction target.
    The realizing degrees are read off the witness's vector.
    """
    contribs = node_contributions(pres, witness.walk)
    firsts = []
    others = []
    for deg in _top_degrees(witness):
        nodes = sorted(j for j, (d, c) in contribs.items() if d == deg and c > 0)
        total = sum(contribs[j][1] for j in nodes)
        if total < witness.hl:
            where = f"its walk's nodes contribute only {total}" if total else \
                "no node of its walk contributes"
            raise ReductionError(f"the vector of {witness.literal()} has length {witness.hl} "
                                 f"in degree {deg}, where {where}")
        firsts.append(nodes[0])
        others.extend(nodes[1:])
    return sorted(firsts, reverse=True) + sorted(others, reverse=True)


# ---------------------------------------------------------------------------
# glue chains as letter lists


def _chain(pres, path, rest):
    """The inverted glue chain of ``path``, to put before ``rest``.

    Returns (letters, is_beta, note).  A finite chain is taken whole, as
    the count is at least its length.  A periodic chain is cut deep enough
    that the lowest degree of the extended walk occurs only at the new
    start node, so the beta rule erases exactly the cut."""
    bar = glue_bar(pres, path)
    depth = 1 - min(mu_profile(rest))
    letters = bar.letters(max(len(bar.preperiod) + len(bar.period), depth))
    note = "finite chain" if bar.finite else "periodic chain, beta"
    return _flip(letters), not bar.finite, note


# ---------------------------------------------------------------------------
# surgery plans


@dataclass(frozen=True)
class _Plan:
    tag: str
    target: int
    steps: tuple[str, ...]
    kind: str          # string | beta
    walk: object       # the proposed walk; a stalk is a trivial walk


def _plan(pres, tag, target, steps, kind, letters):
    return _Plan(tag, target, tuple(steps), kind, classify_walk(pres, letters))


@dataclass(frozen=True)
class _Side:
    """The words of a surgery at one end of a walk.

    Every plan is built at the start of a walk.  A plan at the end is built
    on the flipped letters (the inverse walk), and ``frame`` flips its
    letters back."""

    first: str      # the exposed letter
    start: str      # the exposed node
    left: str       # where a glue chain goes
    glue: str       # a glue chain as read along the walk
    kept: str       # what a cut keeps
    flipped: bool

    def frame(self, letters):
        return _flip(letters) if self.flipped else letters


_START = _Side("first", "start", "left", "glue inverted chain", "suffix", False)
_END = _Side("last", "end", "right", "glue chain", "prefix", True)


def _glued(pres, side, tag, target, steps, what, path, rest):
    """``rest`` behind the inverted glue chain of ``path``."""
    chain, beta, note = _chain(pres, path, rest)
    return _plan(pres, tag, target, steps + [f"{side.glue} of {what} ({note})"],
                 "beta" if beta else "string", side.frame(chain + rest))


def _prepend_plans(pres, side, tag, target, steps, rest):
    """Variants of an exposed start: bare, or with the glue chain that
    eliminates an inverse first letter."""
    yield _plan(pres, tag, target, steps + [f"exposed {side.start} kept bare"],
                "string", side.frame(rest))
    g = pres.relation_continuation(rest[0].path.arrows[-1]) if rest[0].inverse else None
    if g is not None:
        chain, beta, note = _chain(pres, pres.arrow_path(g), rest)
        yield _plan(pres, tag, target,
                    steps + [f"{side.left} glue chain of {len(chain)} letters ({note})"],
                    "beta" if beta else "string", side.frame(chain + rest))


def _other_arrow(pres, letter):
    """An arrow leaving the source of a direct letter other than its first
    arrow, or None: the first arrow of the other maximal path there."""
    check = other_maximal_path(pres, letter.path.arrows[0])
    return check.arrows[0] if check is not None else None


def _one_sided(walk):
    return len({l.inverse for l in walk.letters}) == 1


def _end_plans(pres, side, letters, q, one_sided):
    """Surgeries reducing the contribution at the start node of ``letters``.

    The end of a walk is the start of its flipped letters, so this builds
    the plans of both ends; ``side`` words the steps and turns the letters
    back.  Only the end side also jumps to a truncated maximal path."""
    first = letters[0]
    tag = "ONE_SIDED_i0" if one_sided else "GENERAL_Q"
    if not first.inverse:
        check = other_maximal_path(pres, first.path.arrows[0])
        if check is not None:
            yield _glued(pres, side, tag, q, [],
                         f"the other maximal path {check.label()}", check, letters)
        if first.length >= 2:
            rest = (shorten_letter(pres, first, 1),) + letters[1:]
            steps = [f"truncate {side.first} arrow of the {side.first} letter"]
            other = _other_arrow(pres, rest[0])
            if other is not None:
                yield _glued(pres, side, tag, q, steps, f"arrow {other}",
                             pres.arrow_path(other), rest)
            yield _plan(pres, tag, q, steps + [f"no second arrow at the new {side.start}"],
                        "string", side.frame(rest))
        elif len(letters) > 1:
            yield from _prepend_plans(pres, side, tag, q,
                                      [f"drop the single-arrow {side.first} letter"],
                                      letters[1:])
        return
    # a target's count l(tilde of the relation continuation) is > 0, so it exists
    tilde = maximal_path(pres, pres.relation_continuation(first.path.arrows[-1]))
    if side is _END:
        tag = "ONE_SIDED_END" if one_sided else "GENERAL_Q"
        if tilde.length >= 2:
            head = shorten_letter(pres, Letter(tilde), 1)
            jump = f"jump to the truncated maximal path {tilde.label()}"
            other = _other_arrow(pres, head)
            if other is not None:
                yield _plan(pres, tag, q, [jump, f"prepend inverted arrow {other}", "beta"],
                            "beta", (Letter(pres.arrow_path(other), True), head))
            yield _plan(pres, tag, q, [jump, "beta"], "beta", (head,))
    yield _glued(pres, side, tag, q, [], f"the maximal path {tilde.label()}", tilde, letters)


def _local_plans(pres, walk, q):
    """Local surgeries reducing the contribution at node q by one.  They
    head the plan stream, before the cuts, the stalks and the round on near
    misses, and each is built only when the search reaches it.

    Every plan is evaluated in closed form; plans for the degenerate
    corners (a governing letter fully consumed) are yielded in several glue
    variants and the check keeps the first that lands.  The trivial walk
    at v is replaced by the maximal path from v, whose string or beta
    vector keeps dim P_v - 1 on top.
    """
    letters = walk.letters
    if not letters:
        tilde = maximal_path(pres, pres.out_arrows(walk.node_vertex(0))[0].name)
        step = f"replace the stalk by the maximal path {tilde.label()}"
        yield _plan(pres, "GENERAL_Q", 0, [step], "string", (Letter(tilde),))
        return
    n = walk.width
    one_sided = _one_sided(walk)
    if q in (0, n):
        side, ends = (_START, letters) if q == 0 else (_END, _flip(letters))
        yield from _end_plans(pres, side, ends, q, one_sided)
        return
    before, after = letters[q - 1], letters[q]
    if not before.inverse and not after.inverse:
        tag = "ONE_SIDED_MID" if one_sided else "GENERAL_Q"
        if after.length >= 3:
            rest = (shorten_letter(pres, after, 2),) + letters[q + 1:]
            steps = [f"truncate two arrows of letter {q + 1}", "discard the prefix"]
            other = _other_arrow(pres, rest[0])
            if other is not None:
                yield _glued(pres, _START, tag, q, steps, f"arrow {other}",
                             pres.arrow_path(other), rest)
            yield _plan(pres, tag, q, steps, "string", rest)
        elif after.length == 2 and q + 1 <= n - 1:
            yield from _prepend_plans(pres, _START, tag, q,
                                      [f"consume letter {q + 1}", "discard the prefix"],
                                      letters[q + 1:])
        # negative-style fallback handled by the mirrored direction
    elif before.inverse:
        turn = not after.inverse
        tag = "BACKWARD_TURN" if turn else "ONE_SIDED_MID" if one_sided else "GENERAL_Q"
        if before.length >= 2:
            rest = (shorten_letter(pres, before, 1),) + letters[q:]
            yield from _prepend_plans(pres, _START, tag, q,
                                      [f"truncate one arrow of letter {q}", "discard the prefix"],
                                      rest)
        else:
            # No check-path glue follows the consumed letter: at a backward
            # turn the check path of its arrow starts with the first arrow of
            # ``after``, so every glued walk would backtrack.
            yield from _prepend_plans(pres, _START, tag, q,
                                      [f"consume letter {q}", "discard the prefix"],
                                      letters[q:])
        if turn and after.length >= 2:
            rest = (shorten_letter(pres, after.inverted(), 1),) + _flip(letters[:q])
            yield from _prepend_plans(pres, _END, tag, q,
                                      [f"truncate one arrow of letter {q + 1}",
                                       "discard the suffix"], rest)
    # forward turning points contribute nothing and are never targets


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
    for f in fturns + rest:
        where = "forward turn" if f in fturns else "node"
        for side, piece in ((_START, letters[f:]), (_END, _flip(letters[:f]))):
            for k in (0, 1, 2):
                exposed = piece
                if k:
                    head = shorten_letter(pres, piece[0], k)
                    if head is None:
                        continue
                    exposed = (head,) + piece[1:]
                trim = f" and truncate {k} arrows" if k else ""
                yield from _prepend_plans(pres, side, "GENERAL_Q", f,
                                          [f"cut at {where} {f}, keep the {side.kept}{trim}"],
                                          exposed)


def _stalk_plans(pres, walk, targets):
    """Brutal truncation to a single projective summand.

    Needed where a forward turn shares one unit between both neighbours:
    no letter surgery then reaches l - 1, but one projective of the top
    degree can (its stalk is the complex cut down to that summand)."""
    top_vertices = [walk.node_vertex(j) for j in sorted(targets)]
    for v in dict.fromkeys([*top_vertices, *pres.vertices]):
        yield _Plan("GENERAL_Q", 0, (f"brutal truncation to the projective at {v}",),
                    "string", trivial_walk(pres, v))


def _candidate_plans(pres, witness):
    targets = _positive_candidates(pres, witness)
    for q in targets:
        yield from _local_plans(pres, witness.walk, q)
    yield from _cut_plans(pres, witness.walk)
    yield from _stalk_plans(pres, witness.walk, targets)


def _plan_witnesses(pres, plan):
    """The plan's output, then its beta variant when that differs; the
    variant is built only if the search reads on past the output."""
    if plan.kind == "beta":
        yield beta_witness(pres, plan.walk)
        return
    yield from _with_beta(string_witness(pres, plan.walk))


def _landed(pres, witness, tag, target, direction, steps, out):
    """The trace of ``witness`` reduced to ``out``, the one place a trace is
    built.  The output is aligned: its top degree less its shift is the
    input's, so along a chain of reductions every output is aligned to the
    first input.  Then it is ranked, the one rank computation of a
    reduction, and the rank route must agree with its closed-form vector."""
    out = replace(out, shift=max(_top_degrees(out)) - max(_top_degrees(witness)) + witness.shift)
    if out.kind == "beta":
        ranked = beta_cohomology(pres, out.walk)
    else:
        ranked = cohomology_dims(pres, string_complex(pres, out.walk))
    if ranked != out.cohomology:
        raise ReductionError(f"closed form and rank disagree on {out.literal()}")
    return ReductionTrace(witness, tag, target, direction, steps, out)


def _run_plans(pres, target_hl, plans):
    """(plan, steps, output) of the first plan whose output has exactly the
    target length, or None.

    ``plans`` is the lazy stream of ``_candidate_plans``: local plans at each
    target node, then cuts, then stalks, each built only when it is reached.
    When none lands, surgeries that leave the length unchanged (typically a
    glue that levels a second realizing degree) are expanded one more round,
    on every near miss, each the first proposal of its walk; the composed
    steps list both stages.  A proposed walk is evaluated once: a
    repeat cannot land where its first proposal missed."""
    evaluated = set()

    def fresh(plan):
        # the set grows exactly when the key is new: one hash per plan
        seen = len(evaluated)
        evaluated.add((plan.kind, plan.walk))
        return len(evaluated) > seen

    near = {}
    for plan in filter(fresh, plans):
        for cand in _plan_witnesses(pres, plan):
            if cand.hl == target_hl:
                return plan, plan.steps, cand
            if cand.hl == target_hl + 1 and cand.kind != "stalk":
                near.setdefault(cand.walk, (plan, cand))
    for plan, mid in near.values():
        for inner in filter(fresh, _candidate_plans(pres, mid)):
            for cand in _plan_witnesses(pres, inner):
                if cand.hl == target_hl:
                    steps = plan.steps + ("then, on the intermediate walk:",) + inner.steps
                    return plan, steps, cand
    return None


def _invert_witness(pres, witness):
    """The same witness on the inverse walk.  Node k of the inverse walk is
    node n - k of the walk lowered by mu(n), so its vector is the walk's
    shifted by mu(n) and nothing is ranked again."""
    return replace(witness, walk=inverse_walk(pres, witness.walk),
                   cohomology=witness.cohomology.shifted(witness.walk.mu[-1]))


def _search(pres, witness, negative):
    """(plan, steps, direction, output): the plan search on the witness,
    then on its inverse (the other way round when ``negative``), or None
    when neither lands.  The trivial walk is its own inverse, so it is
    searched once, positive."""
    directions = ["negative", "positive"] if negative else ["positive", "negative"]
    for direction in directions if witness.walk.letters else ["positive"]:
        base = _invert_witness(pres, witness) if direction == "negative" else witness
        found = _run_plans(pres, witness.hl - 1, _candidate_plans(pres, base))
        if found is not None:
            plan, steps, out = found
            if direction == "negative":
                out = _invert_witness(pres, out)
            return plan, steps, direction, out
    return None


def reduce_witness(pres, witness, negative=False):
    """The reduction: a verified witness of length hl - 1, read off the
    witness's walk and vector as given; ``trace.input`` is ``witness``.

    A band is unwound into the d-fold repeated string.  The band's vector
    is the beta vector of that string plus one in degree 1, so that beta
    vector has length l, and is searched as a beta, or l - 1, and lands at
    once.  A beta whose string keeps its length searches that string.  A
    failed search raises ReductionError naming ``witness``, not the walk
    searched."""
    l = witness.hl
    if l <= 1:
        raise ReductionError("cohomological length is already <= 1")
    base, tag, steps = witness, None, ()
    if witness.kind == "band":
        rotated = mu_minimal_rotation(pres, witness.walk)
        plain = string_witness(pres, classify_walk(pres, rotated.letters * witness.mult))
        base, tag = _beta_of(plain), "BAND_UNWIND"
        steps = (f"unwind to the {witness.mult}-fold repeated string",)
        if base.hl == l - 1:
            return _landed(pres, witness, tag, 0, "positive",
                           steps + ("beta of the unwound string already lands",), base)
        if base.hl != l:
            raise ReductionError(
                f"band {witness.walk.literal()} (lambda={witness.lam}, d={witness.mult}): "
                f"unwound string has length {plain.hl} / beta {base.hl}, expected {l} or {l - 1}")
    elif witness.kind == "beta":
        plain, tag = string_witness(pres, witness.walk), "BETA_TRUNCATION"
    if base.kind == "beta" and plain.hl == l:
        base, steps = plain, steps + ("reduce the underlying string",)
    found = _search(pres, base, negative)
    if found is None:
        raise ReductionError(f"no verified surgery on {witness.literal()} "
                             f"reached length {l - 1}")
    plan, surgery, direction, out = found
    return _landed(pres, witness, tag or plan.tag, plan.target, direction, steps + surgery, out)


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
    witnesses = [string_witness(pres, trivial_walk(pres, v)) for v in pres.vertices]
    enum = enumerate_gst(pres, max_arrows)
    for walk in enum.walks:
        witnesses.extend(_with_beta(string_witness(pres, walk)))
    if include_bands:
        for walk in enumerate_gba(pres, max_arrows).walks:
            witnesses.append(band_witness(pres, walk, 1, 1))
    return witnesses, enum.complete


def hl_spectrum(pres, max_arrows, include_bands=True, reduce_check=False):
    """Achieved cohomological lengths with witnesses, gaps, reductions.  Each
    length keeps its least witness under (kind order, literal), the first on
    a tie, as a running minimum that builds literals only on a kind tie."""
    witnesses, complete = witness_family(pres, max_arrows, include_bands)
    # bands first so the reduce check exercises the unwinding route
    order = {"band": 0, "string": 1, "beta": 2, "stalk": 3}
    achieved = {}  # length -> (least witness, its literal once built)
    for w in witnesses:
        l = w.hl
        best, literal = achieved.get(l, (None, None))
        if l < 1 or best is not None and order[w.kind] > order[best.kind]:
            continue
        if best is not None and w.kind == best.kind:
            held, own = literal or best.literal(), w.literal()
            achieved[l] = (best, held) if own >= held else (w, own)
        else:
            achieved[l] = w, None
    achieved = {l: w for l, (w, _) in achieved.items()}
    top = max(achieved, default=0)
    gaps = tuple(v for v in range(1, top) if v not in achieved)
    reductions = []
    failures = []
    if reduce_check:
        for l in sorted(achieved, reverse=True):
            if l <= 1:
                continue
            try:
                reductions.append(reduce_witness(pres, achieved[l]))
            except ReductionError as exc:
                failures.append(str(exc))
    return SpectrumReport(achieved, gaps, complete, max_arrows,
                          len(witnesses), tuple(reductions), tuple(failures))
