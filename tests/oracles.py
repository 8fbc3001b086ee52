"""Test-only oracles: plain reference versions of library facts.

Production never calls these; the tests use them as independent checks
of the library (string membership, canonical orbit representatives,
truncation at a walk end, unpruned band enumeration, the spectrum's
witness choice by sorting, dense Gaussian rank, complex truncation and
minimality).
"""
from fractions import Fraction

from gentle import GBA, GenWalk, PresentationError, ProjComplex, classify_walk, inverse_walk
from gentle.walks import _least_in_orbit, _period, _prefixes, letter_graph, shorten_letter


# ---------------------------------------------------------------------------
# walks


def is_string(pres, letters):
    """Membership in St: arrow letters, no backtrack, no relation subword."""
    letters = tuple(letters)
    if any(l.length != 1 for l in letters):
        return False
    for a, b in zip(letters, letters[1:]):
        if a.target != b.source:
            return False
        if b == a.inverted():
            return False
        if not a.inverse and not b.inverse and pres.is_relation(a.path.arrows[-1], b.path.arrows[0]):
            return False
        if a.inverse and b.inverse and pres.is_relation(b.path.arrows[-1], a.path.arrows[0]):
            return False
    return True


def canonical_string(pres, walk):
    """Representative of {w, w^-1} under the fixed letter order."""
    inv = inverse_walk(pres, walk)
    return min(walk, inv, key=GenWalk.sort_key)


def truncate_first(pres, walk, j):
    """Drop the first j arrows of the first letter (the whole letter at j = length)."""
    return _truncate(pres, walk, j, first=True)


def truncate_last(pres, walk, j):
    """Drop the last j arrows of the last letter."""
    return _truncate(pres, walk, j, first=False)


def _truncate(pres, walk, j, first):
    """The walk-back of the last letter is the walk-front of its inverted
    letter, so both ends trim through ``shorten_letter``."""
    if j == 0:
        return walk
    if not walk.letters:
        raise PresentationError("the trivial walk has no letter to truncate")
    letter = walk.letters[0] if first else walk.letters[-1].inverted()
    if j > letter.length:
        raise PresentationError("cannot truncate past one letter")
    rest = walk.letters[1:] if first else walk.letters[:-1]
    kept = shorten_letter(pres, letter, j)
    if kept is None:
        if not rest:
            raise PresentationError("truncation emptied the walk")
        return classify_walk(pres, rest)
    return classify_walk(pres, (kept,) + rest if first else rest + (kept.inverted(),))


def unpruned_bands(pres, max_arrows):
    """The bands of ``enumerate_gba`` read off every prefix: closed,
    primitive and least in their rotation + inversion orbit."""
    graph = letter_graph(pres)
    return tuple(GenWalk(tuple(graph.letters[j] for j in key), GBA, mu)
                 for key, back, mu, closed in _prefixes(graph, max_arrows)
                 if closed and _period(key) == len(key) and _least_in_orbit(key, back))


def sorted_spectrum_choice(witnesses):
    """The witness ``hl_spectrum`` keeps per length, by sorting every
    witness under (kind order, literal) and keeping the first per length."""
    achieved = {}
    order = {"band": 0, "string": 1, "beta": 2, "stalk": 3}
    for w in sorted(witnesses, key=lambda w: (order[w.kind], w.literal())):
        l = w.hl
        if l >= 1 and l not in achieved:
            achieved[l] = w
    return achieved


# ---------------------------------------------------------------------------
# rank


def rank_gauss(rows):
    """Plain Gaussian elimination over Fraction; independent check route."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][col]
        for i in range(r + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


# ---------------------------------------------------------------------------
# complexes


def brutal_truncate(cx, j):
    """Drop all degrees below j, including the differential into degree j."""
    summands = {deg: s for deg, s in cx.summands.items() if deg >= j}
    diffs = {deg: m for deg, m in cx.diffs.items() if deg >= j}
    return ProjComplex(summands, diffs, origin=cx.origin + f"|>={j}")


def check_minimal(cx):
    """Every differential term lands in the radical (path length >= 1)."""
    for entries in cx.diffs.values():
        for terms in entries.values():
            for path, _ in terms:
                if path.is_trivial():
                    return False
    return True
