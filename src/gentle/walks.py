"""Letters, generalized walks, their classification and enumeration.

A letter is a nonzero path of length >= 1 taken directly or formally
inverted.  Generalized strings are walks whose same-direction junctions
compose into a relation and whose mixed junctions avoid backtracking;
generalized bands are the cyclically closed, degree-balanced strings.
Every GenWalk is one of the two; the trivial walk has no letters.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Path, PresentationError, _vertex_basis, per_presentation

GST = "GST"
GBA = "GBA"


@dataclass(frozen=True, slots=True)
class Letter:
    path: Path
    inverse: bool = False

    @property
    def source(self):
        return self.path.target if self.inverse else self.path.source

    @property
    def target(self):
        return self.path.source if self.inverse else self.path.target

    @property
    def length(self):
        return self.path.length

    @property
    def step(self):
        """The degree increment: +1 for an inverse letter, -1 for a direct one."""
        return 1 if self.inverse else -1

    def inverted(self):
        return Letter(self.path, not self.inverse)

    def sort_key(self):
        return (1 if self.inverse else 0, self.path.length, self.path.arrows)

    def literal(self):
        body = ".".join(self.path.arrows)
        return f"~{body}" if self.inverse else body

    def __repr__(self):
        return f"Letter({self.literal()})"


@dataclass(frozen=True, slots=True)
class GenWalk:
    letters: tuple[Letter, ...]
    kind: str
    mu: tuple[int, ...]
    vertex: str | None = None  # the one node of a walk with no letters

    @property
    def width(self):
        return len(self.letters)

    def node_vertex(self, j):
        """c(j): the vertex at node j (0 <= j <= width)."""
        if j < len(self.letters):
            return self.letters[j].source
        return self.letters[-1].target if self.letters else self.vertex

    def literal(self):
        return " , ".join(l.literal() for l in self.letters)

    def sort_key(self):
        return tuple(l.sort_key() for l in self.letters)

    def __repr__(self):
        return f"GenWalk({self.literal()}, {self.kind})"


def mu_profile(letters):
    mu = [0]
    for l in letters:
        mu.append(mu[-1] + l.step)
    return tuple(mu)


def junction_reason(pres, a, b):
    """Why letters a, b may not sit next to each other; None when legal."""
    if a.target != b.source:
        return f"not composable: t({a.literal()}) != s({b.literal()})"
    pa, pb = a.path, b.path
    if not a.inverse and not b.inverse:
        if not pres.is_relation(pa.arrows[-1], pb.arrows[0]):
            return (f"consecutive direct letters must compose into a relation: "
                    f"{pa.arrows[-1]}.{pb.arrows[0]} is nonzero")
    elif a.inverse and b.inverse:
        if not pres.is_relation(pb.arrows[-1], pa.arrows[0]):
            return (f"consecutive inverse letters must compose into a relation: "
                    f"{pb.arrows[-1]}.{pa.arrows[0]} is nonzero")
    elif not a.inverse and b.inverse:
        if pa.arrows[-1] == pb.arrows[-1]:
            return f"backtracking junction on arrow {pa.arrows[-1]}"
    else:
        if pa.arrows[0] == pb.arrows[0]:
            return f"backtracking junction on arrow {pa.arrows[0]}"
    return None


def classify_walk(pres, letters):
    """Classify a letter sequence as GBA or GST.

    A sequence failing a string axiom raises PresentationError naming the
    walk and its first broken junction, even when it would be fine as a
    plain arrow walk: only the complex-indexing families matter here.
    """
    letters = tuple(letters)
    if not letters:
        raise PresentationError("a generalized walk needs at least one letter")
    # A basis path from the letter's source is a path of the algebra; only
    # a letter that is not one is rebuilt, to raise the reason.
    pos = _vertex_basis(pres)[1] if pres.validated else {}
    for l in letters:
        if l.path.is_trivial():
            raise PresentationError("letters carry paths of length >= 1")
        if l.path.arrows not in pos.get(l.path.source, ()):
            pres.path(l.path.arrows)  # raises if not a path of the algebra
    walk = GenWalk(letters, GST, mu_profile(letters))
    for i, (a, b) in enumerate(zip(letters, letters[1:])):
        reason = junction_reason(pres, a, b)
        if reason is not None:
            raise PresentationError(f"walk {walk.literal()!r} is not a generalized "
                                    f"string: junction {i}: {reason}")
    # the closing junction also checks that the walk returns to its start
    if walk.mu[-1] == 0 and junction_reason(pres, letters[-1], letters[0]) is None:
        return GenWalk(letters, GBA, walk.mu)
    return walk


def trivial_walk(pres, vertex):
    """The walk with no letters at ``vertex``; its string complex is P_vertex."""
    if vertex not in pres.vertices:
        raise PresentationError(f"unknown vertex {vertex!r}")
    return GenWalk((), GST, (0,), vertex)


def _flip(letters):
    """The letters of the inverse walk: reversed, each one inverted."""
    return tuple(l.inverted() for l in reversed(letters))


def inverse_walk(pres, walk):
    if not walk.letters:
        return walk
    return classify_walk(pres, _flip(walk.letters))


def rotate_walk(pres, walk, k):
    if walk.kind != GBA:
        raise PresentationError("only bands rotate")
    n = walk.width
    k %= n
    return classify_walk(pres, walk.letters[k:] + walk.letters[:k])


def mu_minimal_rotation(pres, walk):
    """Rotate a band so its degree profile attains the minimum at node 0."""
    return rotate_walk(pres, walk, walk.mu.index(min(walk.mu)))


def canonical_band(pres, walk):
    """Representative of the rotation + inversion orbit of a band."""
    if walk.kind != GBA:
        raise PresentationError(f"canonical_band needs a generalized band, got {walk.kind}")
    orbit = []
    inv = inverse_walk(pres, walk)
    for base in (walk, inv):
        for k in range(base.width):
            orbit.append(rotate_walk(pres, base, k))
    return min(orbit, key=GenWalk.sort_key)


def _period(letters):
    """The length of the shortest prefix whose repetition spells letters, 0 for none."""
    n = len(letters)
    return next((k for k in range(1, n)
                 if n % k == 0 and letters == letters[:k] * (n // k)), n)


def is_primitive(walk):
    """True unless the letter sequence is a proper power; the trivial walk
    is no power and so primitive."""
    return _period(walk.letters) == walk.width


def shorten_letter(pres, letter, drop):
    """Drop ``drop`` >= 1 arrows from the walk-front of the letter; None when
    no arrow would be left.  An inverse letter is written back to front, so
    its walk-front is the back of its path."""
    arrows = letter.path.arrows
    if drop >= len(arrows):
        return None
    kept = arrows[:-drop] if letter.inverse else arrows[drop:]
    return Letter(pres.path(kept), letter.inverse)


# ---------------------------------------------------------------------------
# glue chains


@dataclass(frozen=True)
class BarDescriptor:
    """The maximal relation chain alpha, a1, a2, ... with consecutive
    products in I.  ``period`` is nonempty exactly when the chain cycles."""

    preperiod: tuple[Letter, ...]
    period: tuple[Letter, ...] = ()

    @property
    def finite(self):
        return not self.period

    def letters(self, count=None):
        """The first ``count`` letters of the chain; a finite chain shorter
        than ``count`` gives all its letters, and so does ``count`` None,
        which a periodic chain refuses."""
        out = list(self.preperiod)
        if count is None:
            if self.period:
                raise PresentationError("periodic chain needs an explicit length")
            return out
        while self.period and len(out) < count:
            out.extend(self.period)
        return out[:count]


@per_presentation
def glue_bar(pres, alpha):
    """The chain alpha, a1, a2, ... with alpha.a1 and ai.a(i+1) relations."""
    if alpha.is_trivial():
        raise PresentationError("glue_bar needs a path of length >= 1")
    chain = [Letter(alpha)]
    seen = {}
    last = alpha.arrows[-1]
    tail = []
    while True:
        nxt = pres.relation_continuation(last)
        if nxt is None:
            return BarDescriptor(tuple(chain + tail))
        if nxt in seen:
            cut = seen[nxt]
            return BarDescriptor(tuple(chain + tail[:cut]), tuple(tail[cut:]))
        seen[nxt] = len(tail)
        tail.append(Letter(pres.arrow_path(nxt)))
        last = nxt


# ---------------------------------------------------------------------------
# enumeration and the band decision


@dataclass(frozen=True)
class LetterGraph:
    """The letter-transition graph on integer positions, which follow
    ``Letter.sort_key``.  ``succ[j]`` lists the letters that may follow
    letter j and ``inv[j]`` is the position of its inverted letter;
    ``components`` are Tarjan's strongly connected components, each after
    every one it reaches; ``longest`` is the arrow total of the longest
    walk, or None when the graph has a cycle."""

    letters: tuple[Letter, ...]
    succ: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    length: tuple[int, ...]
    step: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    longest: int | None


@per_presentation
def letter_graph(pres):
    """The presentation's letter graph."""
    letters = sorted((Letter(p, inverse) for paths in _vertex_basis(pres)[0].values()
                      for p in paths if p.length >= 1 for inverse in (False, True)),
                     key=Letter.sort_key)
    position = {l: j for j, l in enumerate(letters)}
    by_source = {}
    for j, l in enumerate(letters):
        by_source.setdefault(l.source, []).append(j)
    succ = tuple(tuple(k for k in by_source.get(a.target, ())
                       if junction_reason(pres, a, letters[k]) is None) for a in letters)
    length = tuple(l.length for l in letters)
    components = _sccs(succ)
    # Tarjan's order settles each letter's successors before the letter.
    best = [0] * len(letters)
    for comp in components:
        if _cyclic(succ, comp):
            longest = None
            break
        j = comp[0]
        best[j] = length[j] + max((best[k] for k in succ[j]), default=0)
    else:
        longest = max(best, default=0)
    return LetterGraph(
        tuple(letters), succ, tuple(position[l.inverted()] for l in letters),
        length, tuple(l.step for l in letters), components, longest)


def _cyclic(succ, comp):
    """True when the component carries a cycle."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


@dataclass(frozen=True)
class Enumeration:
    walks: tuple[GenWalk, ...]
    complete: bool


def _prefixes(graph, max_arrows, bands=False):
    """Every letter sequence along the letter graph with arrow total
    <= max_arrows, in increasing key order (a prefix before its extensions).

    Yields (key, back, mu, closed) on letter positions: the walk's
    positions, those of its inverse walk, its degree profile, and whether
    it closes into a band (mu returns to 0 and the last letter may precede
    the first).  Each is extended by one letter per step, so no prefix is
    rebuilt or classified again; the graph already checked every junction.
    The roots and the ascending ``succ`` lists go on an explicit stack
    reversed, so its depth-first pre-order is that key order.  Equal
    degree profiles are one tuple per call, shared by the walks kept.

    With ``bands`` set, only prefixes that can still grow into a band
    ``_least_in_orbit`` keeps are yielded.  A prefix is dropped, with its
    extensions, when it breaks one of three conditions, which every
    extension then breaks too:

    - a position below ``key[0]``: the rotation starting there is smaller;
    - an inverse position ``inv[j]`` below ``key[0]``: the rotation of the
      inverse walk starting there is smaller (so a root needs inv[j] > j);
    - ``|mu[-1]|`` above the arrows left: each letter moves mu by exactly
      one and costs at least one arrow, so mu can no longer return to 0.
    """
    if max_arrows < 0:
        raise PresentationError(f"max_arrows must be >= 0, got {max_arrows}")
    succ, inv, length, step = graph.succ, graph.inv, graph.length, graph.step
    profiles = {}
    stack = [((j,), (inv[j],), length[j], profiles.setdefault((0, step[j]), (0, step[j])))
             for j in reversed(range(len(succ)))
             if length[j] <= max_arrows and not (bands and inv[j] < j)]
    while stack:
        key, back, used, mu = stack.pop()
        yield key, back, mu, mu[-1] == 0 and key[0] in succ[key[-1]]
        for j in reversed(succ[key[-1]]):
            total = used + length[j]
            if total > max_arrows:
                continue
            deg = mu[-1] + step[j]
            if bands and (j < key[0] or inv[j] < key[0] or abs(deg) > max_arrows - total):
                continue
            grown = mu + (deg,)
            stack.append((key + (j,), (inv[j],) + back, total, profiles.setdefault(grown, grown)))


def _least_in_orbit(key, back):
    """True when key is not above any rotation of itself or of back."""
    return all(key <= w[k:] + w[:k] for w in (key, back) for k in range(len(key)))


def _enumeration(pres, max_arrows, keep, bands=False):
    """The prefixes that ``keep(key, back, closed)`` accepts, as walks in
    sort-key order; complete when the letter graph is acyclic and its
    longest walk fits the bound.  ``bands`` prunes ``_prefixes`` to band
    candidates.

    Positions follow ``Letter.sort_key``, so the key order in which
    ``_prefixes`` walks is the order of ``GenWalk.sort_key``.
    """
    graph = letter_graph(pres)
    walks = tuple(GenWalk(tuple(graph.letters[j] for j in key), GBA if closed else GST, mu)
                  for key, back, mu, closed in _prefixes(graph, max_arrows, bands)
                  if keep(key, back, closed))
    return Enumeration(walks, graph.longest is not None and graph.longest <= max_arrows)


def enumerate_gst(pres, max_arrows):
    """Every canonical generalized string with arrow total <= max_arrows.

    The transition graph is closed under inversion, so each {w, w^-1} is
    reached once in each orientation and emitted once, in the orientation
    that is least under ``GenWalk.sort_key``.  The completeness flag is exact: it is
    set when the letter-transition graph is acyclic and the longest
    possible walk fits the bound.
    """
    return _enumeration(pres, max_arrows, lambda key, back, closed: key <= back)


def enumerate_gba(pres, max_arrows):
    """Primitive canonical generalized bands with arrow total <= max_arrows.

    Every rotation of a band, and of its inverse, is itself a prefix, so
    each orbit is emitted once, at the rotation ``canonical_band`` picks.
    Only prefixes that can still become that rotation are grown: its
    positions and inverse positions are all at least its first one, or a
    rotation of it or of its inverse is smaller, and |mu| stays within the
    arrows left, as each letter moves mu by one and costs an arrow.  A
    prefix breaking one condition breaks it in every extension, so the
    pruning is exact (see ``_prefixes``).
    """
    return _enumeration(pres, max_arrows,
                        lambda key, back, closed: (closed and _period(key) == len(key)
                                                   and _least_in_orbit(key, back)),
                        bands=True)


def longest_walk_arrows(pres):
    """Arrow total of the longest generalized walk, or None when unbounded
    (the letter-transition graph has a cycle)."""
    return letter_graph(pres).longest


@dataclass(frozen=True)
class DiscretenessReport:
    discrete: bool
    band: GenWalk | None
    components: tuple[dict, ...]

    def to_json(self):
        return {
            "derived_discrete": self.discrete,
            "band_witness": self.band.literal() if self.band else None,
            "components": list(self.components),
        }


def is_derived_discrete(pres):
    """Exact band-existence decision on the letter-transition graph.

    A band is a zero-weight closed walk, weighted by the letter steps; one
    exists in a strongly connected component exactly when the component
    has a zero-weight cycle or cycles of both signs.
    """
    graph = letter_graph(pres)
    comp_summaries = []
    witness = None
    for comp in sorted(graph.components, key=min):
        if not _cyclic(graph.succ, comp):
            continue
        members = set(comp)
        internal = {n: [m for m in graph.succ[n] if m in members] for n in comp}
        neg = _cycle_with_sign(comp, internal, graph.step, want_nonpositive=True)
        pos = _cycle_with_sign(comp, internal, graph.step, want_nonpositive=False)
        comp_summaries.append({
            "size": len(comp),
            "has_nonpositive_cycle": neg is not None,
            "has_nonnegative_cycle": pos is not None,
        })
        if neg is not None and pos is not None and witness is None:
            witness = _zero_weight_band(pres, graph, internal, neg, pos)
    return DiscretenessReport(witness is None, witness, tuple(comp_summaries))


def _sccs(succ):
    """Tarjan, iterative, on positions 0..len(succ)-1: each component is
    listed after every component it reaches."""
    index, low, on_stack = {}, [0] * len(succ), [False] * len(succ)
    stack, out = [], []

    def enter(j):
        index[j] = low[j] = len(index)
        stack.append(j)
        on_stack[j] = True
        return j, iter(succ[j])

    for root in range(len(succ)):
        if root in index:
            continue
        work = [enter(root)]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    work.append(enter(nxt))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while not comp or comp[-1] != node:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = False
                    out.append(tuple(comp))
    return tuple(out)


def _cycle_with_sign(comp, edges, weight, want_nonpositive):
    """A cycle with weight <= 0 (resp. >= 0) inside one SCC, or None.

    Scaled Bellman-Ford: with W(e) = n*w(e) - 1 a negative W-cycle is
    exactly a cycle of original weight <= 0 (cycle length <= n).  It stops
    at the first round that relaxes nothing.
    """
    n = len(comp)
    sign = 1 if want_nonpositive else -1
    scaled = [(u, v, n * sign * weight[v] - 1) for u in comp for v in edges[u]]
    dist = dict.fromkeys(comp, 0)
    pred = dict.fromkeys(comp)
    for _ in range(n):
        x = None
        for u, v, w in scaled:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = u
                x = v
        if x is None:
            return None
    for _ in range(n):
        x = pred[x]
    cycle = [x]
    v = pred[x]
    while v != x:
        cycle.append(v)
        v = pred[v]
    cycle.reverse()
    return cycle


def _zero_weight_band(pres, graph, edges, neg_cycle, pos_cycle):
    """Compose cycles of opposite sign into a zero-weight closed walk.

    Based at the positive cycle: a laps of it, then w_pos blocks of
    (path over, b laps of the negative cycle, path back); a and b are
    chosen so the total weight cancels exactly.
    """
    weight = graph.step
    w_neg = sum(weight[j] for j in neg_cycle)
    w_pos = sum(weight[j] for j in pos_cycle)
    if w_neg == 0:
        word = neg_cycle
    elif w_pos == 0:
        word = pos_cycle
    else:
        there = _bfs_path(edges, pos_cycle[0], neg_cycle[0])
        back = _bfs_path(edges, neg_cycle[0], pos_cycle[0])
        b = 1
        while True:
            block = there[:-1] + b * neg_cycle + back[:-1]
            block_weight = sum(weight[j] for j in block)
            if block_weight < 0:
                break
            b += 1
        word = (-block_weight) * pos_cycle + w_pos * block
    walk = classify_walk(pres, tuple(graph.letters[j] for j in word))
    if walk.kind != GBA:
        raise PresentationError("band witness construction failed")
    root = classify_walk(pres, walk.letters[:_period(walk.letters)])
    return canonical_band(pres, root)


def _bfs_path(edges, start, goal):
    if start == goal:
        return [start]
    prev = {start: None}
    todo = [start]
    while todo:
        fresh = []
        for u in todo:
            for v in edges[u]:
                if v not in prev:
                    prev[v] = u
                    if v == goal:
                        path = [v]
                        while path[-1] != start:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    fresh.append(v)
        todo = fresh
    raise PresentationError("no path inside a strongly connected component")


# ---------------------------------------------------------------------------
# walk literals


def parse_walk(pres, literal):
    """Parse 'a1 , ~a2.a3' style walk literals."""
    chunks = [c.strip() for c in literal.split(",")]
    letters = []
    for chunk in chunks:
        inverse = chunk.startswith("~")
        body = chunk[1:] if inverse else chunk
        if not body.strip():
            raise PresentationError(f"empty letter in walk literal {literal!r}")
        names = [n.strip() for n in body.split(".")]
        if not all(names):
            raise PresentationError(f"empty arrow name in walk literal {literal!r}")
        letters.append(Letter(pres.path(names), inverse))
    return classify_walk(pres, letters)
