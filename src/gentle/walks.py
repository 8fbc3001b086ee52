"""Letters, generalized walks, their classification and enumeration.

A letter is a nonzero path of length >= 1 taken directly or formally
inverted.  Generalized strings are walks whose same-direction junctions
compose into a relation and whose mixed junctions avoid backtracking;
generalized bands are the cyclically closed, degree-balanced strings.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import Path, PresentationError

GST = "GST"
GBA = "GBA"
STRING = "STRING"
WALK = "WALK"
INVALID = "INVALID"


@dataclass(frozen=True)
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

    def inverted(self):
        return Letter(self.path, not self.inverse)

    def sort_key(self):
        return (1 if self.inverse else 0, self.path.length, self.path.arrows)

    def literal(self):
        body = ".".join(self.path.arrows)
        return f"~{body}" if self.inverse else body

    def __repr__(self):
        return f"Letter({self.literal()})"


@dataclass(frozen=True)
class GenWalk:
    letters: tuple[Letter, ...]
    kind: str
    mu: tuple[int, ...]
    reason: str = ""

    @property
    def width(self):
        return len(self.letters)

    @property
    def arrow_total(self):
        return sum(l.length for l in self.letters)

    def node_vertex(self, j):
        """c(j): the vertex at node j (0 <= j <= width)."""
        if j < len(self.letters):
            return self.letters[j].source
        return self.letters[-1].target

    def literal(self):
        return " , ".join(l.literal() for l in self.letters)

    def sort_key(self):
        return tuple(l.sort_key() for l in self.letters)

    def __repr__(self):
        return f"GenWalk({self.literal()}, {self.kind})"


def mu_profile(letters):
    mu = [0]
    for l in letters:
        mu.append(mu[-1] + (1 if l.inverse else -1))
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
    """Classify a letter sequence as GBA, GST, or INVALID(reason).

    Walks failing a string/band axiom report INVALID with the first broken
    condition, even when they would be fine as plain arrow walks: only the
    complex-indexing families matter here.
    """
    letters = tuple(letters)
    if not letters:
        raise PresentationError("a generalized walk needs at least one letter")
    for l in letters:
        if l.path.is_trivial():
            raise PresentationError("letters carry paths of length >= 1")
        pres.path(l.path.arrows)  # raises if not a path of the algebra
    mu = mu_profile(letters)
    for i, (a, b) in enumerate(zip(letters, letters[1:])):
        reason = junction_reason(pres, a, b)
        if reason is not None:
            return GenWalk(letters, INVALID, mu, f"junction {i}: {reason}")
    if letters[0].source == letters[-1].target and mu[-1] == 0:
        wrap = junction_reason(pres, letters[-1], letters[0])
        if wrap is None:
            return GenWalk(letters, GBA, mu)
    return GenWalk(letters, GST, mu)


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


def inverse_walk(pres, walk):
    return classify_walk(pres, [l.inverted() for l in reversed(walk.letters)])


def rotate_walk(pres, walk, k):
    if walk.kind != GBA:
        raise PresentationError("only bands rotate")
    n = walk.width
    k %= n
    return classify_walk(pres, walk.letters[k:] + walk.letters[:k])


def canonical_string(pres, walk):
    """Representative of {w, w^-1} under the fixed letter order."""
    if walk.kind not in (GST, GBA):
        raise PresentationError(f"canonical_string needs a generalized string, got {walk.kind}")
    inv = inverse_walk(pres, walk)
    return min(walk, inv, key=GenWalk.sort_key)


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
    """The length of the shortest prefix whose repetition spells letters."""
    n = len(letters)
    return next(k for k in range(1, n + 1)
                if n % k == 0 and letters == letters[:k] * (n // k))


def is_primitive(walk):
    """True unless the letter sequence is a proper power."""
    return _period(walk.letters) == walk.width


def truncate_first(pres, walk, j):
    """Drop the first j arrows of the first letter (the whole letter at j = length)."""
    return _truncate(pres, walk, j, first=True)


def truncate_last(pres, walk, j):
    """Drop the last j arrows of the last letter."""
    return _truncate(pres, walk, j, first=False)


def _truncate(pres, walk, j, first):
    if j == 0:
        return walk
    letters = list(walk.letters)
    letter = letters[0] if first else letters[-1]
    if j > letter.length:
        raise PresentationError("cannot truncate past one letter")
    if j == letter.length:
        rest = letters[1:] if first else letters[:-1]
        if not rest:
            raise PresentationError("truncation emptied the walk")
        return classify_walk(pres, rest)
    arrows = letter.path.arrows
    # An inverse letter is written back to front, so the walk-front of the
    # letter is the back of its underlying path.
    if first == letter.inverse:
        kept = arrows[:-j]
    else:
        kept = arrows[j:]
    new_letter = Letter(pres.path(kept), letter.inverse)
    if first:
        letters[0] = new_letter
    else:
        letters[-1] = new_letter
    return classify_walk(pres, letters)


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
        """The first ``count`` letters of the chain (all of them if finite)."""
        if self.finite:
            return list(self.preperiod)
        if count is None:
            raise PresentationError("periodic chain needs an explicit length")
        out = list(self.preperiod)
        while len(out) < count:
            out.extend(self.period)
        return out[:count]


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
        arrow = pres.arrow(nxt)
        tail.append(Letter(Path(arrow.source, arrow.target, (nxt,))))
        last = nxt


# ---------------------------------------------------------------------------
# enumeration and the band decision


def letter_universe(pres):
    from .core import path_basis
    letters = []
    for p in path_basis(pres):
        if p.length >= 1:
            letters.append(Letter(p, False))
            letters.append(Letter(p, True))
    letters.sort(key=Letter.sort_key)
    return letters


def transition_edges(pres, letters=None):
    """Gst-legal adjacency among letters, weighted by the head letter's
    degree increment (+1 inverse, -1 direct)."""
    if letters is None:
        letters = letter_universe(pres)
    by_source = {}
    for l in letters:
        by_source.setdefault(l.source, []).append(l)
    edges = {l: [] for l in letters}
    for a in letters:
        for b in by_source.get(a.target, []):
            if junction_reason(pres, a, b) is None:
                edges[a].append(b)
    return edges


@dataclass(frozen=True)
class Enumeration:
    walks: tuple[GenWalk, ...]
    complete: bool
    max_arrows: int


def _letter_graph(pres):
    letters = letter_universe(pres)
    return letters, transition_edges(pres, letters)


def _prefixes(letters, edges, max_arrows):
    """Every letter sequence along the transition graph with arrow total
    <= max_arrows, walked with an explicit stack."""
    if max_arrows < 0:
        raise PresentationError(f"max_arrows must be >= 0, got {max_arrows}")
    stack = [((start,), start.length) for start in letters if start.length <= max_arrows]
    while stack:
        prefix, used = stack.pop()
        yield prefix
        for nxt in edges[prefix[-1]]:
            if used + nxt.length <= max_arrows:
                stack.append((prefix + (nxt,), used + nxt.length))


def _enumeration(found, letters, edges, max_arrows):
    """The found walks in order; complete when the letter-transition graph
    is acyclic and its longest walk fits the bound."""
    longest = _longest_walk(letters, edges)
    return Enumeration(tuple(sorted(found.values(), key=GenWalk.sort_key)),
                       longest is not None and longest <= max_arrows, max_arrows)


def enumerate_gst(pres, max_arrows):
    """Every canonical generalized string with arrow total <= max_arrows.

    The completeness flag is exact: it is set when the letter-transition
    graph is acyclic and the longest possible walk fits the bound.
    """
    letters, edges = _letter_graph(pres)
    found = {}
    for prefix in _prefixes(letters, edges, max_arrows):
        canon = canonical_string(pres, classify_walk(pres, prefix))
        found.setdefault(canon.sort_key(), canon)
    return _enumeration(found, letters, edges, max_arrows)


def enumerate_gba(pres, max_arrows):
    """Primitive canonical generalized bands with arrow total <= max_arrows."""
    letters, edges = _letter_graph(pres)
    found = {}
    for prefix in _prefixes(letters, edges, max_arrows):
        if (prefix[-1].target == prefix[0].source
                and sum(+1 if l.inverse else -1 for l in prefix) == 0
                and junction_reason(pres, prefix[-1], prefix[0]) is None):
            walk = classify_walk(pres, prefix)
            if walk.kind == GBA and is_primitive(walk):
                canon = canonical_band(pres, walk)
                found.setdefault(canon.sort_key(), canon)
    return _enumeration(found, letters, edges, max_arrows)


def longest_walk_arrows(pres):
    """Arrow total of the longest generalized walk, or None when unbounded
    (the letter-transition graph has a cycle)."""
    return _longest_walk(*_letter_graph(pres))


def _longest_walk(letters, edges):
    order = _topological_order(letters, edges)
    if order is None:
        return None
    best = {}
    for l in reversed(order):
        best[l] = l.length + max((best[n] for n in edges[l]), default=0)
    return max(best.values(), default=0)


def _topological_order(nodes, edges):
    indeg = {n: 0 for n in nodes}
    for n in nodes:
        for m in edges[n]:
            indeg[m] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in edges[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(nodes):
        return None
    return order


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

    A band is a zero-weight closed walk; one exists in a strongly connected
    component exactly when the component has a zero-weight cycle or cycles
    of both signs.
    """
    letters, edges = _letter_graph(pres)
    weight = {l: (+1 if l.inverse else -1) for l in letters}
    comp_summaries = []
    witness = None
    for comp in _sccs(letters, edges):
        comp_set = set(comp)
        internal = {n: [m for m in edges[n] if m in comp_set] for n in comp}
        if len(comp) == 1 and comp[0] not in internal[comp[0]]:
            continue
        neg = _cycle_with_sign(comp, internal, weight, want_nonpositive=True)
        pos = _cycle_with_sign(comp, internal, weight, want_nonpositive=False)
        summary = {
            "size": len(comp),
            "has_nonpositive_cycle": neg is not None,
            "has_nonnegative_cycle": pos is not None,
        }
        comp_summaries.append(summary)
        if neg is not None and pos is not None and witness is None:
            witness = _zero_weight_band(pres, internal, weight, neg, pos)
    return DiscretenessReport(witness is None, witness, tuple(comp_summaries))


def _sccs(nodes, edges):
    """Tarjan, iterative; components in deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        comp.append(x)
                        if x is node:
                            break
                    out.append(comp)
    out.sort(key=lambda comp: min(l.sort_key() for l in comp))
    return out


def _cycle_with_sign(comp, edges, weight, want_nonpositive):
    """A cycle with weight <= 0 (resp. >= 0) inside one SCC, or None.

    Scaled Bellman-Ford: with W(e) = n*w(e) - 1 a negative W-cycle is
    exactly a cycle of original weight <= 0 (cycle length <= n).
    """
    n = len(comp)
    sign = 1 if want_nonpositive else -1
    scaled = {}
    for u in comp:
        for v in edges[u]:
            scaled[(u, v)] = n * sign * weight[v] - 1
    dist = dict.fromkeys(comp, 0)
    pred = dict.fromkeys(comp, None)
    x = None
    for _ in range(n):
        x = None
        for (u, v), w in scaled.items():
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


def _zero_weight_band(pres, edges, weight, neg_cycle, pos_cycle):
    """Compose cycles of opposite sign into a zero-weight closed walk.

    Based at the positive cycle: a laps of it, then w_pos blocks of
    (path over, b laps of the negative cycle, path back); a and b are
    chosen so the total weight cancels exactly.
    """
    w_neg = sum(weight[l] for l in neg_cycle)
    w_pos = sum(weight[l] for l in pos_cycle)
    if w_neg == 0:
        word = list(neg_cycle)
    elif w_pos == 0:
        word = list(pos_cycle)
    else:
        there = _bfs_path(edges, pos_cycle[0], neg_cycle[0])
        back = _bfs_path(edges, neg_cycle[0], pos_cycle[0])
        b = 1
        while True:
            block = there[:-1] + b * neg_cycle + back[:-1]
            block_weight = sum(weight[l] for l in block)
            if block_weight < 0:
                break
            b += 1
        word = (-block_weight) * pos_cycle + w_pos * block
    walk = classify_walk(pres, tuple(word))
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
                        while path[-1] is not start:
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
        if not chunk:
            raise PresentationError(f"empty letter in walk literal {literal!r}")
        inverse = chunk.startswith("~")
        body = chunk[1:] if inverse else chunk
        names = [n.strip() for n in body.split(".") if n.strip()]
        if not names:
            raise PresentationError(f"empty letter in walk literal {literal!r}")
        letters.append(Letter(pres.path(names), inverse))
    return classify_walk(pres, letters)
