"""Gentle presentations kQ/I and their path combinatorics.

A presentation is a finite quiver together with a set of length-two monomial
relations.  After validation the four gentleness axioms hold and the algebra
is finite-dimensional, so the relation-free paths (including one trivial path
per vertex) form a basis of kQ/I.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import wraps


class PresentationError(ValueError):
    """Structural problem in a presentation source or query."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotComposable(ValueError):
    """Raised when two paths cannot be concatenated at all."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True, slots=True)
class Path:
    """A relation-free path, written left to right.

    ``arrows`` is empty exactly for the trivial path at ``source``.
    """

    source: str
    target: str
    arrows: tuple[str, ...] = ()

    @property
    def length(self):
        return len(self.arrows)

    def is_trivial(self):
        return not self.arrows

    def label(self):
        return ".".join(self.arrows) if self.arrows else f"e_{self.source}"

    def __repr__(self):
        return f"Path({self.label()})"


@dataclass(frozen=True)
class Violation:
    axiom: str
    message: str
    items: tuple[str, ...] = ()


@dataclass(frozen=True)
class GentleReport:
    ok: bool
    violations: tuple[Violation, ...] = ()
    connected: bool = True

    def to_json(self):
        return {
            "pass": self.ok,
            "connected": self.connected,
            "violations": [
                {"axiom": v.axiom, "message": v.message, "items": list(v.items)}
                for v in self.violations
            ],
        }


@dataclass
class Presentation:
    """A quiver with length-two monomial relations.

    The fields are the inputs; lookup tables derived from them are built
    here, and the ``_memo`` of :func:`per_presentation` starts empty.  The
    successor table ``_after`` (``_before``) lists each arrow's relation and
    relation-free successors (predecessors), in arrow order.
    ``validated`` is set by :func:`validate_gentle` and gates the
    operations that rely on gentleness (unique continuations, finite path
    basis).
    """

    name: str
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: frozenset[tuple[str, str]]
    validated: bool = False

    def __post_init__(self):
        self._memo = defaultdict(dict)
        self._arrow_by_name = {a.name: a for a in self.arrows}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._out[a.source].append(a)
            self._in[a.target].append(a)
        # Each entry is indexed by False for relation, True for relation-free.
        self._after = {a.name: ([], []) for a in self.arrows}
        self._before = {a.name: ([], []) for a in self.arrows}
        for a in self.arrows:
            for b in self._out[a.target]:
                free = (a.name, b.name) not in self.relations
                self._after[a.name][free].append(b.name)
                self._before[b.name][free].append(a.name)

    def arrow(self, name):
        try:
            return self._arrow_by_name[name]
        except KeyError:
            raise PresentationError(f"unknown arrow {name!r}") from None

    def out_arrows(self, v):
        if v not in self._out:
            raise PresentationError(f"unknown vertex {v!r}")
        return list(self._out[v])

    def in_arrows(self, v):
        if v not in self._in:
            raise PresentationError(f"unknown vertex {v!r}")
        return list(self._in[v])

    def is_relation(self, a, b):
        return (a, b) in self.relations

    def arrow_path(self, name):
        """The path of the single arrow ``name``."""
        a = self.arrow(name)
        return Path(a.source, a.target, (name,))

    def trivial_path(self, v):
        if v not in self._out:
            raise PresentationError(f"unknown vertex {v!r}")
        return Path(v, v)

    def path(self, arrow_names):
        """Build a Path from arrow names, checking composability and relations."""
        names = tuple(arrow_names)
        if not names:
            raise PresentationError("a nontrivial path needs at least one arrow")
        arrows = [self.arrow(n) for n in names]
        for x, y in zip(arrows, arrows[1:]):
            if x.target != y.source:
                raise PresentationError(f"arrows {x.name} and {y.name} do not compose")
            if self.is_relation(x.name, y.name):
                raise PresentationError(f"path hits the relation {x.name}.{y.name}")
        return Path(arrows[0].source, arrows[-1].target, names)

    # Unique continuations (meaningful once gentle axioms hold).

    def relation_continuation(self, arrow_name):
        """The arrow g with (arrow, g) a relation, or None."""
        return self._continuation(arrow_name, False)

    def free_continuation(self, arrow_name):
        """The arrow g with (arrow, g) composable and not a relation, or None."""
        return self._continuation(arrow_name, True)

    def _continuation(self, arrow_name, free):
        """The first hit in out-arrow order; gentleness makes it the only one."""
        try:
            hits = self._after[arrow_name][free]
        except KeyError:
            raise PresentationError(f"unknown arrow {arrow_name!r}") from None
        return hits[0] if hits else None


def parse_presentation(text):
    """Parse the line-oriented presentation DSL.

    Directives: ``algebra NAME``, ``vertices V1 V2 ...``,
    ``arrow NAME : V -> W``, ``rel A B``.  ``#`` starts a comment.
    Gentleness is *not* checked here; see :func:`validate_gentle`.
    """
    name = "algebra"
    vertices: list[str] = []
    arrow_list: list[Arrow] = []
    relations: list[tuple[str, str]] = []
    seen_vertices = set()
    seen_arrows = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "algebra":
            if len(rest) != 1:
                raise PresentationError("algebra takes exactly one name", lineno)
            name = rest[0]
        elif head == "vertices":
            if not rest:
                raise PresentationError("vertices needs at least one id", lineno)
            for v in rest:
                if v in seen_vertices:
                    raise PresentationError(f"duplicate vertex {v!r}", lineno)
                seen_vertices.add(v)
                vertices.append(v)
        elif head == "arrow":
            # arrow NAME : V -> W
            if len(rest) != 5 or rest[1] != ":" or rest[3] != "->":
                raise PresentationError("expected 'arrow NAME : V -> W'", lineno)
            aname, src, tgt = rest[0], rest[2], rest[4]
            if aname in seen_arrows:
                raise PresentationError(f"duplicate arrow {aname!r}", lineno)
            if any(c in aname for c in ".,~"):
                raise PresentationError(f"arrow name {aname!r} contains '.', ',' or '~'", lineno)
            if src not in seen_vertices:
                raise PresentationError(f"unknown vertex {src!r}", lineno)
            if tgt not in seen_vertices:
                raise PresentationError(f"unknown vertex {tgt!r}", lineno)
            seen_arrows[aname] = Arrow(aname, src, tgt)
            arrow_list.append(seen_arrows[aname])
        elif head == "rel":
            if len(rest) != 2:
                raise PresentationError("expected 'rel A B'", lineno)
            a, b = rest
            if a not in seen_arrows:
                raise PresentationError(f"unknown arrow {a!r}", lineno)
            if b not in seen_arrows:
                raise PresentationError(f"unknown arrow {b!r}", lineno)
            if seen_arrows[a].target != seen_arrows[b].source:
                raise PresentationError(
                    f"relation {a} {b} is not composable "
                    f"(t({a}) = {seen_arrows[a].target}, s({b}) = {seen_arrows[b].source})",
                    lineno,
                )
            if (a, b) in relations:
                raise PresentationError(f"duplicate relation {a} {b}", lineno)
            relations.append((a, b))
        else:
            raise PresentationError(f"unknown directive {head!r}", lineno)

    if not vertices:
        raise PresentationError("the presentation declares no vertices")
    return Presentation(name, tuple(vertices), tuple(arrow_list), frozenset(relations))


def validate_gentle(pres):
    """Check the four gentleness axioms plus finite-dimensionality.

    Violations are returned as data; the report also notes whether the
    underlying graph is connected (informational, never a failure).
    """
    violations = []

    for v in pres.vertices:
        outs = pres.out_arrows(v)
        ins = pres.in_arrows(v)
        if len(outs) > 2:
            violations.append(Violation(
                "axiom-1", f"vertex {v} has {len(outs)} outgoing arrows (max 2)",
                tuple(a.name for a in outs)))
        if len(ins) > 2:
            violations.append(Violation(
                "axiom-1", f"vertex {v} has {len(ins)} incoming arrows (max 2)",
                tuple(a.name for a in ins)))

    for a in pres.arrows:
        for free, axiom, kind in ((False, "axiom-2", "relation"), (True, "axiom-3", "relation-free")):
            for table, side in ((pres._after, "continuations"), (pres._before, "predecessors")):
                hits = table[a.name][free]
                if len(hits) > 1:
                    violations.append(Violation(
                        axiom, f"arrow {a.name} has several {kind} {side}", tuple(hits)))

    # Axiom 4 (relations are length-two monomials) is structural: the parser
    # only admits composable arrow pairs.  Finite dimension = no relation-free
    # oriented cycle in the arrow-composition graph.
    cycle = _relation_free_cycle(pres)
    if cycle:
        violations.append(Violation(
            "finite-dimension", "relation-free oriented cycle", tuple(cycle)))

    report = GentleReport(not violations, tuple(violations), _is_connected(pres))
    pres.validated = report.ok
    return report


def _relation_free_cycle(pres):
    """A cycle in the graph (arrows as nodes, edges = allowed compositions)."""
    color = dict.fromkeys(pres._after, 0)  # 0 new, 1 active, 2 done
    for root in pres._after:
        if color[root]:
            continue
        stack = [(root, iter(pres._after[root][True]))]
        color[root] = 1
        trail = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return trail[trail.index(nxt):]
                if color[nxt] == 0:
                    color[nxt] = 1
                    trail.append(nxt)
                    stack.append((nxt, iter(pres._after[nxt][True])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                trail.pop()
                stack.pop()
    return None


def _is_connected(pres):
    if not pres.vertices:
        return True
    seen = {pres.vertices[0]}
    todo = [pres.vertices[0]]
    while todo:
        v = todo.pop()
        for a in pres._out[v] + pres._in[v]:
            for w in (a.source, a.target):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(seen) == len(pres.vertices)


_MISSING = object()


def per_presentation(build):
    """Run ``build(pres, *key)`` once per presentation and key.

    The result is kept in the presentation's ``_memo`` under the builder
    and the key, so every later call returns the same object; a build that
    raises stores nothing."""

    @wraps(build)
    def cached(pres, *key):
        memo = pres._memo[build]
        value = memo.get(key, _MISSING)  # no KeyError raised: misses stay cheap
        if value is _MISSING:
            value = memo[key] = build(pres, *key)
        return value

    return cached


def _require_validated(pres):
    if not pres.validated:
        raise PresentationError(
            f"presentation {pres.name!r} must pass validate_gentle first")


def path_basis(pres):
    """All relation-free paths of kQ/I, in a fixed deterministic order.

    Ordered by source vertex, then length, then the arrow name sequence;
    contains one trivial path per vertex and is closed under subpaths.
    """
    _require_validated(pres)
    out = [pres.trivial_path(v) for v in pres.vertices]
    frontier = [pres.arrow_path(a.name) for a in pres.arrows]
    while frontier:
        out.extend(frontier)
        fresh = []
        for p in frontier:
            nxt = pres.free_continuation(p.arrows[-1])
            if nxt is not None:
                fresh.append(Path(p.source, pres.arrow(nxt).target, p.arrows + (nxt,)))
        frontier = fresh
    out.sort(key=lambda p: (p.source, p.length, p.arrows))
    return out


@per_presentation
def _vertex_basis(pres):
    """(basis, pos): the path basis grouped by source vertex in path_basis
    order, and each path's position in its group keyed by its arrows."""
    basis = {v: [] for v in pres.vertices}
    for p in path_basis(pres):
        basis[p.source].append(p)
    pos = {v: {p.arrows: k for k, p in enumerate(ps)} for v, ps in basis.items()}
    return basis, pos


def compose(pres, p, q):
    """Concatenation in kQ/I: a Path, or None when the product is zero."""
    if p.target != q.source:
        raise NotComposable(f"t({p.label()}) = {p.target} != s({q.label()}) = {q.source}")
    if p.is_trivial():
        return q
    if q.is_trivial():
        return p
    if pres.is_relation(p.arrows[-1], q.arrows[0]):
        return None
    return Path(p.source, q.target, p.arrows + q.arrows)


@per_presentation
def left_action(pres, path):
    """Left multiplication by ``path`` on the path basis: a (k, position)
    pair for each basis path u of P_t(path) with path.u nonzero, k indexing
    u and position the product among the basis paths from s(path), both in
    path_basis order."""
    basis, pos = _vertex_basis(pres)
    images = pos[path.source]
    return tuple((k, images[image.arrows])
                 for k, u in enumerate(basis[path.target])
                 if (image := compose(pres, path, u)) is not None)


@per_presentation
def maximal_path(pres, arrow_name):
    """The longest relation-free path starting with the arrow ``arrow_name``."""
    _require_validated(pres)
    names = [arrow_name]
    while (nxt := pres.free_continuation(names[-1])) is not None:
        names.append(nxt)
    return pres.path(names)


@per_presentation
def other_maximal_path(pres, arrow_name):
    """The maximal path from the other arrow out of the source of the arrow
    ``arrow_name``, or None: the check path of every path starting with
    that arrow."""
    _require_validated(pres)
    others = [a for a in pres.out_arrows(pres.arrow(arrow_name).source)
              if a.name != arrow_name]
    return maximal_path(pres, others[0].name) if others else None


def dim_projective(pres, v):
    """dim e_v(kQ/I): the number of basis paths with source v."""
    _require_validated(pres)
    return 1 + sum(maximal_path(pres, a.name).length for a in pres.out_arrows(v))
