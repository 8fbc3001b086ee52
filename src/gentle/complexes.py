"""Complexes of projectives attached to generalized strings and bands.

Node j of a walk sits in degree mu(j) and contributes the projective at the
node's vertex; each letter yields one differential entry, left multiplication
by its underlying path.  Strings and bands share one layout: a band's
closing letter returns to node 0, every node is repeated d times, and the
closing letter is twisted by an upper triangular Jordan block with
eigenvalue lambda, written entry by entry.  Scalars are exact rationals
throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import NotComposable, PresentationError, _vertex_basis, left_action
from .walks import GBA, is_primitive, mu_minimal_rotation

_ONE = Fraction(1)


@dataclass(frozen=True)
class Summand:
    """One indecomposable projective slot: vertex plus (node, copy) tag."""

    vertex: str
    node: int
    copy: int = 0


@dataclass(frozen=True)
class ProjComplex:
    """Bounded complex of projectives with sparse path-scalar differentials.

    ``summands`` maps degree -> tuple of Summand; ``diffs`` maps degree i ->
    {(row, col): ((path, scalar), ...)} where row indexes a degree-i summand
    and col a degree-(i+1) summand; the entry means "scalar times left
    multiplication by path".
    """

    summands: dict
    diffs: dict
    origin: str = ""

    def degrees(self):
        return sorted(self.summands)

    def summand_count(self):
        return sum(len(v) for v in self.summands.values())

    def is_zero(self):
        return not self.summands


def _walk_complex(walk, nodes, lam, d, origin):
    """Lay out ``nodes`` nodes of the walk, d copies each, in degree mu(j),
    and write one entry per copy for each letter: inverse letters map
    forward along the walk, direct letters backward.  A band's closing letter
    returns to node 0 and carries lam on the diagonal and 1 on the
    superdiagonal; every other letter carries the identity.

    d.d = 0 is not checked here: ``classify_walk`` has already required
    every same-direction junction to compose into a relation, and
    ``cohomology_dims`` checks d.d = 0 on the rows it ranks."""
    mu = walk.mu
    summands = {}
    first = []
    for j in range(nodes):
        slot = summands.setdefault(mu[j], [])
        first.append(len(slot))
        vertex = walk.node_vertex(j)
        for copy in range(d):
            slot.append(Summand(vertex, j, copy))
    diffs = {}
    for j, letter in enumerate(walk.letters, start=1):
        src, dst = (j - 1, j) if letter.inverse else (j, j - 1)
        deg = mu[src]
        assert mu[dst] == deg + 1
        row0, col0 = first[src % nodes], first[dst % nodes]
        closing = j == nodes
        term = (letter.path, lam if closing else _ONE)
        entries = diffs.setdefault(deg, {})
        for i in range(d):
            key = (row0 + i, col0 + i)
            entries[key] = entries.get(key, ()) + (term,)
            if closing and i + 1 < d:
                key = (row0 + i, col0 + i + 1)
                entries[key] = entries.get(key, ()) + ((letter.path, _ONE),)
    return ProjComplex({deg: tuple(s) for deg, s in summands.items()}, diffs,
                       origin=origin)


def string_complex(pres, walk):
    """The minimal string complex of a walk; the trivial walk at v gives P_v."""
    return _walk_complex(walk, walk.width + 1, None, 1,
                         f"string:{walk.literal()}")


def check_band(walk, lam, d):
    """Reject what has no indecomposable band complex: a walk that is not a
    band, a proper power (its complex splits over an algebraically closed
    field), lambda = 0 or d < 1.  Returns lambda as a Fraction."""
    if walk.kind != GBA:
        raise PresentationError(f"band_complex needs a generalized band, got {walk.kind}")
    if not is_primitive(walk):
        raise PresentationError(f"band {walk.literal()} is a proper power")
    lam = Fraction(lam)
    if lam == 0:
        raise PresentationError("band parameter lambda must be nonzero")
    if d < 1:
        raise PresentationError("band multiplicity d must be >= 1")
    return lam


def band_complex(pres, walk, lam, d):
    """The band complex for (walk, lambda, d), built on the rotation whose
    degree minimum sits at node 0; then the first letter is inverse, the
    closing letter direct, and degree 0 carries no cohomology."""
    lam = check_band(walk, lam, d)
    walk = mu_minimal_rotation(pres, walk)
    return _walk_complex(walk, walk.width, lam, d,
                         f"band:{walk.literal()}:lam={lam}:d={d}")


def shift(cx, k):
    """The shifted complex C[k]: degrees drop by k, differentials pick up
    the sign (-1)^k."""
    if k == 0:
        return cx
    sign = Fraction(-1) ** (k % 2)
    summands = {deg - k: s for deg, s in cx.summands.items()}
    diffs = {}
    for deg, entries in cx.diffs.items():
        diffs[deg - k] = {
            key: tuple((p, sc * sign) for p, sc in terms)
            for key, terms in entries.items()
        }
    return ProjComplex(summands, diffs, origin=cx.origin + f"[{k}]")


def differential_matrix(pres, cx, degree):
    """The degree -> degree+1 differential expanded on path bases, as sparse
    rows: one {column: entry} dict per row, empty for a zero row, so
    ``len(rows)`` is the row count.

    Rows are indexed by basis paths of the degree+1 summands, columns by
    basis paths of the degree summands, both in path_basis order.  Each
    term fills its entries from the cached left action of its path, so the
    cost follows the nonzeros.  Integral scalars enter as ints, so a string
    complex expands to int entries.
    """
    basis, _ = _vertex_basis(pres)
    srcs = cx.summands.get(degree, ())
    dsts = cx.summands.get(degree + 1, ())
    col_offsets, _ = _slot_offsets(basis, srcs)
    row_offsets, nrows = _slot_offsets(basis, dsts)
    rows = [{} for _ in range(nrows)]
    for (src_idx, dst_idx), terms in cx.diffs.get(degree, {}).items():
        src, dst = srcs[src_idx].vertex, dsts[dst_idx].vertex
        col0, row0 = col_offsets[src_idx], row_offsets[dst_idx]
        for path, scalar in terms:
            if path.target != src or path.source != dst:
                raise NotComposable(f"{path.label()} does not map P_{src} to P_{dst}")
            if scalar.denominator == 1:
                scalar = scalar.numerator
            for k, image in left_action(pres, path):
                row, col = rows[row0 + image], col0 + k
                row[col] = row.get(col, 0) + scalar
    return rows


def _slot_offsets(basis, summands):
    offsets = []
    total = 0
    for s in summands:
        offsets.append(total)
        total += len(basis[s.vertex])
    return offsets, total


def total_dimension(pres, cx, degree):
    basis, _ = _vertex_basis(pres)
    return sum(len(basis[s.vertex]) for s in cx.summands.get(degree, ()))


def complex_to_json(pres, cx):
    """JSON form: grouped summands per degree, sparse term lists per entry."""
    degrees = {}
    for deg in cx.degrees():
        grouped = []
        for s in cx.summands[deg]:
            if grouped and grouped[-1][0] == s.vertex and s.copy > 0:
                grouped[-1][1] += 1
            else:
                grouped.append([s.vertex, 1])
        degrees[str(deg)] = grouped
    diffs = {}
    for deg in sorted(cx.diffs):
        items = []
        for (row, col) in sorted(cx.diffs[deg]):
            terms = cx.diffs[deg][(row, col)]
            items.append({
                "row": row,
                "col": col,
                "terms": [[p.label(), str(sc)] for p, sc in terms],
            })
        if items:
            diffs[str(deg)] = items
    return {"degrees": degrees, "diffs": diffs}
