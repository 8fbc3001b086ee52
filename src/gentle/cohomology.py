"""Cohomology dimension vectors and the length/width/range invariants.

Two independent routes compute the same numbers: exact ranks of the expanded
differentials, and closed-form per-node contributions read off the walk.
The beta transform erases the cohomology at the lowest occupied degree by
gluing the start of a minimal resolution of the leftmost kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (PresentationError, dim_projective, maximal_path, other_maximal_path,
                   per_presentation)
from .exact import rank
from .walks import _flip, classify_walk, glue_bar, mu_minimal_rotation
from .complexes import (check_band, differential_matrix, shift as shift_complex,
                        string_complex, total_dimension)


def _trim(low, counts):
    """(low, counts) with the zero ends of counts dropped: a CohVector's fields."""
    lo, hi = 0, len(counts)
    while hi and not counts[hi - 1]:
        hi -= 1
    while lo < hi and not counts[lo]:
        lo += 1
    return (low + lo, tuple(counts)[lo:hi]) if hi else (0, ())


@dataclass(frozen=True, slots=True)
class CohVector:
    """Degree -> dimension map with the derived size invariants, stored
    dense: ``counts[k]`` is the dimension in degree ``low + k``.  Both end
    entries are nonzero (interior zeros stay), so equal maps are equal
    records; the zero vector is ``CohVector()``.  Every vector built here
    has its fields from ``_trim``, through :meth:`dense` or ``_vector``."""

    low: int = 0
    counts: tuple = ()

    @staticmethod
    def dense(low, counts):
        """The vector with dimension ``counts[k]`` in degree ``low + k``."""
        return CohVector(*_trim(low, counts))

    @staticmethod
    def from_dict(d):
        low = min(d, default=0)
        return CohVector.dense(low, [d.get(k, 0) for k in range(low, max(d, default=-1) + 1)])

    @property
    def dims(self):
        """The nonzero ``(degree, dimension)`` pairs in degree order."""
        return tuple((self.low + k, v) for k, v in enumerate(self.counts) if v)

    def as_dict(self):
        return dict(self.dims)

    @property
    def hl(self):
        return max(self.counts, default=0)

    @property
    def hw(self):
        return len(self.counts)

    @property
    def hr(self):
        return self.hl * self.hw

    def shifted(self, k):
        return CohVector.dense(self.low - k, self.counts)

    def drop_degree(self, degree):
        counts = list(self.counts)
        if 0 <= degree - self.low < len(counts):
            counts[degree - self.low] = 0
        return CohVector.dense(self.low, counts)

    def to_json(self):
        return {
            "dims": {str(k): v for k, v in self.dims},
            "hl": self.hl,
            "hw": self.hw,
            "hr": self.hr,
        }


def cohomology_dims(pres, cx):
    """dim H^i = dim X^i - rank d^i - rank d^(i-1), by exact elimination.

    This is where d.d = 0 is checked, on the expanded rows about to be
    ranked: each row of d^(i+1), combined over the rows of d^i, must vanish,
    or PresentationError is raised.  The rows miss no symbolic composite:
    the column of a summand's idempotent e holds p.e = p for every path."""
    degrees = cx.degrees()
    # a degree without a differential out of it contributes rank 0
    rows = {deg: differential_matrix(pres, cx, deg) for deg in degrees if deg in cx.diffs}
    for deg, below in rows.items():
        for row in rows.get(deg + 1, ()):
            acc = {}
            for mid, x in row.items():
                for col, y in below[mid].items():
                    acc[col] = acc.get(col, 0) + x * y
            if any(acc.values()):
                raise PresentationError(f"d^2 != 0 in {cx.origin} at degree {deg}")
    ranks = {deg: rank(r) for deg, r in rows.items()}
    dims = {}
    for deg in degrees:
        h = total_dimension(pres, cx, deg) - ranks.get(deg, 0) - ranks.get(deg - 1, 0)
        if h:
            dims[deg] = h
    return CohVector.from_dict(dims)


def node_contributions(pres, walk):
    """Per-node cohomology of a string complex, in closed form:
    {node j: (degree, dim)}, the counts of :func:`_node_counts`."""
    return dict(enumerate(zip(walk.mu, _node_counts(pres, walk))))


def node_sums(pres, walk):
    """Degree totals of the closed-form node counts, as a CohVector.

    mu moves by one per letter, so the degrees of the nodes are contiguous
    and the totals fold into a list indexed from ``min(mu)``.  Equal
    vectors of one presentation are one record (:func:`_vector`)."""
    mu = walk.mu
    low = min(mu)
    agg = [0] * (max(mu) - low + 1)
    for deg, c in zip(mu, _node_counts(pres, walk)):
        agg[deg - low] += c
    return _vector(pres, _trim(low, agg))


@per_presentation
def _vector(pres, fields):
    """The presentation's one CohVector with these trimmed (low, counts) fields."""
    return CohVector(*fields)


def _node_counts(pres, walk):
    """The cohomology at each node of a string complex, in node order: the
    one closed form.

    End nodes receiving a letter contribute a cokernel count l(p) +
    l(p-check); end nodes emitting one contribute the kernel count
    l(tilde of the relation continuation); run interiors contribute letter
    length - 1; backward turning points add both incident letters; forward
    turning points contribute 0.  A node entered by an inverse letter whose
    other end is a forward turning point gains one extra unit: the turning
    point's projective feeds both neighbours through a shared socle vector,
    so the two image counts overlap in one dimension.  The trivial walk's
    one node contributes dim P_v.  The grand total per degree matches the
    rank computation exactly (tested, not assumed).
    """
    letters = walk.letters
    if not letters:
        return [dim_projective(pres, walk.vertex)]
    ends = _end_counts(pres)
    first, last = letters[0], letters[-1]
    try:
        if first.inverse:
            head = ends[first.path.arrows[-1]][0]
        else:
            head = len(first.path.arrows) + ends[first.path.arrows[0]][1]
        if last.inverse:
            tail = len(last.path.arrows) + ends[last.path.arrows[0]][1]
        else:
            tail = ends[last.path.arrows[-1]][0]
    except KeyError as missing:
        raise PresentationError(f"unknown arrow {missing.args[0]!r}") from None
    counts = [head]
    before, before_length = first.inverse, len(first.path.arrows)
    overlap = False  # the +1 of the node after a forward turn
    for letter in letters[1:]:
        after, after_length = letter.inverse, len(letter.path.arrows)
        if before:
            c = before_length - 1 if after else before_length + after_length - 1
        else:
            c = 0 if after else after_length - 1
        counts.append(c + overlap)
        overlap = after and not before
        before, before_length = after, after_length
    counts.append(tail + overlap)
    return counts


@per_presentation
def _end_counts(pres):
    """Each arrow name -> (the kernel count of a letter whose path ends in
    the arrow, l(p-check) for a path starting with it): what the two end
    nodes of a walk read."""
    counts = {}
    for a in pres.arrows:
        g = pres.relation_continuation(a.name)
        check = other_maximal_path(pres, a.name)
        counts[a.name] = (maximal_path(pres, g).length if g is not None else 0,
                          check.length if check is not None else 0)
    return counts


def band_sums(pres, walk, mult):
    """The cohomology of every band complex of (walk, lambda, mult), in
    closed form: lambda does not enter.  On the mu-minimal rotation, whose
    bottom degree is 0, the d = 1 vector is the string vector of the same
    letters with degree 0 erased and one more unit in degree 1; multiplicity
    d multiplies it by d.  Both identities are tested against the rank route."""
    check_band(walk, 1, mult)
    agg = node_sums(pres, mu_minimal_rotation(pres, walk)).drop_degree(0).as_dict()
    agg[1] = agg.get(1, 0) + 1
    return CohVector.from_dict({deg: mult * dim for deg, dim in agg.items()})


# ---------------------------------------------------------------------------
# the beta transform


def beta_cohomology(pres, walk):
    """Cohomology of beta(P_walk): the lowest occupied degree is erased,
    everything else is copied; a complex exact at its lowest degree is
    returned unchanged."""
    return cohomology_dims(pres, string_complex(pres, walk)).drop_degree(min(walk.mu))


def beta_extension_chains(pres, walk):
    """The glue chains resolving the leftmost kernel of a string complex.

    Only walk ends sitting at the minimal degree carry kernel; each is
    resolved by the unique relation chain continuing the end letter.
    Returns (left_chain, right_chain): BarDescriptors or None.
    """
    if not walk.letters:
        return None, None  # P_v alone has no end letter to resolve

    def chain(letter):
        g = pres.relation_continuation(letter.path.arrows[-1])
        return glue_bar(pres, pres.arrow_path(g)) if g is not None else None

    mu = walk.mu
    bottom = min(mu)
    first, last = walk.letters[0], walk.letters[-1]
    left = chain(first) if mu[0] == bottom and first.inverse else None
    right = chain(last) if mu[-1] == bottom and not last.inverse else None
    return left, right


def beta_window(pres, walk, steps):
    """A finite stretch of beta(P_walk): prepend/append up to ``steps``
    letters of the kernel-resolving chains and build the string complex.

    Returns (complex, info) where info records how many chain letters were
    attached on each side and whether the chains were exhausted.
    """
    if steps < 0:
        raise PresentationError("steps must be >= 0")
    left, right = beta_extension_chains(pres, walk)
    head = left.letters(steps) if left is not None else []
    tail = right.letters(steps) if right is not None else []
    info = {"left_attached": len(head), "right_attached": len(tail),
            "left_exhausted": left is None or (left.finite and steps >= len(left.preperiod)),
            "right_exhausted": right is None or (right.finite and steps >= len(right.preperiod))}
    letters = _flip(head) + walk.letters + tuple(tail)
    cx = string_complex(pres, classify_walk(pres, letters) if letters else walk)
    # Prepended inverse letters push the original nodes up one degree each;
    # realign so the window compares degree by degree with the input.
    return shift_complex(cx, len(head)), info
