"""Exact rank computation for matrices over the rationals.

Dimensions are the only observable of this library, so no floating point.
The rank comes from row-by-row sparse elimination over Python ints and
Fractions: each row arrives as a dict of its entries by column and is
reduced against the pivot rows found so far, looked up by leading column
(Davis, Direct Methods for Sparse Linear Systems, SIAM 2006).  A
differential matrix has a few nonzeros per row, so the elimination follows
the nonzeros, not the cube of the side.
"""
from __future__ import annotations

from fractions import Fraction


def rank(rows):
    """Rank of a matrix given as a list of sparse rows: one {column: entry}
    dict of int/Fraction entries per row, as ``differential_matrix`` returns
    them.  Zero entries are skipped."""
    pivots = {}
    for row in rows:
        if not row:
            continue
        vec = {col: x for col, x in row.items() if x}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = vec
                break
            factor = Fraction(vec[lead], pivot[lead])
            for col, x in pivot.items():
                y = vec.get(col, 0) - factor * x
                if y:
                    vec[col] = y
                else:
                    del vec[col]
    return len(pivots)


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
