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
