"""Exact rank computation for matrices over the rationals.

Dimensions are the only observable of this library, so no floating point:
rows are cleared to integers (rank is invariant under row scaling) and the
rank comes from fraction-free Bareiss elimination on Python bigints.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def rank(rows):
    """Rank of a matrix given as a list of rows of int/Fraction entries."""
    m = []
    for row in rows:
        ints = _clear_row(row)
        if any(ints):
            m.append(ints)
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivot = m[r][col]
        for i in range(r + 1, len(m)):
            fac = m[i][col]
            row_i = m[i]
            row_r = m[r]
            # Bareiss step: the division by the previous pivot is exact.
            m[i] = [(pivot * row_i[j] - fac * row_r[j]) // prev
                    for j in range(ncols)]
        prev = pivot
        r += 1
        if r == len(m):
            break
    return r


def _clear_row(row):
    """Scale a row of Fractions/ints to coprime integers.  A row with every
    denominator 1 is its numerators: an integral matrix builds no Fraction."""
    denom = lcm(*[x.denominator for x in row])
    if denom == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [(x.numerator * denom) // x.denominator for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


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
