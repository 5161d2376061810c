"""Exact dense linear algebra over F_p and over the rationals.

Each field has one elimination route.  Prime-field matrices ride numpy int64
(safe because `PrimeField` only accepts p < 2**31) with row-sparse
elimination: each pivot step touches only the columns from the pivot rightward
(everything left of it is already zero in the pivot row) and only the rows
with a nonzero entry in the pivot column.  Rational matrices are scaled to
integers and reduced by fraction-free Gauss-Jordan elimination, whose entries
grow like minors rather than like the Fraction sums of plain elimination.
`rref` is the only elimination: rank is the pivot count of the reduced row
echelon form, `independent` answers greedy basis and membership questions
with the pivot columns of the vectors set side by side, and `solve_many`
solves one matrix for many right-hand sides with a single RREF of the
augmented matrix.  All routines are deterministic:
pivots are chosen left to right, canonical nullspace/solution vectors come
straight out of the reduced row echelon form with free variables set to zero
(nullspace: one vector per free column, that free coordinate set to one).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_columns)."""
    if field.modulus is not None:
        return _rref_fp(rows, ncols, field.modulus)
    return _rref_frac(rows, ncols, field)


def _rref_fp(rows, ncols, p):
    if len(rows) == 0 or ncols == 0:
        return [], []
    M = np.array(rows, dtype=np.int64) % p
    nr = M.shape[0]
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nr:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        # columns left of c are already zero in the pivot row, so only c: moves
        pivot_row = M[r, c:] * pow(int(M[r, c]), p - 2, p) % p
        M[r, c:] = pivot_row
        hit = np.flatnonzero(M[:, c])
        hit = hit[hit != r]
        if hit.size:
            M[hit, c:] = (M[hit, c:] - np.outer(M[hit, c], pivot_row)) % p
        pivots.append(c)
        r += 1
    return M[:r].tolist(), pivots


def _rref_frac(rows, ncols, field):
    # fraction-free Gauss-Jordan (Bareiss, Math. Comp. 22, 1968): scale each
    # row to integers, which changes no RREF, then eliminate with
    # M[i] = (piv * M[i] - M[i][c] * M[r]) / prev, prev the previous pivot.
    # Every entry stays a minor of the scaled matrix, so the division is
    # exact, and every pivot row ends up as the last pivot times its RREF row
    M = []
    for row in rows:
        row = [Fraction(v) for v in row]
        den = lcm(*(v.denominator for v in row))
        M.append([v.numerator * (den // v.denominator) for v in row])
    r = 0
    prev = 1
    pivots = []
    for c in range(ncols):
        if r == len(M):
            break
        sel = next((i for i in range(r, len(M)) if M[i][c]), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        pivot_row = M[r]
        piv = pivot_row[c]
        for i in range(len(M)):
            if i != r:
                f = M[i][c]
                M[i] = [(piv * a - f * b) // prev
                        for a, b in zip(M[i], pivot_row)]
        prev = piv
        pivots.append(c)
        r += 1
    return [[Fraction(v, prev) for v in row] for row in M[:r]], pivots


def rank(rows, ncols, field) -> int:
    return len(rref(rows, ncols, field)[1])


def independent(vectors, field):
    """Indices of the vectors that leave the span of the vectors before them.

    These are the pivot columns of the RREF of the matrix whose columns are
    the vectors, so they are exactly what a greedy left-to-right scan keeps.
    """
    return rref(list(zip(*vectors)), len(vectors), field)[1]


def nullspace(rows, ncols, field):
    """Canonical basis of {v : M v = 0}, one vector per RREF free column."""
    R, pivots = rref(rows, ncols, field)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for k, pc in enumerate(pivots):
            coeff = R[k][f]
            if coeff:
                v[pc] = field.neg(coeff)
        basis.append(v)
    return basis


def solve_many(rows, rhss, ncols, field):
    """Solutions of M v = b for every b in rhss, or None if any b misses.

    One RREF of [M | b_1 ... b_k] serves every right-hand side.  A pivot in
    the right-hand block means some b lies outside the column space; without
    one, each solution reads off its column with free variables zero, the
    same vector as a `solve_many` of that b alone.
    """
    k = len(rhss)
    aug = [list(row) + [b[r] for b in rhss] for r, row in enumerate(rows)]
    R, pivots = rref(aug, ncols + k, field)
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for t in range(ncols, ncols + k):
        v = [field.zero] * ncols
        for row, pc in zip(R, pivots):
            v[pc] = row[t]
        sols.append(v)
    return sols


def invert(rows, field):
    """Inverse of a square matrix over the field, or None if singular."""
    n = len(rows)
    aug = [list(row) + [field.one if i == j else field.zero
                        for j in range(n)] for i, row in enumerate(rows)]
    R, pivots = rref(aug, 2 * n, field)
    if list(pivots[:n]) != list(range(n)) or len(pivots) != n:
        return None
    return [row[n:] for row in R[:n]]
