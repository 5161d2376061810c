"""Exact linear algebra over F_p and over the rationals.

Matrices come in and go out as dense lists of rows, and both fields share
one elimination route, `rref`.  Each entry is coerced by the field on the
way in (Fractions over Q, canonical residues over F_p) and each row is kept
sparse: a dict of its nonzero entries, with a column index naming the rows
nonzero in each column, so a pivot step reduces only those rows, at one
multiply-add per nonzero of the pivot row, reduced mod p only over F_p.  The
large matrices of this package are a few percent nonzero (the slice solves'
1-2 %) and stay sparse under elimination; a dense matrix that fills in is
slower here than on whole-row array operations, and over Q slower than
fraction-free elimination, whose entries grow like minors.
Every routine here goes through `rref`: rank is the pivot count of the
reduced row echelon form, `independent` answers greedy basis and membership
questions with the pivot columns of the vectors set side by side, and
`solve_many` solves one matrix for many right-hand sides with a single RREF
of the augmented matrix.  All routines are deterministic: pivots are chosen
left to right, canonical nullspace/solution vectors come straight out of the
reduced row echelon form with free variables set to zero
(nullspace: one vector per free column, that free coordinate set to one).
"""
from __future__ import annotations

from itertools import compress


def rref(rows, ncols, field):
    """Reduced row echelon form.  Returns (reduced_rows, pivot_columns).

    Entries may be anything the field coerces; the output holds field
    elements, zeros included.
    """
    # sparse Gauss-Jordan: each row is a dict {column: nonzero entry} and
    # at[j] holds the rows nonzero in column j, so a pivot step reduces only
    # the rows it hits, one step per nonzero of the monic pivot row (whose
    # own column cancels, dropping the row from at[c]).  The pivot row is the
    # one a dense loop would swap in: the first non-pivot row, in the current
    # swap order, nonzero in the column (order[k] is the row at position k,
    # slot its inverse).  With ncols below the row width the carried columns
    # depend on that choice.
    if len(rows) == 0 or ncols == 0:
        return [], []
    p = field.modulus
    width = range(len(rows[0]))
    R = [{j: v for j in compress(width, row) if (v := field(row[j]))}
         for row in rows]
    at = [set() for _ in width]
    for i, row in enumerate(R):
        for j in row:
            at[j].add(i)
    order = list(range(len(R)))
    slot = list(order)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(R):
            break
        k = min((slot[i] for i in at[c] if slot[i] >= r), default=None)
        if k is None:
            continue
        piv = order[k]
        order[k], order[r] = order[r], piv
        slot[order[k]], slot[piv] = k, r
        P = R[piv]
        inv = field.inv(P[c])
        if inv != 1:
            for j in P:
                P[j] = P[j] * inv if p is None else P[j] * inv % p
        for i in list(at[c]):
            if i == piv:
                continue
            row = R[i]
            f = row[c]
            for j, v in P.items():
                w = row.get(j, 0) - f * v
                if p is not None:
                    w %= p
                if w:
                    if j not in row:
                        at[j].add(i)
                    row[j] = w
                elif j in row:
                    del row[j]
                    at[j].discard(i)
        pivots.append(c)
    out = []
    for i in order[:len(pivots)]:
        dense = [field.zero] * len(width)
        for j, v in R[i].items():
            dense[j] = v
        out.append(dense)
    return out, pivots


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
