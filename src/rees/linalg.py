"""Exact linear algebra over F_p and over the rationals.

One sparse vector form crosses this module's boundary: a dict
{index: nonzero field element}, entries already canonical (residues in
1..p-1 over F_p, Fractions over Q), as `gradedlin`'s writers emit them.
`rref` and `rank` read such vectors as the rows of a matrix; `independent`,
`nullspace` and `solve_many` take a matrix as its list of column vectors,
which is what their callers hold, and do the one transpose here.  Both
fields share one elimination route, `rref`: a column index names the rows
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

from collections import defaultdict


def rref(rows, ncols, field):
    """Reduced row echelon form of the rows, pivots searched in columns
    0..ncols-1.  Returns (reduced pivot rows, pivot columns), the rows as
    sparse vectors; the input rows are left as they are.
    """
    # sparse Gauss-Jordan: at[j] holds the rows nonzero in column j, so a
    # pivot step reduces only the rows it hits, one step per nonzero of the
    # monic pivot row (whose own column cancels, dropping the row from
    # at[c]).  The pivot row is the one a dense loop would swap in: the first
    # non-pivot row, in the current swap order, nonzero in the column
    # (order[k] is the row at position k, slot its inverse).  With ncols
    # below the row width the carried columns depend on that choice.
    p = field.modulus
    R = [dict(row) for row in rows]
    at = defaultdict(set)
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
    return [R[i] for i in order[:len(pivots)]], pivots


def rank(rows, ncols, field) -> int:
    return len(rref(rows, ncols, field)[1])


def _rows_of(columns):
    """The rows of the matrix with these columns, in row order; a row with
    no nonzero entry is left out, as no pivot can fall in it."""
    rows = defaultdict(dict)
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return [rows[i] for i in sorted(rows)]


def independent(vectors, field):
    """Indices of the vectors that leave the span of the vectors before them.

    These are the pivot columns of the RREF of the matrix whose columns are
    the vectors, so they are exactly what a greedy left-to-right scan keeps.
    """
    return rref(_rows_of(vectors), len(vectors), field)[1]


def nullspace(columns, field):
    """Canonical basis of {v : M v = 0}, M the matrix with these columns,
    one vector per RREF free column."""
    ncols = len(columns)
    R, pivots = rref(_rows_of(columns), ncols, field)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {pc: field.neg(row[f]) for pc, row in zip(pivots, R) if f in row}
        v[f] = field.one
        basis.append(v)
    return basis


def solve_many(columns, rhss, field):
    """Solutions of M v = b for every b in rhss, or None if any b misses;
    M is the matrix with these columns.

    One RREF of [M | b_1 ... b_k] serves every right-hand side.  A pivot in
    the right-hand block means some b lies outside the column space; without
    one, each solution reads off its column with free variables zero, the
    same vector as a `solve_many` of that b alone.
    """
    ncols = len(columns)
    R, pivots = rref(_rows_of(list(columns) + list(rhss)),
                     ncols + len(rhss), field)
    if pivots and pivots[-1] >= ncols:
        return None
    return [{pc: row[t] for pc, row in zip(pivots, R) if t in row}
            for t in range(ncols, ncols + len(rhss))]
