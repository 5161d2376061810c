"""Ground truth for the benchmark's correctness checks, computed apart from rees.

Nothing here imports rees.  Binary forms of degree d in k[x0,x1] are lists of
d + 1 coefficients mod P, entry k being the coefficient of x0^(d-k) * x1^k.
Polynomials that rees returns are read only through their `terms` dict,
which maps exponent tuples (x0, x1, T1..Tn) to coefficients mod P.

Two facts about the Rees ideal of I = (f_1..f_n) carry every check:

* h(x, T) lies in the ideal iff h(x0, x1, f_1(x), ..., f_n(x)) = 0, so a
  nonzero value at any point (a, b) of F_P^2 proves that h is not a member;
* its (i, j) piece is the kernel of S_(i,j) -> R_(i+jD), T_k -> f_k, so its
  dimension is dim S_(i,j) - dim (I^j)_(i+jD), where D = deg f_k.
"""
from __future__ import annotations

import itertools
from math import comb

import numpy as np

P = 32003


# -- binary forms --------------------------------------------------------------

def form_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for a, cu in enumerate(u):
        if cu:
            for b, cv in enumerate(v):
                out[a + b] = (out[a + b] + cu * cv) % P
    return out


def form_add(u, v):
    return [(a + b) % P for a, b in zip(u, v)]


def form_eval(form, a, b):
    d = len(form) - 1
    return sum(c * pow(a, d - k, P) * pow(b, k, P)
               for k, c in enumerate(form)) % P


def _determinant(mat):
    """Determinant of a square matrix of binary forms, by permutation sum."""
    k = len(mat)
    total = None
    for perm in itertools.permutations(range(k)):
        inversions = sum(1 for x in range(k) for y in range(x + 1, k)
                         if perm[x] > perm[y])
        prod = [1]
        for row, col in enumerate(perm):
            prod = form_mul(prod, mat[row][col])
        if inversions % 2:
            prod = [(-c) % P for c in prod]
        total = prod if total is None else form_add(total, prod)
    return total


def signed_minors(phi_rows):
    """f_i = (-1)^i det(phi without row i); then sum_i f_i phi[i][j] = 0.

    Any other sign convention differs from this one by an overall sign, which
    leaves the Rees ideal unchanged.
    """
    n = len(phi_rows)
    minors = []
    for i in range(n):
        det = _determinant([row for k, row in enumerate(phi_rows) if k != i])
        minors.append(det if i % 2 == 0 else [(-c) % P for c in det])
    for j in range(n - 1):
        acc = None
        for i in range(n):
            term = form_mul(minors[i], phi_rows[i][j])
            acc = term if acc is None else form_add(acc, term)
        if any(acc):
            raise ArithmeticError("minors are not a syzygy of the columns")
    return minors


# -- (a) evaluation at points ---------------------------------------------------

def nonvanishing(poly, minors, points):
    """The first point (a, b) at which poly(a, b, f(a, b)) != 0, or None."""
    for a, b in points:
        fvals = [form_eval(f, a, b) for f in minors]
        total = 0
        for exps, c in poly.terms.items():
            v = c * pow(a, exps[0], P) * pow(b, exps[1], P)
            for fv, e in zip(fvals, exps[2:]):
                if e:
                    v = v * pow(fv, e, P) % P
            total += v
        if total % P:
            return (a, b)
    return None


# -- rank mod P ----------------------------------------------------------------

def echelon_rows(rows, ncols):
    """Rows of an echelon basis of the span of an integer matrix mod P."""
    if not rows or ncols == 0:
        return []
    M = np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % P
    r = 0
    for c in range(ncols):
        if r == M.shape[0]:
            break
        nz = np.flatnonzero(M[r:, c])
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            M[[r, k]] = M[[k, r]]
        M[r] = M[r] * pow(int(M[r, c]), P - 2, P) % P
        hit = r + 1 + np.flatnonzero(M[r + 1:, c])
        if hit.size:
            M[hit] = (M[hit] - np.outer(M[hit, c], M[r])) % P
        r += 1
    return M[:r].tolist()


def rank_mod_p(rows, ncols):
    return len(echelon_rows(rows, ncols))


# -- (b) dimensions of the Rees ideal ------------------------------------------

def t_exponents(n, j):
    """Exponent vectors of the degree-j monomials in n variables."""
    if n == 1:
        return [(j,)]
    return [(e,) + rest for e in range(j, -1, -1)
            for rest in t_exponents(n - 1, j - e)]


class ReesDims:
    """dim of the Rees ideal's (i, j) pieces from the minors alone."""

    def __init__(self, minors):
        self.minors = minors
        self.n = len(minors)
        self.D = len(minors[0]) - 1
        self._powers = {(0,) * self.n: [1]}
        self._vj = {}

    def _power(self, beta):
        got = self._powers.get(beta)
        if got is None:
            k = next(t for t, e in enumerate(beta) if e)
            lower = beta[:k] + (beta[k] - 1,) + beta[k + 1:]
            got = form_mul(self._power(lower), self.minors[k])
            self._powers[beta] = got
        return got

    def _span_of_powers(self, j):
        """Echelon basis of span{f^beta : |beta| = j} inside R_(jD)."""
        got = self._vj.get(j)
        if got is None:
            rows = [self._power(beta) for beta in t_exponents(self.n, j)]
            got = echelon_rows(rows, j * self.D + 1)
            self._vj[j] = got
        return got

    def power_dim(self, i, j):
        """dim (I^j)_(i + jD) = dim R_i * span{f^beta}."""
        if j == 0:
            return i + 1
        width = i + j * self.D + 1
        rows = []
        for v in self._span_of_powers(j):
            for shift in range(i + 1):
                row = [0] * width
                row[shift:shift + len(v)] = v
                rows.append(row)
        return rank_mod_p(rows, width)

    def ambient_dim(self, i, j):
        return (i + 1) * comb(j + self.n - 1, self.n - 1)

    def dim(self, i, j):
        if i < 0 or j < 0:
            return 0
        return self.ambient_dim(i, j) - self.power_dim(i, j)


def span_dim_in_piece(polys, n, i, j):
    """dim of the bidegree-(i, j) piece of the k[T]-module the polys generate.

    Each poly is bihomogeneous of x-degree i; a poly of T-degree t <= j
    contributes its products with every T-monomial of degree j - t.
    """
    index = {}
    for tex in t_exponents(n, j):
        for a1 in range(i + 1):
            index[(i - a1, a1) + tex] = len(index)
    rows = []
    for p in polys:
        if not p.terms:
            continue
        t = sum(next(iter(p.terms))[2:])
        if t > j:
            continue
        for gamma in t_exponents(n, j - t):
            row = [0] * len(index)
            for exps, c in p.terms.items():
                row[index[exps[:2] + tuple(
                    a + g for a, g in zip(exps[2:], gamma))]] = c
            rows.append(row)
    return rank_mod_p(rows, len(index))
