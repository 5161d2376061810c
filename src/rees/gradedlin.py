"""Finite-dimensional graded pieces and exact linear algebra on them.

Every bigraded piece of the ambient rings in play is a finite-dimensional
vector space with a canonical monomial basis (descending degrevlex).  This
module enumerates those bases and answers the two questions everything else
reduces to: coordinates of polynomials (and the polynomial of a coordinate
vector), and canonical solutions of sum_t a_t * g_t = target for T-degree-0
g_t, found in k[x0,x1] one T-monomial block at a time.  The dimension of a
span is `linalg.rank` of its vectors.

A coordinate vector is `linalg`'s one sparse form, a dict {basis position:
nonzero coefficient}, written straight from exponent tuples: the
coefficients are a `Poly`'s or a ring map memo's, so already nonzero
canonical field elements, and nothing coerces them again.
`shifted_rows` is the one writer of polynomials' vectors: it writes
x^shift * g into the piece's basis positions with no `Poly` product.
`coordinates` is its one-vector, zero-shift form, and `multiples` gives the
vectors of every monomial multiple of some polys that lands in a piece, and
`image_rows` the vectors of a ring map's images of a piece's monomials,
written from the map's array memo.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, mul

import numpy as np

from . import linalg
from .ring import (GradingError, Poly, PolyRing, RingMap, bidegree, dot,
                   print_key, ring_R)


@lru_cache(maxsize=4096)
def piece_monomials(ring: PolyRing, xdeg: int, tdeg: int):
    """Exponent tuples of the bigraded piece's monomials, in canonical order."""
    tvars = len(ring.tvar_names)
    out = []
    if tdeg < 0:
        return ()
    if tvars == 0:
        if tdeg != 0 or xdeg < 0:
            return ()
        return tuple((xdeg - a1, a1) for a1 in range(xdeg + 1))

    def texps(total, k):
        if k == 1:
            yield (total,)
            return
        for e in range(total + 1):
            for rest in texps(total - e, k - 1):
                yield (e,) + rest

    for te in texps(tdeg, tvars):
        xdeg_needed = xdeg - sum(map(mul, te, ring.tweights))
        if xdeg_needed < 0:
            continue
        for a1 in range(xdeg_needed + 1):
            out.append((xdeg_needed - a1, a1) + te)
    out.sort(key=print_key, reverse=True)
    return tuple(out)


@lru_cache(maxsize=4096)
def _piece_index(ring: PolyRing, xdeg: int, tdeg: int):
    return {m: i for i, m in enumerate(piece_monomials(ring, xdeg, tdeg))}


def piece_basis(ring: PolyRing, xdeg: int, tdeg: int = 0):
    """Monomials of the bigraded piece, as polynomials, in canonical order.

    For the base ring pass tdeg=0; for a scroll ring negative x-degrees are
    meaningful (w_i carries x-degree -sigma_i) and the enumeration accounts
    for the twist.
    """
    return [ring.monomial(m) for m in piece_monomials(ring, xdeg, tdeg)]


def piece_dim(ring: PolyRing, xdeg: int, tdeg: int = 0) -> int:
    return len(piece_monomials(ring, xdeg, tdeg))


def shifted_rows(pairs, ring: PolyRing, xdeg: int, tdeg: int = 0) -> list:
    """Coefficient vectors of x^shift * g on the piece's canonical basis.

    pairs are (terms, shift): g's terms dict and an exponent tuple.  Raises
    GradingError for a shifted term outside the piece.
    """
    index = _piece_index(ring, xdeg, tdeg)
    rows = []
    for terms, shift in pairs:
        row = {}
        for m, c in terms.items():
            try:
                row[index[tuple(map(add, m, shift))]] = c
            except KeyError:
                raise GradingError(
                    f"{Poly(ring, terms)} shifted by {shift} has a term "
                    f"outside the ({xdeg},{tdeg}) piece") from None
        rows.append(row)
    return rows


def coordinates(p: Poly, xdeg: int, tdeg: int = 0):
    """Coefficient vector of p on the canonical basis of its piece."""
    return shifted_rows([(p.terms, p.ring.zero_shift)], p.ring, xdeg, tdeg)[0]


def multiples(polys, ring: PolyRing, xdeg: int, tdeg: int = 0) -> list:
    """Vectors of every monomial multiple mu * p that lies in the piece.

    Ordered by poly, then by mu in canonical order; a zero poly, or one above
    the piece, gives no vectors.
    """
    return shifted_rows([(p.terms, mu) for p in polys if not p.is_zero()
                         for mu in piece_monomials(ring, xdeg - p.xdeg(),
                                                   tdeg - p.tdeg())],
                        ring, xdeg, tdeg)


def image_rows(ring_map: RingMap, source: PolyRing, xdeg: int, tdeg: int) -> list:
    """Coefficient vectors of ring_map(mu) on the target's (xdeg, tdeg) piece.

    One vector per monomial mu of the source's (xdeg, tdeg) piece, in canonical
    order: the memo rows of mu's T-part (`RingMap.image`, one call for the
    piece) shifted by mu's x-part and written into the piece's positions, so
    no `Poly` is built per monomial.  The map must keep x-degrees.
    """
    target = ring_map.target
    monos = piece_monomials(source, xdeg, tdeg)
    index = _piece_index(target, xdeg, tdeg)
    owner, exps, coeffs = ring_map.image(mu[2:] for mu in monos)
    exps[:, :2] += np.array([mu[:2] for mu in monos],
                            dtype=np.int64).reshape(-1, 2)[owner]
    rows = [{} for _ in monos]
    for k, m, c in zip(owner.tolist(), exps.tolist(), coeffs.tolist()):
        try:
            rows[k][index[tuple(m)]] = c
        except KeyError:
            raise GradingError(f"the image of {monos[k]} has a term outside "
                               f"the ({xdeg},{tdeg}) piece") from None
    return rows


def from_coordinates(vec, ring: PolyRing, xdeg: int, tdeg: int = 0) -> Poly:
    """The polynomial whose coefficient vector on the piece's basis is vec."""
    monos = piece_monomials(ring, xdeg, tdeg)
    return Poly(ring, {monos[j]: c for j, c in vec.items()})


def solve_combination(target: Poly, gens, ring: PolyRing):
    """Canonical graded coefficients a_t with sum a_t * g_t == target, or None.

    The g_t have T-degree 0 (ValueError otherwise), so the system is solved
    in k[x0,x1]: one matrix of the g_t's multiples in R_ti (ti + 1 rows), one
    right-hand side per T-monomial T^b of the target, and a_t collects the
    solutions' g_t-parts times T^b.  This is the solution the whole piece
    S_(ti,tj) would give with unknowns ordered by (generator, canonical
    monomial) and free variables zero: a column x^a T^b g_t touches only
    block b's rows, the canonical order at fixed T^b orders the x^a as R_ti
    does, so every block has the small matrix's pivots.  Every returned
    combination is re-expanded and checked exactly.
    """
    if any(any(m[2:]) for g in gens for m in g.terms):
        raise ValueError("solve_combination needs generators of T-degree 0")
    if target.is_zero():
        return [ring.zero() for _ in gens]
    ti = bidegree(target)[0]
    base = ring_R(ring.field)
    forms = [Poly(base, {m[:2]: c for m, c in g.terms.items()}) for g in gens]
    blocks = {}
    for m, c in target.terms.items():
        blocks.setdefault(m[2:], {})[m[:2]] = c
    rhss = shifted_rows([(t, (0, 0)) for t in blocks.values()], base, ti)
    sols = linalg.solve_many(multiples(forms, base, ti), rhss, ring.field)
    if sols is None:
        return None
    out, k = [], 0
    for f in forms:
        monos = piece_monomials(base, ti - f.xdeg(), 0) if f.terms else ()
        out.append(Poly(ring, {monos[j - k] + b: c
                               for b, sol in zip(blocks, sols)
                               for j, c in sol.items()
                               if k <= j < k + len(monos)}))
        k += len(monos)
    if dot(zip(out, gens), ring) != target:
        raise ArithmeticError("internal error: combination failed to re-expand")
    return out
