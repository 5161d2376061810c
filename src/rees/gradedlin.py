"""Finite-dimensional graded pieces and exact linear algebra on them.

Every bigraded piece of the ambient rings in play is a finite-dimensional
vector space with a canonical monomial basis (descending degrevlex).  This
module enumerates those bases and answers the three questions everything else
reduces to: coordinates of a polynomial (and the polynomial of a coordinate
vector), dimension of a span, and canonical solutions of
sum_t a_t * g_t = target  with graded unknown coefficients.

`shifted_rows` is the one writer of coefficient rows: it writes x^shift * g
into the piece's basis positions straight from g's exponent tuples, with no
`Poly` product.  `coordinates` is its one-row, zero-shift form, and
`multiples` gives the rows of every monomial multiple of some polys that lands
in a piece.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add

from . import linalg
from .ring import GradingError, Poly, PolyRing, print_key


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
        xdeg_needed = xdeg - sum(e * w for e, w in zip(te, ring.tweights))
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
    """Coefficient rows of x^shift * g on the piece's canonical basis.

    pairs are (terms, shift): g's terms dict and an exponent tuple.  Raises
    GradingError for a shifted term outside the piece.
    """
    index = _piece_index(ring, xdeg, tdeg)
    zero = ring.field.zero
    rows = []
    for terms, shift in pairs:
        row = [zero] * len(index)
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
    """Rows of every monomial multiple mu * p that lies in the piece.

    Ordered by poly, then by mu in canonical order; a zero poly, or one above
    the piece, gives no rows.
    """
    return shifted_rows([(p.terms, mu) for p in polys if not p.is_zero()
                         for mu in piece_monomials(ring, xdeg - p.xdeg(),
                                                   tdeg - p.tdeg())],
                        ring, xdeg, tdeg)


def from_coordinates(vec, ring: PolyRing, xdeg: int, tdeg: int = 0) -> Poly:
    """The polynomial whose coefficient vector on the piece's basis is vec."""
    monos = piece_monomials(ring, xdeg, tdeg)
    return Poly(ring, {m: c for m, c in zip(monos, vec) if c})


def span_dim(polys, ring: PolyRing, xdeg: int, tdeg: int = 0) -> int:
    """Dimension of the span of the given polynomials inside one piece.

    Zero polynomials are allowed and contribute nothing; anything nonzero must
    lie in the stated piece.
    """
    rows = [coordinates(p, xdeg, tdeg) for p in polys if not p.is_zero()]
    return linalg.rank(rows, piece_dim(ring, xdeg, tdeg), ring.field)


def solve_combination(target: Poly, gens, ring: PolyRing):
    """Canonical graded coefficients a_t with sum a_t * g_t == target, or None.

    The unknown a_t ranges over the piece of bidegree bideg(target) -
    bideg(g_t) (an empty piece just forces a_t = 0).  The solution is the RREF
    one: unknown coordinates ordered by (generator index, canonical monomial
    order), pivot variables solved, free variables zero.  Every returned
    combination is re-expanded and checked exactly.
    """
    if target.is_zero():
        return [ring.zero() for _ in gens]
    ti, tj = target.xdeg(), target.tdeg()
    # the bidegree of each unknown a_t; T-degree -1 is empty, so a zero g_t
    # gets a_t = 0
    shifts = [(0, -1) if g.is_zero() else (ti - g.xdeg(), tj - g.tdeg())
              for g in gens]
    columns = multiples(gens, ring, ti, tj)
    rows = [[col[r] for col in columns]
            for r in range(piece_dim(ring, ti, tj))]
    rhs = coordinates(target, ti, tj)
    sol = linalg.solve(rows, rhs, len(columns), ring.field)
    if sol is None:
        return None
    out = []
    k = 0
    for shift in shifts:
        size = piece_dim(ring, *shift)
        out.append(from_coordinates(sol[k:k + size], ring, *shift))
        k += size
    check = ring.zero()
    for a, g in zip(out, gens):
        check = check + a * g
    if check != target:
        raise ArithmeticError("internal error: combination failed to re-expand")
    return out
