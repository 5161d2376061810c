"""Independent ground truth: Buchberger engine, saturation, bigraded counts.

Everything here works on the ambient ring S = k[x0,x1][T1..Tn] and never
touches the tower machinery, so its answers cross-check the constructive
pipeline.  Fixed term order: degree-reverse-lexicographic within each block,
T-variables before x-variables, x1 last ("block-degrevlex(T>x, x1 last)").

Saturation at the irrelevant ideal (x0,x1) is saturation by x1 alone.  Let
J = (g_1..g_m) hold the equations of the first m columns phi_m of phi, and
I_m the ideal of m x m minors of phi_m.  Every maximal minor of phi lies in
I_m (Laplace expansion along the other columns), and `load_presentation`
checks that the maximal minors have gcd 1, so I_m is (x0,x1)-primary.  Once
x_v is inverted, I_m is the unit ideal and coker phi_m is projective, so its
symmetric algebra (S/J)[1/x_v] is a direct summand of a polynomial ring over
R[1/x_v] and has no R-torsion.  Hence (J : x_v^infinity)/J is the R-torsion
of S/J, the same for v = 0 and v = 1 (Simis-Ulrich-Vasconcelos, "Rees
algebras of modules", Proc. LMS 87, 2003).  As (x0,x1)^(2N) lies in
(x0^N, x1^N), J : (x0,x1)^infinity is the intersection of the two, so it is
J : x1^infinity.  That is one Groebner basis in degrevlex with x1 last, whose
elements are divided by the largest power of x1 dividing them (Bayer-Stillman
1987), then the reduced basis in the block order.  T has x-weight 0 in S, so
a bihomogeneous ideal is homogeneous in total degree, which is what the
division step needs.  Outside this input class the two variable saturations
can differ: (x0*x1*T1) gives x1*T1 by x0 and x0*T1 by x1.

Reduction uses the package's one multiply-accumulate kernel for F_p and Q,
`ring.sub_multiple`, which subtracts c * x^shift * g from a working terms dict
and reduces mod p only when the field has a modulus; `Poly` arithmetic runs
through the same loop.  The lead terms cancel inside it.  The heap-driven
normal form `_nf_terms` calls it once per reduction step, and `_spoly_terms`
builds the S-polynomial with two calls, one per shifted reducer.

Windows are ((x_lo, x_hi), (t_lo, t_hi)), inclusive on both ends.  The two
counters work on exponent tuples and build no `Poly`: `_first_divisors` finds
the first basis lead dividing each monomial of a piece in one numpy broadcast,
and the one-step-down span's rows are written by `gradedlin.shifted_rows`
from the basis elements' terms and their shifts.

Every question asked of the oracle is bounded in T-degree, so every basis can
stop at a cap t_max: the Buchberger core drops input generators of T-degree
above it and never forms an S-pair whose lcm has T-degree sum(lcm[2:]) above
it.  The result is the full reduced basis restricted to T-degree <= t_max,
because
  * the ideals are bihomogeneous and reduction keeps the bidegree, so a pair
    above the cap never changes a piece at or below it;
  * Bayer's division by x1 keeps the T-degree;
  * capped pairs are never formed, so none is ever counted as treated, and
    none could justify the chain criterion anyway: l_k | lcm(l_i, l_j)
    implies lcm(l_i, l_k) | lcm(l_i, l_j), so both associated pairs of a pair
    within the cap are within the cap too.
A capped `GroebnerBasis` records its cap in `t_max`; `normal_form`,
`bigraded_hilbert` and `minimal_generator_bidegrees` raise `WindowError` for
a query that reaches above it instead of answering it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, sub

import numpy as np

from . import combinat, gradedlin, linalg
from .field import RationalField
from .ring import Poly, PolyRing, ring_R, sub_multiple
from .tower import PresentationInput, load_presentation, sym_equations

ORDER_DESCRIPTOR = "block-degrevlex(T>x, x1 last)"


class WindowError(ValueError):
    """A query reaches above the T-degree cap its basis was computed to."""


# -- term order --------------------------------------------------------------

def _key_funcs(last: int | None = None):
    """Ascending comparison key and its negation on exponent tuples.

    Exponents are (e_x0, e_x1, e_T1..e_Tn); the largest key is the lead
    monomial.  The negated key drives min-heaps that pop monomials in
    descending order.  Keys are flat int tuples.  The default is the block
    order; last = v gives plain degrevlex over T1 > .. > Tn > x_(1-v) > x_v,
    the order in which a homogeneous basis divided by powers of x_v generates
    the saturation by x_v.
    """
    if last is not None:
        other = 1 - last

        def key(m):
            return ((sum(m), -m[last], -m[other])
                    + tuple(-e for e in reversed(m[2:])))

        def negkey(m):
            return ((-sum(m), m[last], m[other]) + tuple(reversed(m[2:])))
    else:
        def key(m):
            tex = m[2:]
            return ((sum(tex),) + tuple(-e for e in reversed(tex))
                    + (m[0] + m[1], -m[1], -m[0]))

        def negkey(m):
            tex = m[2:]
            return ((-sum(tex),) + tuple(reversed(tex))
                    + (-m[0] - m[1], m[1], m[0]))
    return key, negkey


# -- core reduction ----------------------------------------------------------

def _monic(terms: dict, key, field) -> tuple:
    """(lead, terms scaled to lead coefficient 1)."""
    lead = max(terms, key=key)
    lc = terms[lead]
    if lc != 1:
        inv = field.inv(lc)
        terms = {m: field(c * inv) for m, c in terms.items()}
    return lead, terms


def _nf_terms(terms: dict, gens: list, negkey, field) -> dict:
    """Full normal form of a terms dict against monic (lead, terms) reducers."""
    p = field.modulus
    work = dict(terms)
    heap = [(negkey(m), m) for m in work]
    heapify(heap)
    rem = {}
    while heap:
        _, m = heappop(heap)
        c = work.get(m)
        if not c:
            continue
        for lead, g in gens:
            divisible = True
            for a, b in zip(m, lead):
                if a < b:
                    divisible = False
                    break
            if not divisible:
                continue
            shift = tuple(map(sub, m, lead))
            for nm in sub_multiple(work, c, shift, g, p):
                heappush(heap, (negkey(nm), nm))
            break
        else:
            rem[m] = c
            del work[m]
    return rem


def _spoly_terms(gi: tuple, gj: tuple, field) -> dict:
    """S-polynomial of two monic (lead, terms) pairs."""
    (li, ti), (lj, tj) = gi, gj
    lcm = tuple(map(max, li, lj))
    p = field.modulus
    out = {}
    sub_multiple(out, -1, tuple(map(sub, lcm, li)), ti, p)
    sub_multiple(out, 1, tuple(map(sub, lcm, lj)), tj, p)
    return out


def _buchberger_core(term_dicts: list, key, negkey, field,
                     t_max: int | None = None) -> list:
    """Reduced monic basis as (lead, terms) pairs, sorted by ascending lead.

    Pair selection: smallest lcm first.  With a cap t_max, inputs and pairs
    above it are left out (see the module docstring).  Pairs with coprime
    leads are skipped; so is any pair whose lcm is divisible by a third lead
    when both associated pairs were already treated (treated pairs always
    predate the skip, so the justification is well-founded).
    """
    G: list = []
    pairs: list = []
    done: set = set()

    def add_gen(terms):
        lead, terms = _monic(terms, key, field)
        idx = len(G)
        G.append((lead, terms))
        for t in range(idx):
            lcm = tuple(max(a, b) for a, b in zip(G[t][0], lead))
            if t_max is None or sum(lcm[2:]) <= t_max:
                heappush(pairs, (key(lcm), t, idx))

    for terms in term_dicts:
        if not terms:
            continue
        if t_max is not None and sum(next(iter(terms))[2:]) > t_max:
            continue
        nf = _nf_terms(terms, G, negkey, field) if G else dict(terms)
        if nf:
            add_gen(nf)

    while pairs:
        _, i, j = heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        li = G[i][0]
        lj = G[j][0]
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue
        chained = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            lk = G[k][0]
            if all(a <= b for a, b in zip(lk, lcm)) \
                    and (min(i, k), max(i, k)) in done \
                    and (min(j, k), max(j, k)) in done:
                chained = True
                break
        if chained:
            continue
        nf = _nf_terms(_spoly_terms(G[i], G[j], field), G, negkey, field)
        if nf:
            add_gen(nf)

    return _interreduce(G, key, negkey, field)


def _interreduce(G: list, key, negkey, field) -> list:
    kept = []
    for g in sorted(G, key=lambda g: key(g[0])):
        if not any(all(a <= b for a, b in zip(kl, g[0])) for kl, _ in kept):
            kept.append(g)
    # no kept lead divides another, so every lead survives the reduction by
    # the others and the list stays in ascending order
    return [(lead, _nf_terms(terms, kept[:i] + kept[i + 1:], negkey, field))
            for i, (lead, terms) in enumerate(kept)]


# -- public engine -----------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis, deterministically ordered by ascending lead.

    With t_max set it is the reduced basis restricted to T-degree <= t_max,
    and queries above that cap raise `WindowError`.
    """

    generators: tuple
    order: str = ORDER_DESCRIPTOR
    reduced: bool = True
    t_max: int | None = None

    @property
    def ring(self):
        return self.generators[0].ring if self.generators else None

    @cached_property
    def reducers(self) -> tuple:
        """Monic (lead, terms) pairs in the block order, one per generator."""
        if not self.generators:
            return ()
        key, _ = _key_funcs()
        return tuple(_monic(g.terms, key, self.ring.field)
                     for g in self.generators)


def buchberger(gens, t_max: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the given bihomogeneous generators.

    With t_max the basis stops at that T-degree (see the module docstring).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis(generators=(), t_max=t_max)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if not g.is_bihomogeneous():
            raise ValueError("generators must be bihomogeneous")
    key, negkey = _key_funcs()
    core = _buchberger_core([g.terms for g in gens], key, negkey, ring.field,
                            t_max)
    return GroebnerBasis(tuple(Poly(ring, dict(t)) for _, t in core),
                         t_max=t_max)


def _check_cap(G: GroebnerBasis, tdeg: int, what: str) -> None:
    if G.t_max is not None and tdeg > G.t_max:
        raise WindowError(f"{what} reaches T-degree {tdeg}, above the "
                          f"basis cap {G.t_max}")


def normal_form(p: Poly, G: GroebnerBasis) -> Poly:
    """Remainder of full multivariate division; zero iff p is in the ideal.

    Raises WindowError when p has a term above the basis's T-degree cap.
    """
    if p.is_zero():
        return p
    if G.t_max is not None:
        _check_cap(G, max(sum(m[2:]) for m in p.terms), "polynomial")
    if not G.generators:
        return p
    ring = p.ring
    if G.ring != ring:
        raise ValueError("polynomial and basis live in different rings")
    _, negkey = _key_funcs()
    return Poly(ring, _nf_terms(p.terms, G.reducers, negkey, ring.field))


# -- saturation -------------------------------------------------------------

def _saturate_var(gens, v: int, ring: PolyRing,
                  t_max: int | None = None) -> list:
    """Generators of (gens) : x_v^infinity for bihomogeneous gens (Bayer).

    The division step needs the ideal homogeneous in total degree, so the
    T-variables must carry x-weight 0, as they do in S.  With t_max,
    generators of the saturation up to that T-degree.
    """
    if any(ring.tweights):
        raise ValueError("saturation needs T-variables of x-weight 0")
    key, negkey = _key_funcs(last=v)
    core = _buchberger_core([g.terms for g in gens], key, negkey, ring.field,
                            t_max)
    out = []
    for _, terms in core:
        k = min(m[v] for m in terms)
        if k:
            terms = {m[:v] + (m[v] - k,) + m[v + 1:]: c
                     for m, c in terms.items()}
        out.append(Poly(ring, terms))
    return out


# -- bigraded accounting -----------------------------------------------------

def _check_window(window, G: GroebnerBasis):
    (xlo, xhi), (tlo, thi) = window
    if xlo > xhi or tlo > thi:
        raise ValueError("empty bidegree window")
    _check_cap(G, thi, "window")
    return int(xlo), int(xhi), int(tlo), int(thi)


_DIVIDES_CELLS = 1 << 20   # monomials x leads x variables per broadcast


def _first_divisors(monos, leads: np.ndarray) -> np.ndarray:
    """Per exponent tuple, the first row of the int64 array leads dividing
    it, or -1; broadcast in chunks of at most _DIVIDES_CELLS cells."""
    mons = np.array(monos, dtype=np.int64).reshape(len(monos), leads.shape[1])
    out = np.full(len(mons), -1, dtype=np.int64)
    step = max(1, _DIVIDES_CELLS // leads.size)
    for lo in range(0, len(mons), step):
        div = (mons[lo:lo + step, None, :] >= leads[None, :, :]).all(axis=2)
        out[lo:lo + step] = np.where(div.any(axis=1), div.argmax(axis=1), -1)
    return out


def bigraded_hilbert(G: GroebnerBasis, window) -> dict:
    """dim of the ideal's bidegree-(i,j) pieces over the window.

    The dimension is the number of monomials of S_(i,j) divisible by some
    lead of the reduced basis (the complement counts standard monomials),
    counted on the piece's exponent tuples.
    Raises WindowError for a window above the basis's T-degree cap.
    """
    xlo, xhi, tlo, thi = _check_window(window, G)
    if not G.generators:
        return {(i, j): 0 for i in range(xlo, xhi + 1)
                for j in range(tlo, thi + 1)}
    ring = G.ring
    leads = np.array([lead for lead, _ in G.reducers], dtype=np.int64)
    return {(i, j): int(np.count_nonzero(_first_divisors(
                gradedlin.piece_monomials(ring, i, j), leads) >= 0))
            for i in range(xlo, xhi + 1) for j in range(tlo, thi + 1)}


def minimal_generator_bidegrees(G: GroebnerBasis, window,
                                x_separator: int | None = None):
    """Bidegree counts of a minimal bihomogeneous generating set, windowed.

    The count at (i, j) is dim of the ideal's (i, j) piece minus the rank of
    the one-step-down span x0*P(i-1,j) + x1*P(i-1,j) + sum_a T_a*P(i,j-1),
    where P is the ideal's piece and a step that would leave the window is
    dropped.  A window that reaches down to the ideal's support therefore
    counts minimal generators of the ideal itself, while a window whose left
    column sits higher counts that column's elements as generators of the
    windowed module (the single-x-degree-slice point of view: only
    T-multiples are subtracted there).  Raises WindowError for a window above
    the basis's T-degree cap.

    A piece is held as pairs (k, shift) for x^shift * g_k, one per monomial
    mu of S_(i,j) with g_k the first basis element whose lead divides it:
    their leads are the distinct mu, so they are a basis of the piece.
    """
    xlo, xhi, tlo, thi = _check_window(window, G)
    counts: dict = {}
    if G.generators:
        ring = G.ring
        lead_list, terms = zip(*G.reducers)
        leads = np.array(lead_list, dtype=np.int64)
        units = [tuple(u) for u in np.eye(leads.shape[1], dtype=int).tolist()]
        pieces: dict = {}

        def ideal_piece(i, j):
            if (i, j) not in pieces:
                monos = gradedlin.piece_monomials(ring, i, j)
                hits = _first_divisors(monos, leads).tolist()
                pieces[(i, j)] = [(k, tuple(map(sub, m, lead_list[k])))
                                  for m, k in zip(monos, hits) if k >= 0]
            return pieces[(i, j)]

        for i in range(xlo, xhi + 1):
            for j in range(tlo, thi + 1):
                piece = ideal_piece(i, j)
                if not piece:
                    continue
                steps = []
                if i > xlo:
                    steps += [(p, u) for p in ideal_piece(i - 1, j)
                              for u in units[:2]]
                if j > tlo:
                    steps += [(p, u) for p in ideal_piece(i, j - 1)
                              for u in units[2:]]
                # the one-step-down span, each x^shift * g_k once
                below = dict.fromkeys((k, tuple(map(add, s, u)))
                                      for (k, s), u in steps)
                rows = gradedlin.shifted_rows(
                    [(terms[k], shift) for k, shift in below], ring, i, j)
                # products of ideal elements stay inside the piece
                gained = len(piece) - linalg.rank(
                    rows, gradedlin.piece_dim(ring, i, j), ring.field)
                if gained:
                    counts[(i, j)] = gained
    sep = x_separator if x_separator is not None else xlo - 1
    return combinat.BidegreeTable(counts=counts, x_separator=sep)


# -- pipeline-facing wrappers ------------------------------------------------

def saturated_ideal(inp: PresentationInput, m: int | None = None,
                    rational_check: bool = False,
                    t_max: int | None = None) -> GroebnerBasis:
    """Reduced basis of (g_1..g_m) : (x0,x1)^infinity (default: all columns).

    Computed as (g_1..g_m) : x1^infinity (see the module docstring).  With
    t_max the basis is the one restricted to T-degree <= t_max, and
    queries above that cap raise WindowError.  With rational_check=True the
    computation is repeated over the rationals (coefficients lifted
    symmetrically around zero) and the two initial ideals must agree;
    disagreement raises ArithmeticError (unlucky prime).  Intended for small
    instances only.
    """
    m = inp.n - 1 if m is None else m
    if not 1 <= m <= inp.n - 1:
        raise ValueError("column count out of range")

    def saturate(inp):
        gs = list(sym_equations(inp))[:m]
        return buchberger(_saturate_var(gs, 1, inp.sring, t_max), t_max)

    K = saturate(inp)
    if rational_check and inp.field.modulus is not None:
        KQ = saturate(_rational_twin(inp))
        mine = {lead for lead, _ in K.reducers}
        if mine != {lead for lead, _ in KQ.reducers}:
            raise ArithmeticError(
                "modular basis disagrees with the rational one; "
                "the prime looks unlucky for this instance")
    return K


def _rational_twin(inp: PresentationInput) -> PresentationInput:
    p = inp.field.modulus
    half = p // 2
    QQ = RationalField()
    base = ring_R(QQ)
    rows = []
    for row in inp.phi.rows:
        out = []
        for entry in row:
            out.append(Poly(base, {
                m: Fraction(c if c <= half else c - p)
                for m, c in entry.terms.items()}))
        rows.append(tuple(out))
    return load_presentation(QQ, inp.col_degrees, tuple(rows))
