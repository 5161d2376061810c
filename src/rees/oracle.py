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

The Buchberger core, its normal forms and its interreduction run on packed
monomials (Monagan-Pearce, "Sparse polynomial division using a heap", J.
Symb. Comput. 46, 2011): a `MonomialCodec` per term order makes each
exponent tuple one int whose comparison is the order, so a shift is one int
add, a lead is max(terms), the heap holds -m, and divisibility is a mask test
on a difference.  Packing happens at the boundary only: `buchberger` and
`_saturate_var` pack their inputs and unpack the basis, `normal_form` packs
its argument and reduces it against `GroebnerBasis.packed`, and
`GroebnerBasis.generators` and `.leads` stay on exponent tuples for `Poly`
and the counters below.  Each step reduces by the first basis lead dividing
the largest remaining term, as on tuples.  Every core run records its work
(pairs, skips by criterion, zero reductions, reduction steps, peak basis
size) in `GroebnerBasis.counters`.

Reduction uses the package's one multiply-accumulate kernel for F_p and Q,
`ring.sub_multiple`, which subtracts c * x^shift * g from a working terms dict
and reduces mod p only when the field has a modulus; it takes the shifted
monomials, so packed ints and `Poly`'s exponent tuples share its loop.  The
lead terms cancel inside it.  The heap-driven normal form `_nf_terms` calls
it once per reduction step, and `_spoly_terms` builds the S-polynomial with
two calls, one per shifted reducer.

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

import dataclasses
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, mul, sub

import numpy as np

from . import combinat, gradedlin, linalg
from .field import RationalField
from .ring import Poly, PolyRing, ring_R, sub_multiple
from .tower import PresentationInput, load_presentation, sym_equations

class WindowError(ValueError):
    """A query reaches above the T-degree cap its basis was computed to."""


# -- packed monomials -------------------------------------------------------

DIGIT_BITS = 16
DEGREE_BOUND = (1 << (DIGIT_BITS - 1)) - 1


class ExponentOverflowError(ValueError):
    """An exponent tuple whose total degree does not fit the packed digits."""


class MonomialCodec:
    """One term order on exponent tuples (e_x0, e_x1, e_T1..e_Tn) as one int.

    The order's comparison key is a tuple of linear forms in the exponents,
    and a monomial packs to that key read as one number in signed base-2^16
    digits, the first entry most significant:
      * block order (last=None): (T-degree, -e_Tn, .., -e_T1, x-degree,
        -e_x1, -e_x0), degrevlex within each block, T before x, x1 last;
      * last = v: (total degree, -e_xv, -e_x(1-v), -e_Tn, .., -e_T1), plain
        degrevlex with x_v last, the order in which a homogeneous basis
        divided by powers of x_v generates the saturation by x_v.
    Every digit lies within +-DEGREE_BOUND while the total degree does, so
    comparing ints compares keys, and the lead of a terms dict is max(terms).
    The key is linear, so packing is additive: x^a * x^b is one int add.
    Every exponent has a digit of its own, -e_v, so l divides m exactly when
    every such digit of l - m, which is e_v(m) - e_v(l), is nonnegative.
    Adding 2^15 to each degree digit below the top one (`bias`; the block
    order's x-degree) stops it from borrowing from the digits above, and
    then, reading l + bias - m in plain base 2^16, the lowest negative
    exponent digit sets the top bit of its field and no field is set
    without one: (l + bias - m) & guard == 0 is the test, `guard` holding
    the top bit of every exponent field.

    In S every term of a pair's reduction has the total degree of the pair's
    lcm, so the core packs each lcm through `pack`, whose bound check then
    covers the whole reduction.
    """

    def __init__(self, nvars: int, last: int | None = None):
        tdigits = [("neg", v) for v in reversed(range(2, nvars))]
        if last is None:
            rows = [("deg", range(2, nvars))] + tdigits \
                + [("deg", (0, 1)), ("neg", 1), ("neg", 0)]
        else:
            rows = [("deg", range(nvars)), ("neg", last),
                    ("neg", 1 - last)] + tdigits
        self.nvars = nvars
        self.units = [0] * nvars       # the packed exponent unit vectors
        self.bias = self.guard = 0
        self.fields = []               # (bit offset, v) of each -e_v digit
        half = 1 << (DIGIT_BITS - 1)
        for i, (kind, which) in enumerate(rows):
            at = DIGIT_BITS * (len(rows) - 1 - i)
            if kind == "deg":
                for v in which:
                    self.units[v] += 1 << at
                if i:
                    self.bias += half << at
            else:
                self.units[which] -= 1 << at
                self.guard += half << at
                self.fields.append((at, which))
        # adding `offset` makes every digit nonnegative for unpacking
        self.offset = sum(half << (DIGIT_BITS * i) for i in range(len(rows)))

    def pack(self, m) -> int:
        if min(m) < 0 or sum(m) > DEGREE_BOUND:
            raise ExponentOverflowError(
                f"exponents {tuple(m)} do not pack: each must be >= 0 and "
                f"the total degree at most {DEGREE_BOUND}")
        return sum(map(mul, m, self.units))

    def unpack(self, x: int) -> tuple:
        y = x + self.offset
        out = [0] * self.nvars
        mask = (1 << DIGIT_BITS) - 1
        half = 1 << (DIGIT_BITS - 1)
        for at, v in self.fields:
            out[v] = half - ((y >> at) & mask)
        return tuple(out)

    def divides(self, a: int, b: int) -> bool:
        return not (a + self.bias - b) & self.guard

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(m): c for m, c in terms.items()}


@cache
def _codec(nvars: int, last: int | None = None) -> MonomialCodec:
    return MonomialCodec(nvars, last)


# -- core reduction on packed monomials ---------------------------------------

@dataclass
class CoreCounts:
    """Work of one `_buchberger_core` run.

    pairs: S-pairs taken from the queue (each pair once), of which coprime
    and chain were skipped by the coprime-lead and chain criteria and zero
    reduced to zero; steps: reduction steps of every normal form the run
    computed, interreduction included; peak: largest basis size.
    """

    pairs: int = 0
    coprime: int = 0
    chain: int = 0
    zero: int = 0
    steps: int = 0
    peak: int = 0


def _monic(terms: dict, field) -> tuple:
    """(lead, terms scaled to lead coefficient 1) on packed monomials."""
    lead = max(terms)
    lc = terms[lead]
    if lc != 1:
        inv = field.inv(lc)
        terms = {m: field(c * inv) for m, c in terms.items()}
    return lead, terms


def _nf_terms(terms: dict, gens: list, codec: MonomialCodec, p,
              counts: CoreCounts | None = None) -> dict:
    """Full normal form of a packed terms dict against monic (lead, terms)
    reducers; each step uses the first reducer whose lead divides."""
    bias, guard = codec.bias, codec.guard
    tests = [(lead + bias, lead, g) for lead, g in gens]
    work = dict(terms)
    heap = [-m for m in work]      # a min-heap of -m pops the largest m
    heapify(heap)
    rem = {}
    steps = 0
    while heap:
        m = -heappop(heap)
        c = work.get(m)
        if not c:
            continue
        for lb, lead, g in tests:
            if (lb - m) & guard:
                continue
            steps += 1
            shift = m - lead
            for nm in sub_multiple(work, c, [gm + shift for gm in g],
                                   g.values(), p):
                heappush(heap, -nm)
            break
        else:
            rem[m] = c
            del work[m]
    if counts is not None:
        counts.steps += steps
    return rem


def _spoly_terms(gi: tuple, gj: tuple, lcm: int, p) -> dict:
    """S-polynomial of two monic packed (lead, terms) pairs with lcm lcm."""
    (li, ti), (lj, tj) = gi, gj
    si, sj = lcm - li, lcm - lj
    out = {}
    sub_multiple(out, -1, [m + si for m in ti], ti.values(), p)
    sub_multiple(out, 1, [m + sj for m in tj], tj.values(), p)
    return out


def _buchberger_core(term_dicts: list, codec: MonomialCodec, field,
                     t_max: int | None = None) -> tuple:
    """Reduced monic basis as packed (lead, terms) pairs, sorted by ascending
    lead, and the run's `CoreCounts`.

    Pair selection: smallest lcm first.  With a cap t_max, inputs and pairs
    above it are left out (see the module docstring).  Pairs with coprime
    leads are skipped; so is any pair whose lcm is divisible by a third lead
    when both associated pairs were already treated (treated pairs always
    predate the skip, so the justification is well-founded).
    """
    p = field.modulus
    G: list = []
    exps: list = []        # the leads as exponent tuples, for lcms and caps
    pairs: list = []
    done: set = set()
    counts = CoreCounts()

    def add_gen(terms):
        lead, terms = _monic(terms, field)
        e = codec.unpack(lead)
        idx = len(G)
        for t, et in enumerate(exps):
            lcm = tuple(map(max, et, e))
            if t_max is None or sum(lcm[2:]) <= t_max:
                heappush(pairs, (codec.pack(lcm), t, idx))
        G.append((lead, terms))
        exps.append(e)

    for terms in term_dicts:
        if not terms:
            continue
        if t_max is not None \
                and sum(codec.unpack(next(iter(terms)))[2:]) > t_max:
            continue
        nf = _nf_terms(terms, G, codec, p, counts) if G else dict(terms)
        if nf:
            add_gen(nf)

    while pairs:
        lcm, i, j = heappop(pairs)
        if (i, j) in done:
            continue
        done.add((i, j))
        counts.pairs += 1
        if lcm == G[i][0] + G[j][0]:        # coprime leads
            counts.coprime += 1
            continue
        chained = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if codec.divides(G[k][0], lcm) \
                    and (min(i, k), max(i, k)) in done \
                    and (min(j, k), max(j, k)) in done:
                chained = True
                break
        if chained:
            counts.chain += 1
            continue
        nf = _nf_terms(_spoly_terms(G[i], G[j], lcm, p), G, codec, p, counts)
        if nf:
            add_gen(nf)
        else:
            counts.zero += 1

    counts.peak = len(G)           # G only grows until the interreduction
    return _interreduce(G, codec, p, counts), counts


def _interreduce(G: list, codec: MonomialCodec, p, counts: CoreCounts) -> list:
    kept = []
    for g in sorted(G, key=itemgetter(0)):
        if not any(codec.divides(kl, g[0]) for kl, _ in kept):
            kept.append(g)
    # no kept lead divides another, so every lead survives the reduction by
    # the others and the list stays in ascending order
    return [(lead, _nf_terms(terms, kept[:i] + kept[i + 1:], codec, p, counts))
            for i, (lead, terms) in enumerate(kept)]


# -- public engine -----------------------------------------------------------

@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis, deterministically ordered by ascending lead.

    With t_max set it is the reduced basis restricted to T-degree <= t_max,
    and queries above that cap raise `WindowError`.  `counters` holds one
    `CoreCounts` per Buchberger run that built the basis, in run order; it
    takes no part in comparisons.
    """

    generators: tuple
    t_max: int | None = None
    counters: tuple = dataclasses.field(default=(), compare=False)

    @property
    def ring(self):
        return self.generators[0].ring if self.generators else None

    @cached_property
    def packed(self) -> tuple:
        """Monic (lead, terms) pairs on packed monomials, one per generator."""
        if not self.generators:
            return ()
        codec = _codec(self.ring.nvars)
        return tuple(_monic(codec.pack_terms(g.terms), self.ring.field)
                     for g in self.generators)

    @cached_property
    def leads(self) -> tuple:
        """The generators' lead monomials, as exponent tuples."""
        if not self.generators:
            return ()
        codec = _codec(self.ring.nvars)
        return tuple(codec.unpack(lead) for lead, _ in self.packed)


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
    if any(ring.tweights):
        raise ValueError("the oracle works in S, with T of x-weight 0")
    codec = _codec(ring.nvars)
    core, counts = _buchberger_core([codec.pack_terms(g.terms) for g in gens],
                                    codec, ring.field, t_max)
    return GroebnerBasis(tuple(Poly(ring, codec.unpack_terms(t))
                               for _, t in core),
                         t_max=t_max, counters=(counts,))


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
    codec = _codec(ring.nvars)
    return Poly(ring, codec.unpack_terms(_nf_terms(
        codec.pack_terms(p.terms), G.packed, codec, ring.field.modulus)))


# -- saturation -------------------------------------------------------------

def _saturate_var(gens, v: int, ring: PolyRing,
                  t_max: int | None = None) -> tuple:
    """Generators of (gens) : x_v^infinity for bihomogeneous gens (Bayer),
    and the `CoreCounts` of the Buchberger run.

    The division step needs the ideal homogeneous in total degree, so the
    T-variables must carry x-weight 0, as they do in S.  With t_max,
    generators of the saturation up to that T-degree.
    """
    if any(ring.tweights):
        raise ValueError("saturation needs T-variables of x-weight 0")
    codec = _codec(ring.nvars, last=v)
    core, counts = _buchberger_core([codec.pack_terms(g.terms) for g in gens],
                                    codec, ring.field, t_max)
    out = []
    for _, terms in core:
        terms = codec.unpack_terms(terms)
        k = min(m[v] for m in terms)
        if k:
            terms = {m[:v] + (m[v] - k,) + m[v + 1:]: c
                     for m, c in terms.items()}
        out.append(Poly(ring, terms))
    return out, counts


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
    leads = np.array(G.leads, dtype=np.int64)
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
    their leads are the distinct mu, so they are a basis of the piece.  The
    basis is reduced and monic, so each g_k is used as it stands.
    """
    xlo, xhi, tlo, thi = _check_window(window, G)
    counts: dict = {}
    if G.generators:
        ring = G.ring
        leads = np.array(G.leads, dtype=np.int64)
        units = [tuple(u) for u in np.eye(leads.shape[1], dtype=int).tolist()]
        pieces: dict = {}

        def ideal_piece(i, j):
            if (i, j) not in pieces:
                monos = gradedlin.piece_monomials(ring, i, j)
                hits = _first_divisors(monos, leads).tolist()
                pieces[(i, j)] = [(k, tuple(map(sub, m, G.leads[k])))
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
                    [(G.generators[k].terms, shift) for k, shift in below],
                    ring, i, j)
                # products of ideal elements stay inside the piece
                gained = len(piece) - linalg.rank(
                    rows, gradedlin.piece_dim(ring, i, j), ring.field)
                if gained:
                    counts[(i, j)] = gained
    sep = x_separator if x_separator is not None else xlo - 1
    return combinat.BidegreeTable(counts=counts, x_separator=sep)


# -- pipeline-facing wrappers ------------------------------------------------

def saturated_ideal(inp: PresentationInput, *, rational_check: bool = False,
                    t_max: int | None = None) -> GroebnerBasis:
    """Reduced basis of the Rees ideal (g_1..g_(n-1)) : (x0,x1)^infinity.

    Computed as (g_1..g_(n-1)) : x1^infinity (see the module docstring).  With
    t_max the basis is the one restricted to T-degree <= t_max, and
    queries above that cap raise WindowError.  With rational_check=True the
    computation is repeated over the rationals (coefficients lifted
    symmetrically around zero) and the two initial ideals must agree;
    disagreement raises ArithmeticError (unlucky prime).  Intended for small
    instances only.
    """
    def saturate(inp):
        gs = list(sym_equations(inp))
        sat, counts = _saturate_var(gs, 1, inp.sring, t_max)
        K = buchberger(sat, t_max)
        return dataclasses.replace(K, counters=(counts,) + K.counters)

    K = saturate(inp)
    if rational_check and inp.field.modulus is not None:
        KQ = saturate(_rational_twin(inp))
        if set(K.leads) != set(KQ.leads):
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
