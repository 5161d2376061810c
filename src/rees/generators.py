"""Producers of certified defining equations for the Rees algebra.

Every producer returns GeneratorRecord objects: a polynomial in the caller's
original T-coordinates together with its bidegree, how it was constructed,
and an independently checkable certificate:

  * recursion records h_alpha satisfy
        subst(h_alpha) = subst(g) * w^alpha
    in k[x0,x1][w1..ws], where g is the driving column equation and subst is
    the substitution T_j -> sum_i xi[i][j] w_i along the hull embedding;
  * sym-equation and scroll records have vanishing substitution image;
  * slice records hit a recorded hull-ring target exactly.

`_hull_image_records` certifies the first two kinds and the slice's vanishing
multiples of the first equation, a family per `level.subst_raw.apply_all`.

Slice records are preimages of hull-ring targets.  A `slice_generators` or
`almost_linear_generators` call collects its targets per bidegree, reads that
piece's image matrix once from `TowerLevel.image_rows` (one row per ambient
monomial, transposed into columns) and solves it for all of them with one
RREF; the image of each preimage is computed once and serves both the
exactness check and the record's certificate.

The recursion writes, at each exponent step alpha -> alpha - e_i, the
previous polynomial as a combination of the multiplication scalars p[i][j].
These are base-ring forms, so `gradedlin.solve_combination` solves one
k[x0,x1] matrix, one right-hand side per T-monomial of the previous
polynomial.  Replacing each scalar by its T-linear partner q[i][j] multiplies
the hull image by w_i.  Which coordinate is stepped first is a free choice
("pivot"); the resulting polynomials may differ but their hull images never
do.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import combinat, gradedlin, linalg
from .ring import Poly, RingMap, bidegree, promote
from .syzygy import scroll_matrix, scroll_realization_images
from .tower import (PresentationInput, TowerLevel, build_level, sym_equations)


@dataclass
class GeneratorRecord:
    """One emitted equation plus the evidence it was built correctly."""

    poly: Poly
    bidegree: tuple
    provenance: str              # sym-equation | recursion | slice | scroll
    alpha: tuple | None
    detail: dict = dc_field(default_factory=dict)
    certificate: str = ""
    certificate_ok: bool = False

    def as_dict(self) -> dict:
        return {
            "poly": str(self.poly),
            "bidegree": list(self.bidegree),
            "provenance": self.provenance,
            "alpha": list(self.alpha) if self.alpha is not None else None,
            "detail": self.detail,
            "certificate": self.certificate,
            "certificate_ok": self.certificate_ok,
        }


def _hull_image_records(level: TowerLevel, polys, expected, keys,
                        provenance: str, certificate: str) -> list:
    """One record per polynomial, certified when its hull image along
    `level.subst_raw` equals its expected image.

    `keys` gives each record's (alpha, detail).  The family goes through
    the map in one `apply_all`, which bounds its own merges.
    """
    images = level.subst_raw.apply_all(polys)
    return [GeneratorRecord(
        poly=poly, bidegree=bidegree(poly), provenance=provenance,
        alpha=alpha, detail=detail, certificate=certificate,
        certificate_ok=image == want)
        for poly, image, want, (alpha, detail)
        in zip(polys, images, expected, keys)]


def _pivot_index(alpha, rule: str) -> int:
    support = [i for i, a in enumerate(alpha) if a > 0]
    return support[0] if rule == "smallest" else support[-1]


def recursion_generators(level: TowerLevel, g_next: Poly,
                         pivot_rule: str = "smallest") -> list:
    """The family h_alpha with hull image subst(g_next) * w^alpha.

    Exponents run over the vectors of weight at most d_(m+1) - d_m supported
    on the positive twists; h_0 = g_next, and each step divides the previous
    polynomial by the multiplication scalars of the pivot coordinate and
    re-multiplies by their T-linear partners.  Emitted in ascending weight.
    """
    if pivot_rule not in ("smallest", "largest"):
        raise ValueError("pivot_rule must be 'smallest' or 'largest'")
    inp = level.inp
    if level.m > inp.n - 2:
        raise ValueError("no driving column beyond the top level")
    d_m = inp.col_degrees[level.m - 1]
    d_next = inp.col_degrees[level.m]
    if bidegree(g_next) != (d_next, 1):
        raise ValueError("driving equation must have bidegree (d_(m+1), 1)")
    sigma = level.sigma.sigma
    S = inp.sring
    alphas = combinat.below_weight_exponents(d_next - d_m + 1, sigma)
    scalars = [[promote(p, S) for p in row] for row in level.mult_scalars]

    hs, keys = {}, []
    for alpha in alphas:
        detail = {}
        if not any(alpha):
            h = level.to_level_coords(g_next)
        else:
            i = _pivot_index(alpha, pivot_rule)
            prev = hs[tuple(a - (1 if t == i else 0)
                            for t, a in enumerate(alpha))]
            coeffs = gradedlin.solve_combination(prev, scalars[i], S)
            if coeffs is None:
                raise ArithmeticError(
                    "recursion step unsolvable: multiplication scalars do not "
                    "reach the previous polynomial")
            h = S.zero()
            for a_j, q_j in zip(coeffs, level.mult_forms[i]):
                if not a_j.is_zero():
                    h = h + a_j * q_j
            detail = {"pivot": i + 1}
        hs[alpha] = h
        keys.append((alpha, detail))
    # one batch for the family's coordinate changes, one for its certificates
    polys = level.to_original_coords.apply_all(hs[a] for a in alphas)
    base_image = level.subst_raw(g_next)
    records = _hull_image_records(
        level, polys, [base_image * level.w_monomial(a) for a in alphas],
        keys, "recursion",
        "hull image equals the driving equation's image times w^alpha")
    for rec in records:
        want = (d_next - combinat.weight(rec.alpha, sigma), sum(rec.alpha) + 1)
        if rec.bidegree != want:
            raise ArithmeticError(f"recursion emitted bidegree {rec.bidegree},"
                                  f" expected {want}")
    return records


def tower_generators(inp: PresentationInput, m: int,
                     level: TowerLevel | None = None) -> list:
    """Sym-equation records for the first m columns plus the level-m recursion.

    `level` is the level-m data when the caller has already built it.
    """
    if not 1 <= m <= inp.n - 2:
        raise ValueError("level must lie between 1 and n-2")
    if level is None:
        level = build_level(inp, m)
    gs = sym_equations(inp)
    return _hull_image_records(
        level, gs[:m], [level.scroll.zero()] * m,
        [(None, {"column": j + 1}) for j in range(m)], "sym-equation",
        "hull image vanishes") + recursion_generators(level, gs[m])


def slice_basis(level: TowerLevel) -> tuple:
    """Scroll monomials completing the embedded image, one tuple per x-degree.

    Entry l spans a complement of the image of the ambient (l, 1) piece
    inside the hull ring's (l, 1) piece, for l = 0 .. d_1 - 2; the complement
    has dimension d_1 - l - 1.
    """
    inp = level.inp
    if inp.n != 3 or level.m != 1:
        raise ValueError("slice basis is defined for n = 3 at level 1")
    d1 = inp.col_degrees[0]
    out = []
    for l in range(d1 - 1):
        spanned = level.image_rows(l, 1)
        monos = gradedlin.piece_basis(level.scroll, l, 1)
        vectors = spanned + [gradedlin.coordinates(nu, l, 1) for nu in monos]
        chosen = [monos[k - len(spanned)]
                  for k in linalg.independent(vectors, inp.field)
                  if k >= len(spanned)]
        if len(chosen) != d1 - l - 1:
            raise ArithmeticError("hull quotient has unexpected dimension")
        out.append(tuple(chosen))
    return tuple(out)


def _preimage_records(level: TowerLevel, xdeg: int, pending) -> list:
    """Slice records whose polynomials are canonical preimages of targets.

    `pending` lists (hull-ring target, tdeg, alpha, detail, certificate) in
    emission order, and the records come back in that order.  The targets of
    one T-degree share the piece's image matrix, built once and solved for all
    of them by one RREF.  The preimages are imaged once, in one batch; each
    image both checks its preimage and certifies the record.
    """
    S = level.inp.sring
    by_tdeg: dict = {}
    for target, tdeg, *_ in pending:
        by_tdeg.setdefault(tdeg, []).append(target)
    preimages = {}
    for tdeg, targets in by_tdeg.items():
        sols = linalg.solve_many(
            level.image_rows(xdeg, tdeg),
            [gradedlin.coordinates(t, xdeg, tdeg) for t in targets],
            level.inp.field)
        if sols is None:
            raise ArithmeticError("hull-ring target misses the ambient image")
        preimages[tdeg] = iter([gradedlin.from_coordinates(sol, S, xdeg, tdeg)
                                for sol in sols])
    hs = [next(preimages[tdeg]) for _, tdeg, *_ in pending]
    images = level.subst.apply_all(hs)
    polys = level.to_original_coords.apply_all(hs)
    records = []
    for (target, tdeg, alpha, detail, certificate), image, poly in zip(
            pending, images, polys):
        ok = image == target
        if not ok:
            raise ArithmeticError("preimage check failed")
        records.append(GeneratorRecord(
            poly=poly, bidegree=(xdeg, tdeg),
            provenance="slice", alpha=alpha, detail=detail,
            certificate=certificate, certificate_ok=ok))
    return records


def _weight_drop_targets(level: TowerLevel, base: Poly, c: int,
                         certificate: str) -> list:
    """Pending targets base * x0^j * x1^k * w^alpha of the weight-drop family.

    One (target, tdeg, alpha, detail, certificate) entry per weight-drop
    monomial of weight c, as `_preimage_records` takes them.
    """
    sigma = level.sigma.sigma
    return [(base * level.scroll.monomial((j, k) + (0,) * len(sigma))
             * level.w_monomial(alpha), sum(alpha) + 1, alpha,
             {"part": "weight-drop", "xsplit": [j, k]}, certificate)
            for j, k, alpha in combinat.weight_drop_monomials(c, sigma)]


def slice_generators(inp: PresentationInput, i: int,
                     level: TowerLevel | None = None,
                     basis: tuple | None = None) -> list:
    """Generators of the degree-i slice of the Rees ideal as a k[T]-module.

    Defined for n = 3 and i >= d_1 - 1.  With c = d_2 - i, the supply is:
    x-monomial multiples of the first column equation; for c >= 1 the
    weight-drop family (hull targets subst(g_2) x0^j x1^k w^alpha) and the
    hull-basis family (targets subst(g_2) * mu * w^alpha for mu in the slice
    basis at the overshoot); for c <= 0 the x-monomial multiples of the second
    column equation and T-degree-1 hull-piece lifts.
    """
    if inp.n != 3:
        raise ValueError("slice construction requires n = 3")
    d1, d2 = inp.col_degrees
    if i < d1 - 1:
        raise ValueError("x-degree must be at least d_1 - 1")
    if level is None:
        level = build_level(inp, 1)
    sigma = level.sigma.sigma
    S = inp.sring
    g1, g2 = sym_equations(inp)
    base = level.driving_image
    c = d2 - i

    shifts = [(i - d1 - a, a) for a in range(i - d1 + 1)]
    records = _hull_image_records(
        level, [g1 * S.monomial(xs + (0,) * inp.n) for xs in shifts],
        [level.scroll.zero()] * len(shifts),
        [(None, {"part": "first-equation-multiple", "x0": x0, "x1": x1})
         for x0, x1 in shifts], "slice", "hull image vanishes")

    pending = []
    if c >= 1:
        pending += _weight_drop_targets(
            level, base, c, "hull image equals the second equation's image "
                            "times x^(j,k) w^alpha")
        if basis is None:
            basis = slice_basis(level)
        for alpha in combinat.minimal_weight_exponents(c, sigma):
            ell = combinat.weight(alpha, sigma) - c
            if ell > d1 - 2:
                continue
            for idx, nu in enumerate(basis[ell]):
                pending.append((
                    base * nu * level.w_monomial(alpha), sum(alpha) + 2, alpha,
                    {"part": "hull-basis", "excess": ell,
                     "basis_index": idx + 1},
                    "hull image equals the second equation's image times a "
                    "complement monomial and w^alpha"))
    else:
        for a in range(-c + 1):
            mono = S.monomial((-c - a, a) + (0,) * inp.n)
            poly = g2 * mono
            records.append(GeneratorRecord(
                poly=poly, bidegree=(i, 1), provenance="slice", alpha=None,
                detail={"part": "second-equation-multiple",
                        "x0": -c - a, "x1": a},
                certificate="x-monomial multiple of the second equation",
                certificate_ok=True))
        for nu in gradedlin.piece_basis(level.scroll, -c, 1):
            pending.append((
                base * nu, 2, None, {"part": "hull-piece", "w_monomial": str(nu)},
                "hull image equals the second equation's image times a hull "
                "monomial"))
    records.extend(_preimage_records(level, i, pending))
    return records


def u_span_dim(polys, ring, xdeg: int, tdeg: int) -> int:
    """Dimension of the (xdeg, tdeg) piece of the ideal the polys generate.

    It counts the span of every monomial multiple that lands in the piece;
    for polys of x-degree xdeg these are their T-multiples, the piece of
    their k[T]-span.
    """
    return linalg.rank(gradedlin.multiples(polys, ring, xdeg, tdeg),
                       gradedlin.piece_dim(ring, xdeg, tdeg), ring.field)


def trim_slice(records: list, i: int) -> list:
    """Greedy minimalization of a slice generating set.

    Drops any record (highest T-degree first, later records first within a
    T-degree) lying in the k[T]-span of the survivors at its own bidegree,
    then verifies the trimmed set spans the same module in every T-degree up
    to the maximum present plus two.
    """
    if not records:
        return []
    S = records[0].poly.ring
    alive = [True] * len(records)
    order = sorted(range(len(records)),
                   key=lambda t: (-records[t].bidegree[1], -t))
    for idx in order:
        tdeg = records[idx].bidegree[1]
        spanned = gradedlin.multiples([rec.poly for t, rec in enumerate(records)
                                       if alive[t] and t != idx], S, i, tdeg)
        vectors = spanned + [gradedlin.coordinates(records[idx].poly, i, tdeg)]
        if len(spanned) not in linalg.independent(vectors, S.field):
            alive[idx] = False
    trimmed = [rec for t, rec in enumerate(records) if alive[t]]
    maxt = max(rec.bidegree[1] for rec in records)
    everything = [rec.poly for rec in records]
    survivors = [rec.poly for rec in trimmed]
    for j in range(1, maxt + 3):
        if u_span_dim(survivors, S, i, j) != u_span_dim(everything, S, i, j):
            raise ArithmeticError("trimmed slice spans a smaller module")
    return trimmed


def almost_linear_generators(inp: PresentationInput) -> list:
    """Full defining-equation supply when all but the last column are linear.

    At the top level the hull is cut out by the 2x2 minors of a scroll-shaped
    matrix; the degree-zero piece identifies its coordinates with T-linear
    forms, so those minors pull back to equations directly.  The rest is the
    recursion driven by the last column plus the weight-drop family solved at
    x-degree zero.
    """
    n, d = inp.n, inp.col_degrees
    if any(dk != 1 for dk in d[:-1]):
        raise ValueError("requires every column degree before the last "
                         "to equal 1")
    m = n - 2
    level = build_level(inp, m)
    S, field = inp.sring, inp.field
    gs = sym_equations(inp)

    pres = scroll_matrix(level.sigma, field)
    index = {mu: r for r, mu in
             enumerate(gradedlin.piece_monomials(level.scroll, 0, 1))}
    # the ambient (0, 1) piece is T_1 .. T_n, in this order, and the
    # preimage of each hull monomial of the (0, 1) piece is a T-linear form
    sols = linalg.solve_many(level.image_rows(0, 1),
                             [{r: field.one} for r in range(len(index))], field)
    if sols is None:
        raise ArithmeticError("degree-zero hull piece is not spanned by the "
                              "coordinate images")
    coord_images = [gradedlin.from_coordinates(v, S, 0, 1) for v in sols]
    pull_back = RingMap([coord_images[index[next(iter(img.terms))]]
                         for img in scroll_realization_images(pres)], S)
    ncols = len(pres.gamma[0])
    pairs = [(a, b) for a in range(ncols) for b in range(a + 1, ncols)]
    records = _hull_image_records(
        level,
        level.to_original_coords.apply_all(pull_back.apply_all(pres.minors)),
        [level.scroll.zero()] * len(pairs),
        [(None, {"columns": [a + 1, b + 1]}) for a, b in pairs], "scroll",
        "hull image vanishes")
    records.extend(recursion_generators(level, gs[m]))

    base = level.driving_image
    records.extend(_preimage_records(level, 0, _weight_drop_targets(
        level, base, d[-1],
        "hull image equals the driving image times x^(j,k) w^alpha")))
    return records
