"""Per-level data for the tower of approximations of the Rees ideal.

Fixing 1 <= m <= n-1, the cokernel of the first m columns of the presentation
matrix embeds into a free module with twists sigma_1 >= ... >= sigma_s
(s = n - m).  `hull_embedding` finds it, by `graded_kernel` below the top
level and from the presentation's minors at the top level m = n - 1.
A TowerLevel packages:

  * the embedding matrix in raw and normalized form (normalization makes the
    degree-zero rows an identity block via a constant change of T-coordinates,
    then clears the remaining entries of those columns by row operations on
    the hull side);
  * for each hull row i, the kernel of the embedding with that row dropped,
    and the induced multiplication data: scalars p[i][j] in k[x0,x1] and
    T-linear forms q[i][j], which together drive the generator recursion
    ("multiply by w_i" expressed on representatives).

Everything user-facing is reported in the caller's original T-coordinates;
the recorded coordinate change maps back and forth.  A level holds its four
ring maps (the hull substitution along the raw and the normalized embedding,
the coordinate change and its inverse) as `RingMap`s built once, so each
T-monomial is imaged once per map for the life of the level, and callers apply
them a family of polynomials at a time.  `TowerLevel.image_rows` writes the
hull images of an ambient piece as rows straight from the substitution's
memo, through `gradedlin.image_rows`; `TowerLevel.driving_image` images the
driving equation once per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import gradedlin, linalg
from .ring import (GradingError, Poly, PolyRing, RingMap, bidegree,
                   linear_images, promote, ring_S, ring_scroll)
from .syzygy import (GradedMatrix, SigmaInvariants, graded_kernel,
                     matrix_from_rows, matrix_product, signed_maximal_minors)


class NormalizationError(RuntimeError):
    """Constant rows of the embedding failed to reduce to an identity block."""


@dataclass(frozen=True)
class PresentationInput:
    """A validated n x (n-1) graded presentation matrix and its ambient rings."""

    field: object
    n: int
    col_degrees: tuple
    phi: GradedMatrix
    minors: tuple           # signed maximal minors, unit gcd guaranteed
    base: PolyRing          # k[x0,x1]
    sring: PolyRing         # k[x0,x1][T1..Tn]


def check_col_degrees(n: int, col_degrees) -> tuple:
    """col_degrees as a tuple, checked to be n - 1 nondecreasing degrees >= 1
    for some n >= 3."""
    col_degrees = tuple(col_degrees)
    if n < 3:
        raise ValueError("need n >= 3 rows")
    if len(col_degrees) != n - 1:
        raise ValueError(f"need {n - 1} column degrees for n = {n}")
    if any(d < 1 for d in col_degrees):
        raise ValueError("column degrees must be >= 1")
    if any(col_degrees[j] > col_degrees[j + 1] for j in range(n - 2)):
        raise ValueError("column degrees must be nondecreasing")
    return col_degrees


def load_presentation(field, col_degrees, phi_rows) -> PresentationInput:
    """Validate and package a presentation matrix.

    phi_rows are base-ring polynomials, n rows by n-1 columns, entry (i,j)
    homogeneous of degree col_degrees[j] >= 1.  Zero columns are rejected, and
    the signed maximal minors must have unit gcd (height two).
    """
    n = len(phi_rows)
    col_degrees = check_col_degrees(n, col_degrees)
    if any(len(row) != n - 1 for row in phi_rows):
        raise ValueError(f"ragged matrix: every row needs {n - 1} entries")
    phi = matrix_from_rows(phi_rows[0][0].ring, phi_rows, col_degrees)
    for j in range(n - 1):
        if all(phi.rows[i][j].is_zero() for i in range(n)):
            raise ValueError(f"column {j + 1} of the presentation matrix is zero")
    minors = tuple(signed_maximal_minors(phi))
    return PresentationInput(field, n, col_degrees, phi,
                             minors, phi.ring, ring_S(field, n))


def hull_embedding(inp: PresentationInput, m: int):
    """(SigmaInvariants, xi) for the level-m cokernel.

    xi is the s x n matrix over R whose rows generate the kernel of the
    transpose of the first m columns, listed by nonincreasing row degree
    (stable within a degree, so equal-degree rows keep the canonical kernel
    order).  Row i is homogeneous of degree sigma_i and xi * phi_m = 0.

    Levels m < n - 1 read the rows off `graded_kernel`.  At the top level m =
    n - 1 the kernel of phi^T is free of rank one, generated in degree D =
    sum(col_degrees) by inp.minors (Hilbert-Burch; their gcd was checked on
    loading).  They are scaled as graded_kernel's degree-D nullspace scales
    its one vector, whose RREF free column is its last nonzero coordinate:
    the last coefficient of the last nonzero minor becomes one.
    """
    n, phi = inp.n, inp.phi
    if not 1 <= m <= n - 1:
        raise ValueError(f"level m must be in 1..{n - 1}")
    budget = sum(inp.col_degrees[:m])
    if m == n - 1:
        f = next(f for f in reversed(inp.minors) if not f.is_zero())
        last = gradedlin.coordinates(f, f.xdeg())
        scale = inp.field.inv(last[max(last)])
        xi_rows = (tuple(g.scale(scale) for g in inp.minors),)
        if any(not p.is_zero()
               for p in matrix_product(xi_rows, phi.rows, inp.base)[0]):
            raise ArithmeticError(
                "internal error: the minors vector fails xi*phi = 0")
        sigma = (f.xdeg(),)
    else:
        kernel = graded_kernel(phi.first_columns(m).transpose(), n - m, budget)
        cols = sorted(range(kernel.ncols),
                      key=lambda k: -kernel.col_degrees[k])
        sigma = tuple(kernel.col_degrees[k] for k in cols)
        xi_rows = tuple(tuple(kernel.rows[j][k] for j in range(n))
                        for k in cols)
    if sum(sigma) != budget:
        raise ArithmeticError(f"internal error: hull twists {sigma} do not "
                              f"sum to the degree budget {budget}")
    return SigmaInvariants(sigma), GradedMatrix(inp.base, xi_rows, (0,) * n, sigma)


def sym_equations(inp: PresentationInput) -> tuple:
    """The T-linear equations (g_1 .. g_(n-1)) = [T_1 .. T_n] * phi."""
    gs = linear_images(inp.phi.rows, inp.sring)
    for j, g in enumerate(gs):
        if bidegree(g) != (inp.col_degrees[j], 1):
            raise GradingError(f"g_{j + 1} has bidegree {bidegree(g)}, "
                               f"expected {(inp.col_degrees[j], 1)}")
    return gs


def evaluation_membership(inp: PresentationInput, polys) -> list:
    """Whether each of polys vanishes under T_i -> y * f_i (f_i the minors).

    This is exact membership in the full defining ideal of the Rees algebra,
    checked by plain polynomial expansion in k[x0,x1,y] -- no basis
    computation involved, so it cross-checks every other engine.  All polys
    go through one map, so each T-monomial is expanded once, and the map
    bounds the memo rows each of its merges gathers (`ring.MERGE_ROWS`).
    """
    target = PolyRing(inp.field, ("y",), (0,))
    y = target.var("y")
    evaluate = RingMap([promote(f, target) * y for f in inp.minors], target)
    return [image.is_zero() for image in evaluate.apply_all(polys)]


@dataclass(frozen=True)
class TowerLevel:
    m: int
    inp: PresentationInput
    sigma: SigmaInvariants
    embed_raw: GradedMatrix      # s x n, original T-coordinates
    embed: GradedMatrix          # s x n, normalized level coordinates
    coord_change: tuple          # chi: level variable k = sum_j chi[j][k] T_j
    drop_row_kernels: tuple      # one n x (m+1) matrix per hull row
    mult_scalars: tuple          # p[i][j] in k[x0,x1]
    mult_forms: tuple            # q[i][j] in S, T-degree 1
    scroll: PolyRing             # k[x0,x1][w1..ws], deg w_i = (-sigma_i, 1)
    # the level's four ring maps, each imaging a T-monomial once per level
    subst: RingMap               # level coordinates into k[x0,x1][w]:
                                 #   T_j -> sum_i embed[i][j] w_i
    subst_raw: RingMap           # original coordinates into k[x0,x1][w]:
                                 #   T_j -> sum_i embed_raw[i][j] w_i
    to_original_coords: RingMap  # level T_k -> sum_j chi[j][k] T_j
    to_level_coords: RingMap     # original T_k -> sum_j chi^-1[j][k] T_j

    def w_monomial(self, alpha) -> Poly:
        exps = (0, 0) + tuple(alpha)
        return self.scroll.monomial(exps)

    @cached_property
    def driving_image(self) -> Poly:
        """subst of the driving equation g_(m+1), in level coordinates: the
        base of the slice and weight-drop targets, imaged once per level."""
        return self.subst(self.to_level_coords(sym_equations(self.inp)[self.m]))

    def image_rows(self, xdeg: int, tdeg: int) -> list:
        """Coefficient vectors of subst(mu) on the hull ring's (xdeg, tdeg)
        piece, one per monomial mu of the ambient piece, in canonical order."""
        return gradedlin.image_rows(self.subst, self.inp.sring, xdeg, tdeg)


def _identity(n, field):
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def _normalize_embedding(xi: GradedMatrix, sigma: SigmaInvariants):
    """Constant column change + hull row operations per the normal form.

    Returns (chi, chi_inv, normalized_xi_rows).  With C the constant rows,
    chi_inv is the unit rows at the free columns of RREF(C) followed by C, so
    its inverse chi has as columns the canonical kernel vectors of C, then
    the free-variables-zero solutions of C v = e_k, and is built from them.
    After the change the last s - r rows are [0 | identity] and the
    positive-degree rows vanish on the last s - r columns.
    """
    field = xi.ring.field
    n = xi.ncols
    s, r = sigma.s, sigma.r
    if r == s:
        ident = _identity(n, field)
        return ident, ident, xi.rows
    zero_exps = (0, 0)
    const = tuple(tuple(p.coefficient(zero_exps) for p in xi.rows[k])
                  for k in range(r, s))
    # C's columns, as sparse vectors
    cols = [{k: row[j] for k, row in enumerate(const) if row[j]}
            for j in range(n)]
    pivots = linalg.independent(cols, field)
    if len(pivots) != s - r:
        raise NormalizationError("constant rows of the embedding are dependent")
    chi_inv = tuple(row for j, row in enumerate(_identity(n, field))
                    if j not in pivots) + const
    sols = linalg.solve_many(cols, [{k: field.one} for k in range(s - r)],
                             field)
    if sols is None:
        raise NormalizationError("column change is singular")
    columns = linalg.nullspace(cols, field) + sols
    chi = tuple(tuple(v.get(j, field.zero) for v in columns)
                for j in range(n))

    changed = [list(row) for row in matrix_product(xi.rows, chi, xi.ring)]
    if any(changed[r + k][j]
           != xi.ring.monomial(zero_exps, int(j == n - (s - r) + k))
           for k in range(s - r) for j in range(n)):
        raise NormalizationError("identity block did not materialize")
    for i in range(r):
        for k in range(s - r):
            b = changed[i][n - (s - r) + k]
            if b.is_zero():
                continue
            changed[i] = [changed[i][j] - b * changed[r + k][j] for j in range(n)]
    if any(not changed[i][n - (s - r) + k].is_zero()
           for i in range(r) for k in range(s - r)):
        raise NormalizationError("identity-block columns not cleared from "
                                 "the positive-degree rows")
    return chi, chi_inv, tuple(tuple(row) for row in changed)


def build_level(inp: PresentationInput, m: int) -> TowerLevel:
    """All level-m data: embedding, normalization, and multiplication tables."""
    sigma, xi_raw = hull_embedding(inp, m)
    chi, chi_inv, norm_rows = _normalize_embedding(xi_raw, sigma)
    embed = GradedMatrix(inp.base, norm_rows, (0,) * inp.n, sigma.sigma).validate()
    S = inp.sring
    kernels, scalars, forms = [], [], []
    for i in range(sigma.s):
        budget = sum(sigma.sigma) - sigma.sigma[i]
        rho = graded_kernel(embed.drop_row(i), m + 1, budget)
        kernels.append(rho)
        scalars.append(matrix_product([embed.rows[i]], rho.rows, inp.base)[0])
        forms.append(linear_images(rho.rows, S))
    scroll = ring_scroll(inp.field, sigma.sigma)
    return TowerLevel(
        m=m, inp=inp, sigma=sigma, embed_raw=xi_raw, embed=embed,
        coord_change=chi, drop_row_kernels=tuple(kernels),
        mult_scalars=tuple(scalars), mult_forms=tuple(forms), scroll=scroll,
        subst=RingMap(linear_images(embed.rows, scroll), scroll),
        subst_raw=RingMap(linear_images(xi_raw.rows, scroll), scroll),
        to_original_coords=RingMap(linear_images(chi, S), S),
        to_level_coords=RingMap(linear_images(chi_inv, S), S))


def check_truncation_equality(level: TowerLevel, x_window, t_max: int):
    """Compare embedded-piece dimensions against the scroll piece count.

    For x-degree at or past d_m - 1 the image of the bidegree-(i,j) piece of
    the ambient ring inside k[x0,x1][w] must fill the whole piece of
    nonnegative-support monomials; the report lists (i, j, image dim, piece
    dim) for every bidegree in the window.
    """
    d_m = level.inp.col_degrees[level.m - 1]
    lo = min(x_window)
    if lo < d_m - 1:
        raise ValueError(f"window must start at x-degree >= {d_m - 1}")
    report = []
    for i in x_window:
        for j in range(1, t_max + 1):
            want = gradedlin.piece_dim(level.scroll, i, j)
            got = linalg.rank(level.image_rows(i, j), want, level.inp.field)
            report.append((i, j, got, want))
    return report


def hull_quotient_hilbert(level: TowerLevel):
    """Hilbert function of (free hull)/(embedded module), from the resolution.

    H(i) = sum_k dim R(sigma_k)_i - n*dim R_i + sum_(k<=m) dim R(-d_k)_i,
    clamped at zero.  For n = 3, m = 1 this must equal d_1 - i - 1 on the
    window [-1, d_1 - 1]; `rees check` and the tests compare those values.
    """
    sigma = level.sigma.sigma
    n = level.inp.n
    degs = level.inp.col_degrees[:level.m]

    def dim_R(t):
        return t + 1 if t >= 0 else 0

    def H(i):
        val = (sum(dim_R(i + sk) for sk in sigma) - n * dim_R(i)
               + sum(dim_R(i - d) for d in degs))
        return max(val, 0)

    return H
