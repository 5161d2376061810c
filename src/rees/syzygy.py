"""Graded matrices over k[x0,x1] and the syzygy computations built on them.

The two workhorses:

  * signed_maximal_minors -- the alternating-sign maximal minors of an
    n x (n-1) presentation matrix, with the height-two validation: one rank
    of the minors' multiples in degree 2D - 1 (D the minors' degree);
    `tower.load_presentation` is its one caller, and the presentation keeps
    the minors;
  * graded_kernel -- minimal homogeneous generators of the kernel of a graded
    map between free modules, found degree by degree as nullspaces of a ring
    map's piece rows (kernels over a two-variable polynomial ring are free, so
    a generator count plus a degree budget pin the answer exactly).

`SigmaInvariants` holds a level's hull twists, which `tower.hull_embedding`
reads off these two.  `matrix_product` is the one product of polynomial
matrices.  Plus the scroll presentation: the 2 x (1 + sum sigma_i) matrix in
fresh coordinates whose 2 x 2 minors cut out the scroll that the hull's Rees
algebra lives on.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import gradedlin, linalg
from .ring import GradingError, Poly, PolyRing, RingMap, linear_images


class HeightError(ValueError):
    """The ideal of maximal minors fails the height-two requirement."""


class KernelBudgetError(ValueError):
    """graded_kernel ran out of degree budget before finding enough generators."""


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of homogeneous base-ring polynomials with a declared grading.

    Entry (i, j) is homogeneous of degree col_degrees[j] + row_twists[i]
    (or zero).  rows is a tuple of tuples of Poly.
    """

    ring: PolyRing
    rows: tuple
    col_degrees: tuple
    row_twists: tuple

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.col_degrees)

    def validate(self) -> "GradedMatrix":
        if len(self.row_twists) != self.nrows:
            raise ValueError(f"row twist count {len(self.row_twists)} "
                             f"differs from row count {self.nrows}")
        for i, row in enumerate(self.rows):
            if len(row) != self.ncols:
                raise ValueError("ragged matrix")
            for j, p in enumerate(row):
                if p.ring != self.ring:
                    raise ValueError("entry from a foreign ring")
                if p.is_zero():
                    continue
                want = self.col_degrees[j] + self.row_twists[i]
                if p.xdeg() != want:
                    raise GradingError(
                        f"entry ({i},{j}) has degree {p.xdeg()}, expected {want}")
        return self

    def transpose(self) -> "GradedMatrix":
        rows = tuple(tuple(self.rows[i][j] for i in range(self.nrows))
                     for j in range(self.ncols))
        return GradedMatrix(self.ring, rows, self.row_twists, self.col_degrees)

    def first_columns(self, m: int) -> "GradedMatrix":
        rows = tuple(row[:m] for row in self.rows)
        return GradedMatrix(self.ring, rows, self.col_degrees[:m], self.row_twists)

    def drop_row(self, i: int) -> "GradedMatrix":
        rows = self.rows[:i] + self.rows[i + 1:]
        twists = self.row_twists[:i] + self.row_twists[i + 1:]
        return GradedMatrix(self.ring, rows, self.col_degrees, twists)


def matrix_from_rows(ring: PolyRing, rows, col_degrees, row_twists=None) -> GradedMatrix:
    rows = tuple(tuple(row) for row in rows)
    if row_twists is None:
        row_twists = (0,) * len(rows)
    return GradedMatrix(ring, rows, tuple(col_degrees), tuple(row_twists)).validate()


# -- products, determinants and minors ---------------------------------------

def matrix_product(A, B, ring: PolyRing) -> tuple:
    """The rows of A * B over `ring`.

    Entries of A and B are polynomials of `ring` or field scalars; a scalar c
    stands for the constant polynomial c.
    """
    def lift(row):
        return [e if isinstance(e, Poly) else ring.one().scale(e) for e in row]

    A, B = [lift(row) for row in A], [lift(row) for row in B]
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), ring.zero())
                       for col in zip(*B)) for row in A)


def determinant(rows) -> Poly:
    """Determinant of a square matrix of polynomials, by Laplace expansion."""
    k = len(rows)
    ring = rows[0][0].ring
    memo = {}

    def minor(row_idx, col):
        if not row_idx:
            return ring.one()
        key = (row_idx, col)
        got = memo.get(key)
        if got is not None:
            return got
        acc = ring.zero()
        for pos, i in enumerate(row_idx):
            e = rows[i][col]
            if e.is_zero():
                continue
            sub = minor(row_idx[:pos] + row_idx[pos + 1:], col + 1)
            term = e * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[key] = acc
        return acc

    return minor(tuple(range(k)), 0)


def signed_maximal_minors(phi: GradedMatrix):
    """The n alternating-sign maximal minors of an n x (n-1) graded matrix.

    Entry i is (-1)^i * det(phi with row i deleted) (rows 0-indexed, so the
    first minor comes with a plus sign).  Raises HeightError, naming the
    degree of the common factor, unless the minors are not all zero and have
    unit gcd.  The test assumes the nonzero minors share one degree, as they
    do for the untwisted rows `load_presentation` builds (D = sum(col_degrees)).
    """
    n = phi.nrows
    if phi.ncols != n - 1:
        raise ValueError(f"expected an n x (n-1) matrix, got {n} x {phi.ncols}")
    minors = []
    for i in range(n):
        sub = [list(phi.rows[k]) for k in range(n) if k != i]
        d = determinant(sub)
        minors.append(d if i % 2 == 0 else -d)
    nonzero = [f for f in minors if not f.is_zero()]
    if not nonzero:
        raise HeightError("all maximal minors vanish")
    D = nonzero[0].xdeg()
    # Hilbert-Burch: D-forms with no common factor span all of R_(2D-1), and a
    # common factor of degree k leaves exactly k of its 2D dimensions out
    got = linalg.rank(gradedlin.multiples(nonzero, phi.ring, 2 * D - 1),
                      2 * D, phi.ring.field)
    if got < 2 * D:
        raise HeightError(f"height < 2: maximal minors share a common factor "
                          f"of degree {2 * D - got}")
    return minors


# -- graded kernels -----------------------------------------------------------

def graded_kernel(M: GradedMatrix, expected_rank: int, degree_budget: int) -> GradedMatrix:
    """Minimal homogeneous generators of ker(M), as matrix columns.

    A vector v is the T-degree-1 polynomial sum_j v_j e_j, e_j of x-degree
    col_degrees[j], and M the ring map e_j -> sum_i M[i][j] f_i, f_i of
    x-degree -row_twists[i].  Scanning L = 0, 1, ... the degree-L kernel is
    the nullspace of the map's image rows on the (L, 1) piece; we discard what
    x-multiples of earlier generators already span and keep canonical new
    generators.  The search succeeds when expected_rank generators with
    degree sum degree_budget are found; running past the budget raises
    KernelBudgetError (the symptom of an input that violates the
    height/grading hypotheses).  The unknowns follow the piece's canonical
    order, which is by component, then x0-heavy first, when col_degrees is
    nondecreasing, as the tower's all-zero column degrees are.

    Column degrees of the result are nondecreasing, and M * result == 0.
    """
    ring = M.ring
    field = ring.field
    q = M.ncols
    E = PolyRing(field, tuple(f"e{j + 1}" for j in range(q)), M.col_degrees)
    F = PolyRing(field, tuple(f"f{i + 1}" for i in range(M.nrows)),
                 tuple(-t for t in M.row_twists))
    # a matrix with no rows (a one-row embedding with its row dropped) has no
    # column count for linear_images to read
    apply_M = RingMap(linear_images(M.rows, F) if M.rows else [F.zero()] * q, F)
    found = []          # (degree, generator in E)
    L = 0
    while True:
        done = (len(found) == expected_rank
                and sum(d for d, _ in found) == degree_budget)
        if done:
            break
        if L > degree_budget:
            raise KernelBudgetError(
                f"degree budget {degree_budget} exhausted with "
                f"{len(found)}/{expected_rank} kernel generators found")
        total = gradedlin.piece_dim(E, L, 1)
        if total:
            images = gradedlin.image_rows(apply_M, E, L, 1)
            basis = linalg.nullspace(images, field)
            if basis:
                # keep the candidates the x-multiples of earlier generators
                # do not already span
                spanned = gradedlin.multiples([v for _, v in found], E, L, 1)
                for k in linalg.independent(spanned + basis, field):
                    if k >= len(spanned):
                        found.append((L, gradedlin.from_coordinates(
                            basis[k - len(spanned)], E, L, 1)))
        L += 1

    rows = tuple(tuple(Poly(ring, {m[:2]: c for m, c in vec.terms.items()
                                   if m[2 + j]}) for _, vec in found)
                 for j in range(q))
    kernel = GradedMatrix(ring, rows,
                          tuple(d for d, _ in found),
                          tuple(-c for c in M.col_degrees))
    if any(not p.is_zero() for row in matrix_product(M.rows, rows, ring)
           for p in row):
        raise ArithmeticError("internal error: kernel column fails M*v = 0")
    return kernel


# -- sigma invariants ---------------------------------------------------------

@dataclass(frozen=True)
class SigmaInvariants:
    """Twists of the free hull of the cokernel of the first m columns.

    sigma is nonincreasing with nonnegative entries; s = len(sigma) = n - m;
    r counts the strictly positive entries; sum(sigma) = d_1 + ... + d_m.
    """

    sigma: tuple

    def __post_init__(self):
        if any(self.sigma[i] < self.sigma[i + 1] for i in range(len(self.sigma) - 1)):
            raise ValueError("sigma must be nonincreasing")
        if any(v < 0 for v in self.sigma):
            raise ValueError("sigma entries must be nonnegative")

    @property
    def r(self) -> int:
        return sum(1 for v in self.sigma if v > 0)

    @property
    def s(self) -> int:
        return len(self.sigma)


# -- scroll presentation ------------------------------------------------------

@dataclass(frozen=True)
class ScrollPresentation:
    """2 x (1 + sum of positive sigma_i) matrix whose 2x2 minors cut the scroll.

    ring has one bidegree-(0,1) coordinate v{i}{j} per pair (i, 0 <= j <=
    sigma_i); under v{i}{j} -> x0^(sigma_i - j) * x1^j * w_i those minors all
    vanish in the hull's coordinate ring.
    """

    sigma: SigmaInvariants
    ring: PolyRing
    gamma: tuple          # two rows of ring elements
    minors: tuple


def scroll_matrix(sigma: SigmaInvariants, field) -> ScrollPresentation:
    names = tuple(f"v{i + 1}{j}"
                  for i, si in enumerate(sigma.sigma)
                  for j in range(si + 1))
    V = PolyRing(field, names, (0,) * len(names))

    def coord(i, j):
        return V.var(f"v{i + 1}{j}")

    top = [V.var("x0")]
    bottom = [V.var("x1")]
    for i, si in enumerate(sigma.sigma):
        for j in range(1, si + 1):
            top.append(coord(i, j - 1))
            bottom.append(coord(i, j))
    minors = []
    ncols = len(top)
    for a in range(ncols):
        for b in range(a + 1, ncols):
            minors.append(top[a] * bottom[b] - top[b] * bottom[a])
    return ScrollPresentation(sigma, V, (tuple(top), tuple(bottom)), tuple(minors))


def scroll_realization_images(pres: ScrollPresentation):
    """Images of the scroll coordinates in the hull ring k[x0,x1][w1..ws].

    Coordinate v{i}{j} maps to x0^(sigma_i - j) * x1^j * w_i; substituting
    these into the 2x2 minors gives zero, which is the scroll presentation's
    defining property and a cheap self-check.
    """
    from .ring import ring_scroll
    sigma = pres.sigma.sigma
    target = ring_scroll(pres.ring.field, sigma)
    s = len(sigma)
    images = []
    for i, si in enumerate(sigma):
        for j in range(si + 1):
            exps = [si - j, j] + [0] * s
            exps[2 + i] = 1
            images.append(target.monomial(exps))
    return images
