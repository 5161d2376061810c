import dataclasses
import random
import time

import pytest

from conftest import fixture_path
from rees import cli, linalg, oracle, syzygy, tower
from rees.field import PrimeField, RationalField
from rees.ring import GradingError, Poly, parse_poly, ring_R
from rees.syzygy import (
    GradedMatrix,
    HeightError,
    KernelBudgetError,
    SigmaInvariants,
    graded_kernel,
    determinant,
    matrix_from_rows,
    matrix_product,
    scroll_matrix,
    scroll_realization_images,
    signed_maximal_minors,
)
from rees.tower import hull_embedding, load_presentation

F = PrimeField(32003)
R = ring_R(F)


def mat(rows, col_degrees, row_twists=None):
    parsed = [[parse_poly(e, R) if isinstance(e, str) else e for e in row]
              for row in rows]
    return matrix_from_rows(R, parsed, col_degrees, row_twists)


def is_zero_product(M, vec_entries):
    # rows of M dotted against a column vector
    for i in range(M.nrows):
        acc = R.zero()
        for j in range(M.ncols):
            acc = acc + M.rows[i][j] * vec_entries[j]
        if not acc.is_zero():
            return False
    return True


# -- GradedMatrix bookkeeping -------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ValueError, match="ragged"):
        mat([["x0", "x1"], ["x0"]], (1, 1))
    with pytest.raises(GradingError):
        mat([["x0^2"], ["x1"]], (1,))


def test_matrix_validation_counts_the_row_twists():
    # one twist per row: too few used to die with an IndexError, and too many
    # were accepted until graded_kernel failed on its weights
    x0, x1 = R.var("x0"), R.var("x1")
    with pytest.raises(ValueError, match="row twist count 1 differs from "
                                         "row count 2"):
        matrix_from_rows(R, [[x0], [x1]], (1,), (0,))
    with pytest.raises(ValueError, match="row twist count 2 differs from "
                                         "row count 1"):
        matrix_from_rows(R, [[x0]], (1,), (0, 5))


def test_matrix_accepts_zero_entries():
    M = mat([["x0", "0"], ["0", "x1"]], (1, 1))
    assert M.rows[0][1].is_zero()


def test_transpose_and_slices():
    M = mat([["x0^2", "x1^3"], ["x0*x1", "0"], ["x1^2", "x0^3"]], (2, 3))
    T = M.transpose()
    assert T.nrows == 2 and T.ncols == 3
    assert T.rows[1][0] == M.rows[0][1]
    assert T.transpose().rows == M.rows
    first = M.first_columns(1)
    assert first.ncols == 1 and first.col_degrees == (2,)
    dropped = M.drop_row(1)
    assert dropped.nrows == 2
    assert dropped.rows[1][1] == M.rows[2][1]


def naive_product(A, B, ring):
    # the schoolbook triple loop, each product formed by the entries' kinds
    def times(a, b):
        if isinstance(a, Poly) and isinstance(b, Poly):
            return a * b
        if isinstance(a, Poly):
            return a.scale(b)
        if isinstance(b, Poly):
            return b.scale(a)
        return ring.monomial((0, 0), a * b)

    out = []
    for i in range(len(A)):
        row = []
        for k in range(len(B[0])):
            acc = ring.zero()
            for j in range(len(B)):
                acc = acc + times(A[i][j], B[j][k])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(32003),
                                   RationalField()], ids=["F_7", "F_32003", "Q"])
def test_matrix_product_matches_the_triple_loop(field):
    ring = ring_R(field)
    rng = random.Random(1)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return field.zero
        if kind == 1:
            return field(rng.randrange(-3, 4))
        if kind == 2:
            return ring.zero()
        deg = rng.randrange(3)
        return ring.from_terms({(deg - a, a): rng.randrange(-3, 4)
                                for a in range(deg + 1)})

    for _ in range(60):
        p, q, r = (rng.randrange(1, 4) for _ in range(3))
        A = [[entry() for _ in range(q)] for _ in range(p)]
        B = [[entry() for _ in range(r)] for _ in range(q)]
        got = matrix_product(A, B, ring)
        assert got == naive_product(A, B, ring)
        assert all(isinstance(e, Poly) and e.ring == ring
                   for row in got for e in row)


def test_determinant_known():
    rows = [[parse_poly("x0", R), parse_poly("x1", R)],
            [parse_poly("x1", R), parse_poly("x0", R)]]
    assert determinant(rows) == parse_poly("x0^2 - x1^2", R)


# -- maximal minors -----------------------------------------------------------

def test_signed_minors_are_syzygies(quadric_cubic, table1, table3, final_example):
    for inp in (quadric_cubic, table1, table3, final_example):
        minors = signed_maximal_minors(inp.phi)
        total = sum(inp.col_degrees)
        for f in minors:
            assert f.xdeg() == total
        # each column of phi pairs to zero against the minor vector
        for j in range(inp.phi.ncols):
            acc = inp.base.zero()
            for i in range(inp.phi.nrows):
                acc = acc + inp.phi.rows[i][j] * minors[i]
            assert acc.is_zero()


def test_signed_minors_quadric_values(quadric_cubic):
    f = signed_maximal_minors(quadric_cubic.phi)
    B = quadric_cubic.base
    magnitudes = {parse_poly("x0^4*x1", B), parse_poly("x0^5 - x1^5", B),
                  parse_poly("x0*x1^4", B)}
    assert {g.monic() for g in f} == {g.monic() for g in magnitudes}


def test_minors_height_failure_common_factor():
    # first column multiplied through by x0 puts every minor in (x0)
    M = mat([["x0^3", "x1^3"], ["x0^2*x1", "0"], ["x0*x1^2", "x0^3"]], (3, 3))
    with pytest.raises(HeightError, match="common factor of degree 1$"):
        signed_maximal_minors(M)


@pytest.mark.parametrize("field", [PrimeField(7), F, RationalField()],
                         ids=["F_7", "F_32003", "Q"])
@pytest.mark.parametrize("g", ["x0 + 2*x1", "3*x0^2 + x0*x1 + x1^2"])
def test_minors_height_failure_names_a_planted_factor(field, g):
    # quadric_cubic's minors have unit gcd over every field; g times its last
    # column puts g into every maximal minor, so the common factor is exactly g
    base = ring_R(field)
    rows = [["x0^2", "x1^3"], ["x0*x1", "0"], ["x1^2", "x0^3"]]
    phi = [[parse_poly(e, base) for e in row] for row in rows]
    tower.load_presentation(field, (2, 3), phi)
    g = parse_poly(g, base)
    planted = [[a, b * g] for a, b in phi]
    with pytest.raises(HeightError,
                       match=f"common factor of degree {g.xdeg()}$"):
        tower.load_presentation(field, (2, 3 + g.xdeg()), planted)


def test_minors_height_failure_rank_drop():
    M = mat([["x0", "x0"], ["x1", "x1"], ["0", "0"]], (1, 1))
    with pytest.raises(HeightError, match="vanish"):
        signed_maximal_minors(M)


# -- graded kernels -----------------------------------------------------------

def test_graded_kernel_single_row():
    M = mat([["x0", "x1"]], (1, 1))
    # budget is the exact total of kernel generator degrees
    K = graded_kernel(M, 1, 2)
    assert K.ncols == 1
    assert K.col_degrees == (2,)
    col = [K.rows[i][0] for i in range(2)]
    assert is_zero_product(M, col)
    # proportional to (x1, -x0)
    assert (col[0] * parse_poly("x0", R) + col[1] * parse_poly("x1", R)).is_zero()


def test_graded_kernel_budget_exhausted():
    M = mat([["x0", "x1"]], (1, 1))
    with pytest.raises(KernelBudgetError):
        graded_kernel(M, 1, 1)


def test_graded_kernel_two_columns(table3):
    # kernel of the transposed first column has the right rank and degrees
    T = table3.phi.first_columns(1).transpose()
    K = graded_kernel(T, 2, 4)
    assert K.col_degrees == (2, 2)
    for k in range(K.ncols):
        col = [K.rows[i][k] for i in range(K.nrows)]
        assert is_zero_product(T, col)


# -- twist invariants ---------------------------------------------------------

def test_sigma_invariants_validation():
    with pytest.raises(ValueError, match="nonincreasing"):
        SigmaInvariants((1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        SigmaInvariants((2, -1))
    inv = SigmaInvariants((3, 2))
    assert inv.r == 2 and inv.s == 2
    inv = SigmaInvariants((2, 0))
    assert inv.r == 1 and inv.s == 2


@pytest.mark.parametrize("fixture_name,m,expected", [
    ("quadric_cubic", 1, (1, 1)),
    ("table1", 1, (3, 0)),
    ("table2", 1, (3, 2)),
    ("table3", 1, (2, 2)),
    ("final_example", 1, (2, 2)),
    ("almost_linear", 1, (1, 0, 0)),
    ("almost_linear", 2, (1, 1)),
])
def test_sigma_on_instances(request, fixture_name, m, expected):
    inp = request.getfixturevalue(fixture_name)
    inv = hull_embedding(inp, m)[0]
    assert inv.sigma == expected
    assert sum(inv.sigma) == sum(inp.col_degrees[:m])
    assert inv.s == inp.n - m
    assert inv.r == sum(1 for v in expected if v > 0)


def test_sigma_split_generator():
    # a syzygy column missing its last entry forces a zero twist; the minors
    # x0^3*x1^2, -x0^5 and -x1^5 have unit gcd
    rows = [["x0^2", "x1^3"], ["x1^2", "0"], ["0", "x0^3"]]
    inp = load_presentation(F, (2, 3), [[parse_poly(e, R) for e in row]
                                        for row in rows])
    inv = hull_embedding(inp, 1)[0]
    assert inv.sigma == (2, 0)
    assert inv.r == 1


def test_hull_embedding_rows_kill_phi(quadric_cubic, table2, almost_linear):
    for inp, m in ((quadric_cubic, 1), (table2, 1),
                   (almost_linear, 1), (almost_linear, 2)):
        inv, xi = hull_embedding(inp, m)
        assert xi.nrows == inv.s and xi.ncols == inp.n
        assert xi.row_twists == inv.sigma
        phim = inp.phi.first_columns(m)
        for i in range(xi.nrows):
            for j in range(m):
                acc = inp.base.zero()
                for t in range(inp.n):
                    acc = acc + xi.rows[i][t] * phim.rows[t][j]
                assert acc.is_zero()


# -- scroll presentation ------------------------------------------------------

def test_scroll_matrix_shape():
    pres = scroll_matrix(SigmaInvariants((2, 1)), F)
    assert pres.ring.tvar_names == ("v10", "v11", "v12", "v20", "v21")
    top, bottom = pres.gamma
    assert len(top) == 4  # one x column plus sigma_1 + sigma_2
    assert len(pres.minors) == 6
    assert str(top[0]) == "x0" and str(bottom[0]) == "x1"


def test_scroll_matrix_zero_twist_coordinate_is_extra():
    pres = scroll_matrix(SigmaInvariants((3, 0)), F)
    assert "v20" in pres.ring.tvar_names
    top, bottom = pres.gamma
    used = {str(t) for t in top} | {str(b) for b in bottom}
    assert "v20" not in used


def test_scroll_minor_bidegrees():
    pres = scroll_matrix(SigmaInvariants((2, 2)), F)
    from rees.ring import bidegree
    degs = sorted(bidegree(q) for q in pres.minors)
    # pairs with the x column give (1,1); coordinate pairs give (0,2)
    assert degs.count((1, 1)) == 4
    assert degs.count((0, 2)) == 6


def test_scroll_realization_kills_minors():
    from rees.ring import RingMap, ring_scroll
    sigma = SigmaInvariants((2, 1))
    pres = scroll_matrix(sigma, F)
    images = scroll_realization_images(pres)
    target = ring_scroll(F, sigma.sigma)
    assert len(images) == len(pres.ring.tvar_names)
    for q in pres.minors:
        assert RingMap(images, target)(q).is_zero()


def test_hull_embedding_rejects_twists_off_the_budget(monkeypatch, quadric_cubic):
    # a kernel whose degrees miss the budget must surface as a named error,
    # also under python -O; level 1 of n = 3 is below the top level, so the
    # twists still come from graded_kernel
    assert 1 < quadric_cubic.n - 1
    real_kernel = tower.graded_kernel

    def lifted(M, expected_rank, degree_budget):
        K = real_kernel(M, expected_rank, degree_budget)
        return GradedMatrix(K.ring, K.rows,
                            tuple(d + 1 for d in K.col_degrees), K.row_twists)

    monkeypatch.setattr(tower, "graded_kernel", lifted)
    with pytest.raises(ArithmeticError, match="degree budget"):
        hull_embedding(quadric_cubic, 1)


def test_graded_kernel_rejects_a_wrong_kernel_vector(monkeypatch):
    # a nullspace fault must surface as a named error, also under python -O
    real_nullspace = linalg.nullspace

    def shifted(columns, field):
        return [{**v, 0: field(v.get(0, 0) + 1)} for v in
                real_nullspace(columns, field)]

    monkeypatch.setattr(linalg, "nullspace", shifted)
    with pytest.raises(ArithmeticError, match="M\\*v = 0"):
        graded_kernel(mat([["x0", "x1"]], (1, 1)), 1, 2)


# -- the top level: signed maximal minors -------------------------------------

FIXTURE_NAMES = ("almost_linear", "final_example", "final_variant",
                 "quadric_cubic", "table1", "table2", "table3")


def fixture_instances():
    for name in FIXTURE_NAMES:
        inp = cli.load_instance(fixture_path(f"{name}.json"))
        yield name, inp
        yield f"{name}-Q", oracle._rational_twin(inp)


def random_instances():
    for shape in ((1, 3), (2, 5), (1, 2, 4), (1, 1, 2, 4), (1, 2, 5, 11)):
        for seed in (0, 1):
            for p in (7, 32003):
                yield (f"{shape}-{seed}-F{p}",
                       cli.random_instance(len(shape) + 1, shape, seed,
                                           PrimeField(p)))


def degree_scan(phi):
    """The top level's hull embedding as the kernel scan over L = 0..D finds it."""
    n = phi.nrows
    K = graded_kernel(phi.transpose(), 1, sum(phi.col_degrees))
    row = tuple(K.rows[j][0] for j in range(n))
    return SigmaInvariants(K.col_degrees), GradedMatrix(
        phi.ring, (row,), (0,) * n, K.col_degrees)


def typed_entries(xi):
    return [[sorted((m, c, type(c)) for m, c in p.terms.items()) for p in row]
            for row in xi.rows]


@pytest.mark.parametrize("group", ["fixtures", "random"])
def test_top_hull_embedding_equals_the_degree_scan(group):
    instances = fixture_instances() if group == "fixtures" else random_instances()
    for name, inp in instances:
        inv, xi = hull_embedding(inp, inp.n - 1)
        want_inv, want_xi = degree_scan(inp.phi)
        assert inv == want_inv, name
        assert inv.sigma == (sum(inp.col_degrees),), name
        assert xi == want_xi, name
        assert typed_entries(xi) == typed_entries(want_xi), name


def test_top_hull_embedding_checks_the_height():
    # every minor lies in (x0), so the kernel generator would be minors / x0;
    # the top level reads the minors unchecked, so no presentation, and hence
    # no top level, may exist for this matrix
    rows = [["x0^3", "x1^3"], ["x0^2*x1", "0"], ["x0*x1^2", "x0^3"]]
    with pytest.raises(HeightError, match="common factor of degree 1$"):
        load_presentation(F, (3, 3), [[parse_poly(e, R) for e in row]
                                      for row in rows])


def test_top_hull_embedding_rejects_a_wrong_minor(table2):
    # a minors fault must surface as a named error, also under python -O
    terms = dict(table2.minors[0].terms)
    m = next(iter(terms))
    terms[m] = table2.field(terms[m] + 1)
    planted = dataclasses.replace(
        table2, minors=(Poly(table2.base, terms),) + table2.minors[1:])
    with pytest.raises(ArithmeticError, match="xi\\*phi = 0"):
        hull_embedding(planted, 2)


@pytest.mark.parametrize("name", ["table2", "rational_twin"])
def test_top_hull_embedding_reads_the_stored_minors(monkeypatch, table2, name):
    # the presentation computed the minors and their height check once; the
    # top level neither recomputes the minors nor repeats the rank
    inp = table2 if name == "table2" else oracle._rational_twin(
        cli.random_instance(5, (1, 2, 5, 11), 0, PrimeField(32003)))
    calls = []

    def counted(owner, attr):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(syzygy, "signed_maximal_minors")
    counted(tower, "signed_maximal_minors")
    counted(linalg, "rank")
    inv = hull_embedding(inp, inp.n - 1)[0]
    assert inv.sigma == (sum(inp.col_degrees),)
    assert calls == []


def test_rational_hull_embeddings_finish_within_budget():
    # the n = 5 rational rung: the top level's kernel scan took 45 s here
    inp = oracle._rational_twin(
        cli.random_instance(5, (1, 2, 5, 11), 0, PrimeField(32003)))
    start = time.perf_counter()
    for m in range(1, inp.n):
        inv, _ = hull_embedding(inp, m)
        assert sum(inv.sigma) == sum(inp.col_degrees[:m])
    assert time.perf_counter() - start < 0.3
