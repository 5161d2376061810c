import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rees import linalg
from rees.field import PrimeField, RationalField

F = PrimeField(32003)
Q = RationalField()


def fe(rows):
    return [[F(c) for c in row] for row in rows]


# -- the sparse boundary ---------------------------------------------------
# `linalg` takes and returns sparse vectors {index: nonzero field element};
# the tests below state matrices as dense lists of rows, as the textbook
# references do, and convert here and nowhere else.

def sparse(rows, field):
    """Dense rows, entries anything the field coerces, as sparse vectors."""
    return [{j: c for j, v in enumerate(row) if (c := field(v))}
            for row in rows]


def dense(vectors, width, field):
    """Sparse vectors as dense rows of the given width; every stored entry
    must be a nonzero element."""
    assert all(v for vec in vectors for v in vec.values())
    return [[vec.get(j, field.zero) for j in range(width)] for vec in vectors]


def transpose(rows, ncols):
    return [[row[j] for row in rows] for j in range(ncols)]


def rref(rows, search, field):
    got, pivots = linalg.rref(sparse(rows, field), search, field)
    return dense(got, len(rows[0]), field), pivots


def rank(rows, ncols, field):
    return linalg.rank(sparse(rows, field), ncols, field)


def independent(vectors, field):
    return linalg.independent(sparse(vectors, field), field)


def nullspace(rows, ncols, field):
    columns = sparse(transpose(rows, ncols), field)
    return dense(linalg.nullspace(columns, field), ncols, field)


def solve_many(rows, rhss, ncols, field):
    columns = sparse(transpose(rows, ncols), field)
    sols = linalg.solve_many(columns, sparse(rhss, field), field)
    return None if sols is None else dense(sols, ncols, field)


def test_rank_and_nullspace_small():
    A = fe([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(A, 3, F) == 2
    null = nullspace(A, 3, F)
    assert len(null) == 1
    v = null[0]
    for row in A:
        assert sum(r * c for r, c in zip(row, v)) % 32003 == 0


def test_nullspace_without_rows_or_columns():
    # no rows: every coordinate is free, so the basis is the unit vectors;
    # no columns: there is nothing to be free
    for field in (PrimeField(7), Q):
        units = [[field.one if i == j else field.zero for j in range(3)]
                 for i in range(3)]
        assert nullspace([], 3, field) == units
        assert nullspace([[], []], 0, field) == []
        assert nullspace([], 0, field) == []
        # an all-zero matrix, and its zero column vectors as linalg sees them
        assert nullspace([[0, 0, 0], [0, 0, 0]], 3, field) == units
        assert linalg.nullspace([{}, {}, {}], field) == [
            {i: field.one} for i in range(3)]


def test_solve_particular_and_inconsistent():
    A = fe([[1, 1], [0, 1]])
    assert solve_many(A, [[F(3), F(1)]], 2, F) == [[2, 1]]
    # inconsistent: x + y = 0 and x + y = 1
    assert solve_many(fe([[1, 1], [1, 1]]), [[F(0), F(1)]], 2, F) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    A = fe([[1, 1, 1]])
    sols = solve_many(A, [[F(5)]], 3, F)
    assert sols is not None
    [x] = sols
    assert sum(x) % 32003 == 5
    assert x.count(0) >= 2


def test_solve_many_of_the_units_inverts():
    # the columns of the inverse solve A v = e_k; a singular A misses one
    A = fe([[1, 2], [3, 4]])
    B = transpose(solve_many(A, fe([[1, 0], [0, 1]]), 2, F), 2)
    for i in range(2):
        for j in range(2):
            acc = sum(A[i][k] * B[k][j] for k in range(2)) % 32003
            assert acc == (1 if i == j else 0)
    assert solve_many(fe([[1, 2], [2, 4]]), fe([[1, 0], [0, 1]]), 2, F) is None


def test_rational_path():
    A = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]]
    sols = solve_many(A, [[Fraction(1), Fraction(1)]], 2, Q)
    assert sols is not None
    [x] = sols
    assert A[0][0] * x[0] + A[0][1] * x[1] == 1
    assert A[1][0] * x[0] + A[1][1] * x[1] == 1
    assert rank(A, 2, Q) == 2
    assert rank([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]],
                2, Q) == 1


def test_independent_contains_and_rank():
    vecs = fe([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
    # the third vector is the sum of the first two
    assert independent(vecs, F) == [0, 1]
    assert rank(vecs, 3, F) == 2
    # [2, 3, 2] lies in the span and adds no index; [0, 0, 1] does not
    assert independent(vecs + fe([[2, 3, 2]]), F) == [0, 1]
    assert independent(vecs + fe([[0, 0, 1]]), F) == [0, 1, 3]


small_matrix = st.lists(
    st.lists(st.integers(0, 6), min_size=4, max_size=4), min_size=1, max_size=5)


@given(small_matrix)
@settings(max_examples=80)
def test_rank_nullity(rows):
    A = fe(rows)
    assert rank(A, 4, F) + len(nullspace(A, 4, F)) == 4


@given(small_matrix, st.lists(st.integers(0, 6), min_size=4, max_size=4))
@settings(max_examples=80)
def test_solve_finds_solutions_that_exist(rows, x):
    A = fe(rows)
    rhs = [F(sum(r * c for r, c in zip(row, x))) for row in A]
    sols = solve_many(A, [rhs], 4, F)
    assert sols is not None
    [got] = sols
    for row, b in zip(A, rhs):
        assert sum(r * c for r, c in zip(row, got)) % 32003 == b


def mod_p(a):
    """An int or a Fraction reduced into 0..p-1."""
    a = Fraction(a)
    return a.numerator * pow(a.denominator, -1, 32003) % 32003


def greedy_scan(vectors, normal):
    """Indices a one-at-a-time scan keeps: each vector outside the span of
    the vectors kept before it.  `normal` reduces a field element."""
    kept, basis = [], []         # basis: (pivot column, row with a 1 there)
    for k, vec in enumerate(vectors):
        for pc, row in basis:
            c = vec[pc]
            if c:
                vec = [normal(a - c * b) for a, b in zip(vec, row)]
        pc = next((i for i, a in enumerate(vec) if a), None)
        if pc is not None:
            inv = normal(1 / Fraction(vec[pc]))
            basis.append((pc, [normal(a * inv) for a in vec]))
            kept.append(k)
    return kept


@st.composite
def vector_lists(draw):
    """Up to 10 vectors of length 0..5 over F_p or Q, with repeated vectors,
    zero vectors and the empty list among them."""
    rational = draw(st.booleans())
    dim = draw(st.integers(0, 5))
    entry = (st.fractions(-3, 3, max_denominator=3) if rational
             else st.one_of(st.just(0), st.integers(0, 32002)))
    vecs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                         max_size=6))
    for i in draw(st.lists(st.integers(0, max(len(vecs) - 1, 0)),
                           max_size=2)):
        if vecs:
            vecs.insert(draw(st.integers(0, len(vecs))), list(vecs[i]))
    for _ in range(draw(st.integers(0, 2))):
        vecs.insert(draw(st.integers(0, len(vecs))), [0] * dim)
    if rational:
        return vecs, dim, Q, Fraction
    return vecs, dim, F, mod_p


@given(vector_lists())
@settings(max_examples=200)
def test_independent_matches_greedy_scan(drawn):
    vecs, dim, field, normal = drawn
    got = independent(vecs, field)
    assert got == greedy_scan(vecs, normal)
    assert len(got) == rank(vecs, dim, field)


def gauss_jordan_mod_p(rows, ncols, p):
    """Textbook reduced row echelon form mod p over the first ncols columns."""
    M = [[v % p for v in row] for row in rows]
    r = 0
    pivots = []
    for c in range(ncols):
        if r == len(M):
            break
        sel = next((i for i in range(r, len(M)) if M[i][c]), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [v * inv % p for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


def gauss_jordan_over_Q(rows, ncols):
    """Textbook Fraction reduced row echelon form over the first ncols columns."""
    M = [[Fraction(v) for v in row] for row in rows]
    r = 0
    pivots = []
    for c in range(ncols):
        if r == len(M):
            break
        sel = next((i for i in range(r, len(M)) if M[i][c]), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M[:r], pivots


@st.composite
def search_matrices(draw, entry=st.one_of(st.just(0), st.integers(0, 32002))):
    """Up to 8 x 10 over 0..p-1 (or other entries), with repeated rows, sums
    of two rows and zeroed columns."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3)):
        rows.append(list(rows[i]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                        st.integers(0, nrows - 1)),
                              max_size=2)):
        rows.append([a + b for a, b in zip(rows[i], rows[j])])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
        for row in rows:
            row[c] = 0
    # pivots are searched in the first `search` columns only; the rest are
    # carried along, as the right-hand block of a multi-target solve is
    search = draw(st.integers(1, ncols))
    return rows, search


@pytest.mark.parametrize("p", [7, 32003, 2**31 - 1])
@given(data=st.data())
@settings(max_examples=200)
def test_rref_mod_p_matches_reference(p, data):
    # 2**31 - 1 is the largest prime `PrimeField` accepts; F_7 makes
    # cancellations and dependent rows common
    rows, search = data.draw(
        search_matrices(st.one_of(st.just(0), st.integers(0, p - 1))))
    got_rows, got_pivots = rref(rows, search, PrimeField(p))
    want_rows, want_pivots = gauss_jordan_mod_p(rows, search, p)
    assert got_pivots == want_pivots
    assert got_rows == want_rows


def banded_system():
    """A sparse banded 100 x 180 matrix with about 2 % nonzero entries, some
    rows the sums of two others, and a dense right-hand block of 5 columns:
    the shape of the slice solves."""
    nrows, ncols, rhs = 100, 180, 5
    rng = random.Random(0)
    rows = []
    for i in range(nrows):
        row = [0] * (ncols + rhs)
        start = i * (ncols - 8) // nrows
        for j in rng.sample(range(start, start + 8), 3):
            row[j] = rng.randrange(1, 32003)
        for j in range(ncols, ncols + rhs):
            row[j] = rng.randrange(32003)
        rows.append(row)
    # a sum of two rows with a fresh right-hand side: which of the dependent
    # rows become pivot rows shows in the carried block, and out of band
    # order they are swapped in from far down
    for _ in range(nrows // 10):
        a, b = rng.sample(range(nrows), 2)
        band = [x + y for x, y in zip(rows[a][:ncols], rows[b][:ncols])]
        rows[rng.randrange(nrows)] = band + [rng.randrange(32003)
                                             for _ in range(rhs)]
    rng.shuffle(rows)
    return rows, ncols


@pytest.mark.parametrize("field", [F, Q], ids=["F32003", "Q"])
def test_rref_on_a_sparse_banded_system(field):
    rows, ncols = banded_system()
    width = len(rows[0])
    nonzero = sum(map(bool, (v for row in rows for v in row[:ncols])))
    assert nonzero < 0.025 * len(rows) * ncols
    if field is Q:
        rows = [[Fraction(v) for v in row] for row in rows]
    # pivots searched in the matrix only (the block carried along), and in
    # the whole augmented width as `solve_many` does
    for search in (ncols, width):
        got = rref(rows, search, field)
        if field is Q:
            assert got == gauss_jordan_over_Q(rows, search)
        else:
            assert got == gauss_jordan_mod_p(rows, search, 32003)


@given(search_matrices(st.one_of(st.just(0),
                                st.fractions(-40, 40, max_denominator=12))))
@settings(max_examples=200)
def test_rref_over_Q_matches_reference(drawn):
    rows, search = drawn
    got_rows, got_pivots = rref(rows, search, Q)
    want_rows, want_pivots = gauss_jordan_over_Q(rows, search)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    got = linalg.rref(sparse(rows, Q), search, Q)[0]
    assert all(type(v) is Fraction for row in got for v in row.values())


@given(small_matrix, st.lists(st.lists(st.integers(0, 6), min_size=4,
                                       max_size=4), min_size=1, max_size=3))
@settings(max_examples=80)
def test_solve_many_matches_separate_solves(rows, xs):
    A = fe(rows)
    rhss = [[F(sum(r * c for r, c in zip(row, x))) for row in A] for x in xs]
    assert solve_many(A, rhss, 4, F) == [
        solve_many(A, [b], 4, F)[0] for b in rhss]


def test_solve_many_refuses_when_any_target_misses():
    A = fe([[1, 0], [0, 0]])
    assert solve_many(A, [[F(1), F(0)], [F(0), F(1)]], 2, F) is None
    assert solve_many(A, [[F(1), F(0)], [F(2), F(0)]], 2, F) == [
        [F(1), F(0)], [F(2), F(0)]]
    # a zero right-hand side is solved by the zero vector, stored empty
    assert linalg.solve_many(sparse(transpose(A, 2), F), [{}, {0: 1}], F) == [
        {}, {0: 1}]
