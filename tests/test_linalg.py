from fractions import Fraction

from hypothesis import given, settings, strategies as st

from rees import linalg
from rees.field import PrimeField, RationalField

F = PrimeField(32003)
Q = RationalField()


def fe(rows):
    return [[F(c) for c in row] for row in rows]


def test_rank_and_nullspace_small():
    A = fe([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(A, 3, F) == 2
    null = linalg.nullspace(A, 3, F)
    assert len(null) == 1
    v = null[0]
    for row in A:
        assert sum(r * c for r, c in zip(row, v)) % 32003 == 0


def test_solve_particular_and_inconsistent():
    A = fe([[1, 1], [0, 1]])
    x = linalg.solve(A, [F(3), F(1)], 2, F)
    assert x == [2, 1]
    # inconsistent: x + y = 0 and x + y = 1
    assert linalg.solve(fe([[1, 1], [1, 1]]), [F(0), F(1)], 2, F) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    A = fe([[1, 1, 1]])
    x = linalg.solve(A, [F(5)], 3, F)
    assert x is not None
    assert sum(x) % 32003 == 5
    assert x.count(0) >= 2


def test_invert_round_trip():
    A = fe([[1, 2], [3, 4]])
    B = linalg.invert(A, F)
    assert B is not None
    for i in range(2):
        for j in range(2):
            acc = sum(A[i][k] * B[k][j] for k in range(2)) % 32003
            assert acc == (1 if i == j else 0)
    assert linalg.invert(fe([[1, 2], [2, 4]]), F) is None


def test_rational_path():
    A = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = linalg.solve(A, [Fraction(1), Fraction(1)], 2, Q)
    assert x is not None
    assert A[0][0] * x[0] + A[0][1] * x[1] == 1
    assert A[1][0] * x[0] + A[1][1] * x[1] == 1
    assert linalg.rank(A, 2, Q) == 2
    assert linalg.rank([[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]],
                       2, Q) == 1


def test_echelon_contains_and_rank():
    ech = linalg.Echelon(3, F)
    assert ech.add([F(1), F(0), F(1)])
    assert ech.add([F(0), F(1), F(0)])
    assert not ech.add([F(1), F(1), F(1)])  # dependent on the first two
    assert ech.rank == 2
    assert ech.contains([F(2), F(3), F(2)])
    assert not ech.contains([F(0), F(0), F(1)])


small_matrix = st.lists(
    st.lists(st.integers(0, 6), min_size=4, max_size=4), min_size=1, max_size=5)


@given(small_matrix)
@settings(max_examples=80)
def test_rank_nullity(rows):
    A = fe(rows)
    assert linalg.rank(A, 4, F) + len(linalg.nullspace(A, 4, F)) == 4


@given(small_matrix, st.lists(st.integers(0, 6), min_size=4, max_size=4))
@settings(max_examples=80)
def test_solve_finds_solutions_that_exist(rows, x):
    A = fe(rows)
    rhs = [F(sum(r * c for r, c in zip(row, x))) for row in A]
    got = linalg.solve(A, rhs, 4, F)
    assert got is not None
    for row, b in zip(A, rhs):
        assert sum(r * c for r, c in zip(row, got)) % 32003 == b


@given(small_matrix)
@settings(max_examples=60)
def test_echelon_rank_matches_batch_rank(rows):
    A = fe(rows)
    ech = linalg.Echelon(4, F)
    for row in A:
        ech.add(list(row))
    assert ech.rank == linalg.rank(A, 4, F)
