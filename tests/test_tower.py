import dataclasses
import time
from fractions import Fraction

import pytest

from conftest import fixture_path
from rees import cli, gradedlin, linalg, oracle, tower
from rees.cli import random_instance
from rees.field import PrimeField
from rees.generators import tower_generators
from rees.ring import (GradingError, Poly, RingMap, bidegree, parse_poly,
                       ring_R)
from rees.syzygy import GradedMatrix, HeightError, SigmaInvariants
from rees.tower import (
    NormalizationError,
    _normalize_embedding,
    build_level,
    check_truncation_equality,
    evaluation_membership,
    hull_embedding,
    hull_quotient_hilbert,
    load_presentation,
    sym_equations,
)

F = PrimeField(32003)
R = ring_R(F)


def rows(*strs_rows):
    return [[parse_poly(e, R) for e in row] for row in strs_rows]


# -- input validation ---------------------------------------------------------

def test_load_rejects_small_n():
    with pytest.raises(ValueError, match="n >= 3"):
        load_presentation(F, (1,), rows(["x0"], ["x1"]))


def test_load_rejects_degree_count():
    with pytest.raises(ValueError, match="column degrees"):
        load_presentation(F, (1, 1, 1), rows(["x0"], ["x1"], ["0"]))


def test_load_rejects_decreasing_degrees():
    with pytest.raises(ValueError, match="nondecreasing"):
        load_presentation(F, (2, 1), rows(["x0^2", "x1"], ["x1^2", "x0"],
                                          ["0", "0"]))


def test_load_rejects_zero_column():
    with pytest.raises(ValueError, match="zero"):
        load_presentation(F, (1, 1), rows(["x0", "0"], ["x1", "0"],
                                          ["0", "0"]))


def test_load_rejects_height_failure():
    with pytest.raises(HeightError):
        load_presentation(F, (1, 1), rows(["x0", "x0"], ["x1", "x1"],
                                          ["0", "0"]))


def test_load_packages_minors(quadric_cubic):
    assert len(quadric_cubic.minors) == 3
    assert quadric_cubic.n == 3
    assert quadric_cubic.sring.tvar_names == ("T1", "T2", "T3")


# -- symmetric-algebra equations ---------------------------------------------

def test_sym_equations_values(quadric_cubic):
    eqs = sym_equations(quadric_cubic)
    S = quadric_cubic.sring
    assert eqs[0] == parse_poly("x0^2*T1 + x0*x1*T2 + x1^2*T3", S)
    assert eqs[1] == parse_poly("x1^3*T1 + x0^3*T3", S)
    assert [bidegree(g) for g in eqs] == [(2, 1), (3, 1)]


def test_sym_equations_reject_a_column_degree_mismatch(quadric_cubic):
    # a declared column degree the matrix does not have must surface as a
    # named error, also under python -O
    wrong = dataclasses.replace(quadric_cubic, col_degrees=(3, 3))
    with pytest.raises(GradingError, match="g_1 has bidegree"):
        sym_equations(wrong)


def test_evaluation_membership_basics(quadric_cubic):
    S = quadric_cubic.sring
    polys = list(sym_equations(quadric_cubic)) + [
        parse_poly("T1", S), parse_poly("x0*T2", S), S.zero()]
    assert evaluation_membership(quadric_cubic, polys) == [
        True, True, False, False, True]
    assert evaluation_membership(quadric_cubic, []) == []


def test_membership_of_a_large_gap_finishes_within_budget():
    # the 57 records of table1's first random twin reach T-degree 14 with
    # degree-19 minors; the dict expansion took 4.6 s, the array memo and
    # one batch take about 0.4 s.  Budgets may only get tighter.
    inp = random_instance(3, (3, 16), 0, F)
    polys = [rec.poly for rec in tower_generators(inp, 1)]
    assert len(polys) == 57
    start = time.monotonic()
    verdicts = evaluation_membership(inp, polys)
    elapsed = time.monotonic() - start
    assert all(verdicts)
    assert elapsed < 1.0, f"membership took {elapsed:.2f} s"


# -- level construction -------------------------------------------------------

def test_build_level_identity_change_when_all_twists_positive(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    assert level.sigma.sigma == (1, 1)
    assert level.embed.rows == level.embed_raw.rows
    n = quadric_cubic.n
    ident = tuple(tuple(F.one if i == j else F.zero for j in range(n))
                  for i in range(n))
    assert level.coord_change == ident


def test_build_level_normalizes_zero_twist_rows(table1):
    level = build_level(table1, 1)
    assert level.sigma.sigma == (3, 0)
    # the zero-twist row becomes a standard coordinate vector ...
    last = level.embed.rows[1]
    assert [str(p) for p in last] == ["0", "0", "1"]
    # ... and the positive row vanishes on that coordinate
    assert level.embed.rows[0][2].is_zero()


def test_level_coordinate_round_trip(table1):
    # table1 keeps the identity change at level 1; the random (1, 2) instance
    # has sigma = (1, 0) there and a non-identity change
    twisted = random_instance(3, (1, 2), 0, F)
    for inp in (table1, twisted):
        level = build_level(inp, 1)
        S = inp.sring
        p = parse_poly("x0*T1^2 + 3*x1*T2*T3 - x1*T3^2", S)
        assert level.to_original_coords(level.to_level_coords(p)) == p
        assert level.to_level_coords(level.to_original_coords(p)) == p
    assert level.sigma.sigma == (1, 0)
    ident = tuple(tuple(F.one if i == j else F.zero for j in range(3))
                  for i in range(3))
    assert level.coord_change != ident
    # the change preserves which polynomials the hull substitution kills
    g1 = sym_equations(twisted)[0]
    assert level.subst_raw(g1).is_zero()
    assert level.subst(level.to_level_coords(g1)).is_zero()


def test_level_maps_agree_with_one_shot_substitution():
    # chi is not the identity here, so the four maps all differ; each keeps
    # its own memo, which must not leak between maps or calls
    inp = random_instance(3, (1, 2), 0, F)
    level = build_level(inp, 1)
    S = inp.sring
    polys = list(sym_equations(inp)) + [
        parse_poly("x0*T1^2 + 3*x1*T2*T3 - x1*T3^2", S),
        parse_poly("x0^2 - 5*x1^2", S), S.zero()]
    names = ["subst", "subst_raw", "to_original_coords", "to_level_coords"]
    for order in (names, names[::-1], names[1::2] + names[::2]):
        for p in polys:
            for name in order:
                ring_map = getattr(level, name)
                fresh = RingMap(ring_map.images, ring_map.target)
                assert ring_map(p) == fresh(p)


@pytest.mark.parametrize("name", ["quadric_cubic", "almost_linear", "table1",
                                  "final_example", "final_variant", "table2",
                                  "table3", "random-1-2"])
def test_image_rows_match_coordinates_of_subst(request, name):
    # one row per ambient monomial, equal to the coordinates of its image;
    # x-degree -1 has an empty ambient piece, and (-1, 2) a nonempty hull one
    inp = (random_instance(3, (1, 2), 0, F) if name == "random-1-2"
           else request.getfixturevalue(name))
    S = inp.sring
    for m in range(1, inp.n):
        level = build_level(inp, m)
        d_m = inp.col_degrees[m - 1]
        for i in sorted({-1, 0, d_m - 1, d_m}):
            for j in range(3):
                want = [gradedlin.coordinates(level.subst(mu), i, j)
                        for mu in gradedlin.piece_basis(S, i, j)]
                assert level.image_rows(i, j) == want
    assert gradedlin.piece_dim(level.scroll, -1, 2) > 0
    assert level.image_rows(0, -1) == []


@pytest.mark.parametrize("name", ["quadric_cubic", "almost_linear", "table1",
                                  "final_example", "final_variant", "table2",
                                  "table3", "quadric_cubic-rational"])
def test_writers_emit_only_nonzero_canonical_entries(request, name):
    # `linalg` coerces nothing, so the writers hold its entry contract: every
    # stored entry a nonzero canonical element, an int in 1..p-1 over F_p and
    # a Fraction over Q.  A stored zero would be taken for a pivot and raise
    # in `field.inv`; a residue outside 0..p-1 would compare unequal to its
    # canonical twin
    inp = request.getfixturevalue(name.split("-")[0])
    if name.endswith("-rational"):
        inp = oracle._rational_twin(inp)
    S, field = inp.sring, inp.field
    gs = sym_equations(inp)
    D = sum(inp.col_degrees)
    vectors = gradedlin.multiples(inp.minors, inp.base, 2 * D - 1)
    vectors += gradedlin.multiples(gs, S, inp.col_degrees[-1] + 1, 2)
    vectors += [gradedlin.coordinates(g, *bidegree(g)) for g in gs]
    vectors += gradedlin.shifted_rows(
        [(gs[0].terms, (1, 0) + (0,) * inp.n)], S, inp.col_degrees[0] + 1, 1)
    for m in range(1, inp.n):
        level = build_level(inp, m)
        if m < inp.n - 1:
            image = level.driving_image
            vectors.append(gradedlin.coordinates(image, *bidegree(image)))
        for i in range(-1, inp.col_degrees[m - 1] + 1):
            for j in range(1, 3):
                vectors += level.image_rows(i, j)
    entries = [v for vec in vectors for v in vec.values()]
    assert len(entries) > 100
    if field.modulus is None:
        assert all(type(v) is Fraction and v for v in entries)
    else:
        assert all(type(v) is int and 0 < v < field.modulus for v in entries)


def test_subst_agrees_with_raw_when_change_is_identity(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    g2 = sym_equations(quadric_cubic)[1]
    assert level.subst(g2) == level.subst_raw(g2)
    assert bidegree(level.subst(g2)) == (3, 1)


def test_w_monomial(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    w = level.w_monomial((1, 2))
    assert bidegree(w) == (-3, 3)
    assert len(w.terms) == 1


def test_multiplication_tables_satisfy_defining_identity(table2):
    # subst sends each T-linear form q[i][j] to scalar p[i][j] times w_i
    from rees.ring import promote
    level = build_level(table2, 1)
    for i in range(level.sigma.s):
        w_i = level.scroll.monomial(
            tuple(1 if k == 2 + i else 0 for k in range(2 + level.sigma.s)))
        for j, q in enumerate(level.mult_forms[i]):
            p = level.mult_scalars[i][j]
            assert level.subst(q) == promote(p, level.scroll) * w_i


def test_multiplication_table_degrees(final_example):
    level = build_level(final_example, 1)
    for i in range(level.sigma.s):
        rho = level.drop_row_kernels[i]
        for j in range(rho.ncols):
            c = rho.col_degrees[j]
            p = level.mult_scalars[i][j]
            q = level.mult_forms[i][j]
            if not p.is_zero():
                assert p.xdeg() == level.sigma.sigma[i] + c
            assert bidegree(q) == (c, 1)


def test_build_level_rejects_bad_m(quadric_cubic):
    with pytest.raises(ValueError):
        build_level(quadric_cubic, 0)
    with pytest.raises(ValueError):
        build_level(quadric_cubic, 3)


def test_levels_of_four_row_instance(almost_linear):
    lvl1 = build_level(almost_linear, 1)
    lvl2 = build_level(almost_linear, 2)
    assert lvl1.sigma.sigma == (1, 0, 0)
    assert lvl2.sigma.sigma == (1, 1)
    assert lvl2.scroll.tweights == (-1, -1)


# -- truncation equality and Hilbert data -------------------------------------

def test_truncation_equality_window(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    report = check_truncation_equality(level, range(1, 4), 2)
    assert report
    for i, j, got, want in report:
        assert got == want


def test_truncation_equality_rejects_low_window(table3):
    level = build_level(table3, 1)
    with pytest.raises(ValueError, match="x-degree"):
        check_truncation_equality(level, range(0, 2), 1)


@pytest.mark.parametrize("fixture_name,d1", [
    ("quadric_cubic", 2),
    ("table2", 5),
    ("table3", 4),
])
def test_hull_quotient_hilbert_values(request, fixture_name, d1):
    inp = request.getfixturevalue(fixture_name)
    H = hull_quotient_hilbert(build_level(inp, 1))
    for i in range(-1, d1):
        assert H(i) == d1 - i - 1
    assert H(d1) == 0
    assert H(d1 + 3) == 0


def test_hull_quotient_hilbert_rejects_wrong_twists(monkeypatch, capsys):
    # quadric_cubic has sigma = (1, 1) at level 1; the twists (2, 1) give
    # H(-1) = 3 instead of d_1 = 2, which `rees check` must report as a failed
    # line of a complete report, not as an internal error
    def wrong_level(inp, m):
        level = build_level(inp, m)
        if m == 1:
            level = dataclasses.replace(
                level, sigma=SigmaInvariants((2, 1)))
        return level

    monkeypatch.setattr(tower, "build_level", wrong_level)
    code = cli.main(["check", fixture_path("quadric_cubic.json")])
    out = capsys.readouterr()
    assert code == 2 and "internal error" not in out.err
    assert "  FAIL  hull quotient Hilbert values\n" in out.out
    assert "  PASS  free hull Hilbert function\n" in out.out
    assert "  PASS  evaluation membership of all records\n" in out.out
    assert out.out.endswith("CHECKS FAILED\n")


def test_normal_form_coordinate_change_is_canonical(table1):
    # chi's columns are the canonical kernel vectors of the constant rows C,
    # then the free-variables-zero solutions of C v = e_k; chi^-1 ends in C
    for inp in (table1, random_instance(3, (1, 2), 0, F)):
        sigma, xi = hull_embedding(inp, 1)
        chi, chi_inv, _ = _normalize_embedding(xi, sigma)
        n, k = inp.n, sigma.s - sigma.r
        const = [[p.coefficient((0, 0)) for p in row]
                 for row in xi.rows[sigma.r:]]
        cols = [{i: row[j] for i, row in enumerate(const) if row[j]}
                for j in range(n)]
        units = [{i: F.one} for i in range(k)]
        columns = (linalg.nullspace(cols, F)
                   + linalg.solve_many(cols, units, F))
        assert chi == tuple(tuple(v.get(j, F.zero) for v in columns)
                            for j in range(n))
        assert [list(row) for row in chi_inv[n - k:]] == const


def test_normalization_rejects_dependent_constant_rows():
    # two equal zero-twist rows leave the constant rows one pivot short of
    # an identity block
    x0, x1, one, zero = R.var("x0"), R.var("x1"), R.one(), R.zero()
    xi = GradedMatrix(R, ((x0, x1, zero), (one, zero, zero), (one, zero, zero)),
                      (0, 0, 0), (1, 0, 0))
    with pytest.raises(NormalizationError, match="dependent"):
        _normalize_embedding(xi, SigmaInvariants((1, 0, 0)))


def test_normalization_rejects_uncleared_identity_columns(monkeypatch):
    # the random (1, 2) instance has sigma = (1, 0) at level 1, so its
    # positive-degree row is cleared against the constant row; with the
    # clearing subtraction broken that must surface as a named error, also
    # under python -O
    inp = random_instance(3, (1, 2), 0, F)
    sigma, xi = hull_embedding(inp, 1)
    _normalize_embedding(xi, sigma)
    monkeypatch.setattr(Poly, "__sub__", lambda self, other: self)
    with pytest.raises(NormalizationError, match="not cleared"):
        _normalize_embedding(xi, sigma)


def test_normalization_rejects_a_missing_identity_block(monkeypatch):
    # the last column of the coordinate change, the last solution of
    # C v = e_k, scaled by 2 leaves 2 where the constant rows need an
    # identity block; that must surface as a named error, also under python -O
    inp = random_instance(3, (1, 2), 0, F)
    sigma, xi = hull_embedding(inp, 1)
    real_solve_many = linalg.solve_many

    def doubled(columns, rhss, field):
        sols = real_solve_many(columns, rhss, field)
        return sols[:-1] + [{j: 2 * v % field.p for j, v in sols[-1].items()}]

    monkeypatch.setattr(linalg, "solve_many", doubled)
    with pytest.raises(NormalizationError, match="identity block"):
        _normalize_embedding(xi, sigma)
