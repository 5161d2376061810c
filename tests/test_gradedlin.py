import pytest
from hypothesis import given, settings, strategies as st

from conftest import span_dim
from rees import gradedlin, linalg
from rees.field import PrimeField, RationalField
from rees.ring import (GradingError, Poly, RingMap, parse_poly, ring_R, ring_S,
                       ring_scroll)

F = PrimeField(32003)
R = ring_R(F)
S = ring_S(F, 3)
W = ring_scroll(F, (2, 1))


def test_piece_dims_base_ring():
    assert gradedlin.piece_dim(R, 0) == 1
    assert gradedlin.piece_dim(R, 3) == 4
    assert gradedlin.piece_dim(R, -1) == 0


def test_piece_dims_T_ring():
    # x-degree 1, T-degree 1: {x0,x1} x {T1,T2,T3}
    assert gradedlin.piece_dim(S, 1, 1) == 6
    assert gradedlin.piece_dim(S, 0, 2) == 6
    assert gradedlin.piece_dim(S, 2, 0) == 3
    assert gradedlin.piece_dim(S, 1, -1) == 0


def test_piece_dims_scroll_weights():
    # w1 has x-weight -2, w2 has -1; piece (0,1) is {x0^2 w1, x0x1 w1,
    # x1^2 w1, x0 w2, x1 w2}
    assert gradedlin.piece_dim(W, 0, 1) == 5
    # piece (-2,1) is just w1
    assert gradedlin.piece_dim(W, -2, 1) == 1
    assert gradedlin.piece_dim(W, -3, 1) == 0


def test_piece_basis_monomials_are_the_piece():
    basis = gradedlin.piece_basis(S, 1, 1)
    assert len(basis) == 6
    for mu in basis:
        assert mu.xdeg() == 1 and mu.tdeg() == 1
        assert len(mu.terms) == 1
    assert len({next(iter(mu.terms)) for mu in basis}) == 6


def test_coordinates_round_trip():
    p = parse_poly("x0*T1 + 2*x1*T2", S)
    vec = gradedlin.coordinates(p, 1, 1)
    basis = gradedlin.piece_basis(S, 1, 1)
    rebuilt = S.zero()
    for j, c in vec.items():
        rebuilt = rebuilt + basis[j].scale(c)
    assert rebuilt == p


def test_coordinates_rejects_wrong_piece():
    p = parse_poly("x0*T1", S)
    with pytest.raises(ValueError):
        gradedlin.coordinates(p, 2, 1)


def test_span_dim():
    polys = [parse_poly("x0*T1", S), parse_poly("x1*T1", S),
             parse_poly("x0*T1 + x1*T1", S)]
    assert span_dim(polys, S, 1, 1) == 2
    assert span_dim([], S, 1, 1) == 0


def test_solve_combination_known():
    gens = [parse_poly("x0^2", R), parse_poly("x1^2", R)]
    target = parse_poly("x0^3 + x0*x1^2", R)
    coeffs = gradedlin.solve_combination(target, gens, R)
    assert coeffs is not None
    acc = R.zero()
    for a, g in zip(coeffs, gens):
        acc = acc + a * g
    assert acc == target


def test_solve_combination_unsolvable():
    gens = [parse_poly("x0^2", R)]
    assert gradedlin.solve_combination(parse_poly("x1^2", R), gens, R) is None


def test_solve_combination_mixed_degrees():
    gens = [parse_poly("x0", R), parse_poly("x1^2", R)]
    target = parse_poly("x0*x1^2", R)
    coeffs = gradedlin.solve_combination(target, gens, R)
    acc = R.zero()
    for a, g in zip(coeffs, gens):
        acc = acc + a * g
    assert acc == target
    assert coeffs[0].is_zero() or coeffs[0].xdeg() == 2
    assert coeffs[1].is_zero() or coeffs[1].xdeg() == 1


@given(st.integers(0, 5), st.integers(0, 3))
def test_piece_dim_formula_T_ring(i, j):
    # dim R_i * dim (3-variable degree-j monomials)
    assert gradedlin.piece_dim(S, i, j) == (i + 1) * ((j + 1) * (j + 2) // 2)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(1, 32002)), max_size=4))
@settings(max_examples=50)
def test_span_dim_never_exceeds_piece(pairs):
    polys = []
    for a, t, c in pairs:
        exps = [2 - a, a, 0, 0, 0]
        exps[2 + t] = 1
        polys.append(S.monomial(tuple(exps), c))
    d = span_dim(polys, S, 2, 1)
    assert 0 <= d <= min(len(polys), gradedlin.piece_dim(S, 2, 1))


def test_solve_combination_rejects_a_wrong_solution(monkeypatch):
    # a solver fault must surface as a named error, also under python -O
    real_solve_many = linalg.solve_many

    def off_by_one(columns, rhss, field):
        sols = real_solve_many(columns, rhss, field)
        return [{**sols[0], 0: field(sols[0].get(0, 0) + 1)}] + sols[1:]

    monkeypatch.setattr(linalg, "solve_many", off_by_one)
    gens = [parse_poly("x0^2", R), parse_poly("x1^2", R)]
    with pytest.raises(ArithmeticError, match="re-expand"):
        gradedlin.solve_combination(parse_poly("x0^3 + x0*x1^2", R), gens, R)


def test_solve_combination_rejects_generators_with_a_T_variable():
    gens = [parse_poly("x0^2", S), parse_poly("x1*T2", S)]
    with pytest.raises(ValueError, match="T-degree 0"):
        gradedlin.solve_combination(parse_poly("x0^2*x1*T2", S), gens, S)


# -- the base-ring solve against the whole-piece solve --------------------------

def s_piece_solve(target, gens, ring):
    """Reference: one system over the whole bigraded piece of the target.

    Unknowns ordered by (generator, canonical monomial order of its piece),
    solved by one `linalg.solve_many`, free variables zero.
    """
    if target.is_zero():
        return [ring.zero() for _ in gens]
    ti, tj = target.xdeg(), target.tdeg()
    sols = linalg.solve_many(gradedlin.multiples(gens, ring, ti, tj),
                             [gradedlin.coordinates(target, ti, tj)],
                             ring.field)
    if sols is None:
        return None
    [sol] = sols
    out, k = [], 0
    for g in gens:
        shift = (0, -1) if g.is_zero() else (ti - g.xdeg(), tj - g.tdeg())
        size = gradedlin.piece_dim(ring, *shift)
        out.append(gradedlin.from_coordinates(
            {j - k: c for j, c in sol.items() if k <= j < k + size},
            ring, *shift))
        k += size
    return out


@st.composite
def combination_problems(draw):
    """T-degree-0 generators in S with 2-4 T-variables, and a target.

    The target is a random combination of the generators (solvable) or a
    random element of its piece (often not)."""
    field = draw(st.sampled_from([PrimeField(7), F, RationalField()]))
    ring = ring_S(field, draw(st.integers(2, 4)))

    def element(xdeg, tdeg):
        return ring.from_terms({m: draw(st.integers(-3, 3))
                                for m in gradedlin.piece_monomials(
                                    ring, xdeg, tdeg)})

    gens = [element(draw(st.integers(0, 3)), 0)
            for _ in range(draw(st.integers(1, 3)))]
    ti, tj = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        target = ring.zero()
        for g in gens:
            if not g.is_zero() and g.xdeg() <= ti:
                target = target + element(ti - g.xdeg(), tj) * g
    else:
        target = element(ti, tj)
    return ring, gens, target


@given(combination_problems())
@settings(max_examples=120, deadline=None)
def test_solve_combination_matches_the_whole_piece_solve(problem):
    ring, gens, target = problem
    assert gradedlin.solve_combination(target, gens, ring) == s_piece_solve(
        target, gens, ring)


@pytest.mark.parametrize("field", [F, RationalField()])
def test_solve_combination_unsolvable_in_both_routes(field):
    ring = ring_S(field, 3)
    gens = [parse_poly("x0^2", ring), parse_poly("x0*x1", ring)]
    # the T2^2 block is solvable, but x1^3 lies outside (x0^2, x0*x1), so
    # the T1*T3 block is not
    target = parse_poly("x0^3*T2^2 + x1^3*T1*T3", ring)
    assert gradedlin.solve_combination(target, gens, ring) is None
    assert s_piece_solve(target, gens, ring) is None


# -- the row writer against Poly-product references ---------------------------

@st.composite
def polys_and_piece(draw):
    """A ring, a piece and a few polys: zero, inside, below or above it.

    The scroll ring's pieces reach negative x-degrees, where w-multiples of a
    poly of higher x-degree can still land."""
    ring = draw(st.sampled_from([R, S, W]))
    xlo = -3 if ring is W else 0
    tmax = 0 if ring is R else 2
    xdeg, tdeg = draw(st.integers(xlo, 3)), draw(st.integers(0, tmax))
    polys = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(xlo, xdeg + 1)), draw(st.integers(0, tmax))
        monos = gradedlin.piece_monomials(ring, a, b)
        chosen = draw(st.lists(st.sampled_from(monos), unique=True,
                               max_size=4)) if monos else []
        polys.append(Poly(ring, {m: F(draw(st.integers(1, 32002)))
                                 for m in chosen}))
    return ring, xdeg, tdeg, polys


@given(polys_and_piece())
@settings(max_examples=80, deadline=None)
def test_multiples_match_poly_products(case):
    ring, xdeg, tdeg, polys = case
    monos = gradedlin.piece_monomials(ring, xdeg, tdeg)
    pairs, want = [], []
    for p in polys:
        if p.is_zero():
            continue
        for mu in gradedlin.piece_monomials(ring, xdeg - p.xdeg(),
                                            tdeg - p.tdeg()):
            product = ring.monomial(mu) * p
            pairs.append((p.terms, mu))
            want.append({j: product.terms[m] for j, m in enumerate(monos)
                         if m in product.terms})
            assert gradedlin.coordinates(product, xdeg, tdeg) == want[-1]
    assert gradedlin.multiples(polys, ring, xdeg, tdeg) == want
    assert gradedlin.shifted_rows(pairs, ring, xdeg, tdeg) == want


def test_multiples_of_zero_and_higher_polys_are_empty():
    assert gradedlin.multiples([S.zero(), parse_poly("x0^2*T1", S)],
                               S, 1, 1) == []
    assert gradedlin.multiples([parse_poly("x0*T1^2", S)], S, 1, 1) == []
    # w1 has x-degree -2, so x0 * w1 reaches (-1, 1) but x0^2 * w1 does not
    assert gradedlin.multiples([parse_poly("x0^2*w1", W)], W, -1, 1) == []
    assert len(gradedlin.multiples([parse_poly("x0*w1", W)], W, -1, 1)) == 1


def test_shifted_rows_rejects_a_term_outside_the_piece():
    p = parse_poly("x0*T1 + x1*T2", S)
    with pytest.raises(GradingError, match=r"outside the \(1,1\) piece"):
        gradedlin.shifted_rows([(p.terms, (1, 0, 0, 0, 0))], S, 1, 1)
    assert gradedlin.shifted_rows([(p.terms, (1, 0, 0, 0, 0))], S, 2, 1) == [
        gradedlin.coordinates(parse_poly("x0^2*T1 + x0*x1*T2", S), 2, 1)]


def test_image_rows_rejects_a_map_that_moves_x_degrees():
    # T1 -> x0*T1 raises the x-degree, so the image of T1 leaves the (0,1)
    # piece its row would be written into
    F = PrimeField(7)
    S = ring_S(F, 2)
    ring_map = RingMap([parse_poly("x0*T1", S), parse_poly("T2", S)], S)
    with pytest.raises(GradingError, match=r"outside the \(0,1\) piece"):
        gradedlin.image_rows(ring_map, S, 0, 1)
