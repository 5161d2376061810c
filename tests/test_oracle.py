from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_path, span_dim
from rees import cli, combinat, oracle, tower
from rees.field import PrimeField, RationalField
from rees.generators import u_span_dim
from rees.gradedlin import piece_basis, piece_monomials
from rees.oracle import (
    DEGREE_BOUND,
    ExponentOverflowError,
    GroebnerBasis,
    MonomialCodec,
    WindowError,
    _first_divisors,
    _nf_terms,
    _rational_twin,
    _saturate_var,
    bigraded_hilbert,
    buchberger,
    minimal_generator_bidegrees,
    normal_form,
    saturated_ideal,
)
from rees.generators import tower_generators
from rees.ring import Poly, bidegree, parse_poly, ring_R, ring_S, ring_scroll
from rees.tower import sym_equations

F = PrimeField(32003)
S3 = ring_S(F, 3)


def p(text, ring=S3):
    return parse_poly(text, ring)


# -- Groebner bases -----------------------------------------------------------

def test_buchberger_monomial_ideal_is_untouched():
    G = buchberger([p("x0*T1"), p("x1*T1")])
    assert {str(g) for g in G.generators} == {"x0*T1", "x1*T1"}


def test_buchberger_computes_the_missing_s_pair():
    G = buchberger([p("x0*T1 - x1*T2"), p("x1*T1 - x0*T2")])
    # the s-pair contributes (x0^2 - x1^2)*T2, reducible by neither input
    assert len(G.generators) == 3
    assert normal_form(p("x0^2*T2 - x1^2*T2"), G).is_zero()
    assert not normal_form(p("T2"), G).is_zero()


def test_buchberger_idempotent(quadric_cubic):
    gens = list(sym_equations(quadric_cubic))
    G = buchberger(gens)
    again = buchberger(G.generators)
    assert again.generators == G.generators


def test_buchberger_validation():
    assert buchberger([]).generators == ()
    assert buchberger([S3.zero()]).generators == ()
    with pytest.raises(ValueError, match="different rings"):
        buchberger([p("T1"), parse_poly("T1", ring_S(F, 4))])
    from rees.ring import Poly
    mixed = Poly(S3, {(1, 0, 0, 0, 0): F(1), (0, 0, 1, 0, 0): F(1)})
    with pytest.raises(ValueError, match="bihomogeneous"):
        buchberger([mixed])


def test_buchberger_rejects_weighted_T():
    scroll = ring_scroll(F, (1,))
    with pytest.raises(ValueError, match="x-weight 0"):
        buchberger([parse_poly("x0*w1", scroll)])


def test_normal_form_basics():
    G = buchberger([p("T2")])
    assert normal_form(p("T1"), G) == p("T1")
    assert normal_form(p("T2"), G).is_zero()
    assert normal_form(p("x0*T2 + x1*T1"), G) == p("x1*T1")
    assert normal_form(S3.zero(), G).is_zero()


def test_normal_form_detects_membership(quadric_cubic):
    K = saturated_ideal(quadric_cubic)
    for rec in tower_generators(quadric_cubic, 1):
        assert normal_form(rec.poly, K).is_zero()
    assert not normal_form(p("T1", quadric_cubic.sring), K).is_zero()


# -- the reduction kernel -----------------------------------------------------

def block_key(m):
    # the block order's comparison key on exponent tuples, written out
    tex = m[2:]
    return ((sum(tex),) + tuple(-e for e in reversed(tex))
            + (m[0] + m[1], -m[1], -m[0]))


def degrevlex_key(last):
    # plain degrevlex over T1 > .. > Tn > x_(1-last) > x_last
    def key(m):
        return ((sum(m), -m[last], -m[1 - last])
                + tuple(-e for e in reversed(m[2:])))
    return key


def naive_remainder(terms, reducers, key, p):
    """Textbook division: cancel the largest remaining term with the first
    reducer whose lead divides it, subtracting the whole shifted reducer."""
    work, rem = dict(terms), {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lead, g in reducers:
            if all(a >= b for a, b in zip(m, lead)):
                shift = tuple(a - b for a, b in zip(m, lead))
                for gm, gc in g.items():
                    nm = tuple(a + b for a, b in zip(gm, shift))
                    v = work.get(nm, 0) - c * gc
                    if p is not None:
                        v %= p
                    if v:
                        work[nm] = v
                    else:
                        work.pop(nm, None)
                break
        else:
            rem[m] = c
            del work[m]
    return rem


MONOMIALS = st.tuples(*[st.integers(0, 2)] * 4)  # x0, x1, T1, T2
KERNEL_FIELDS = {
    # a small prime makes cancellations to zero common
    "F_7": (PrimeField(7), st.integers(1, 6)),
    "Q": (RationalField(), st.builds(Fraction, st.integers(-5, 5).filter(bool),
                                     st.integers(1, 4))),
}


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nf_terms_matches_naive_division(name, data):
    # the kernel runs on packed monomials; the reference on exponent tuples
    field, coeffs = KERNEL_FIELDS[name]
    codec = MonomialCodec(4)
    polys = st.dictionaries(MONOMIALS, coeffs, min_size=1, max_size=5)
    terms = data.draw(polys)
    reducers = []
    for g in data.draw(st.lists(polys, min_size=1, max_size=3)):
        lead = max(g, key=block_key)
        inv = field.inv(g[lead])
        reducers.append((lead, {m: field(c * inv) for m, c in g.items()}))
    packed = [(codec.pack(lead), codec.pack_terms(g)) for lead, g in reducers]
    got = _nf_terms(codec.pack_terms(terms), packed, codec, field.modulus)
    assert codec.unpack_terms(got) == naive_remainder(terms, reducers,
                                                      block_key, field.modulus)


# -- packed monomials ----------------------------------------------------------

def exponents(nvars):
    # mostly small exponents, some large enough that a sum of three tuples
    # (a + b, with b drawn as a + c) nearly fills the digits
    big = DEGREE_BOUND // (3 * nvars)
    return st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, big))]
                     * nvars)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("last", [None, 0, 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_codec_matches_the_tuple_order(n, last, data):
    nvars = n + 2
    codec = MonomialCodec(nvars, last)
    key = block_key if last is None else degrevlex_key(last)
    a = data.draw(exponents(nvars))
    b = data.draw(st.one_of(
        exponents(nvars),
        exponents(nvars).map(lambda c: tuple(x + y for x, y in zip(a, c)))))
    pa, pb = codec.pack(a), codec.pack(b)
    assert codec.unpack(pa) == a and codec.unpack(pb) == b
    assert (pa < pb) == (key(a) < key(b))
    assert (pa == pb) == (a == b)
    assert codec.pack(tuple(x + y for x, y in zip(a, b))) == pa + pb
    assert codec.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert codec.divides(pb, pa) == all(x >= y for x, y in zip(a, b))


def test_codec_rejects_a_degree_past_the_digit_width():
    codec = MonomialCodec(5)
    top = (0, 0, DEGREE_BOUND, 0, 0)
    assert codec.unpack(codec.pack(top)) == top
    with pytest.raises(ExponentOverflowError, match=str(DEGREE_BOUND)):
        codec.pack((1, 0, DEGREE_BOUND, 0, 0))
    with pytest.raises(ExponentOverflowError, match=str(DEGREE_BOUND)):
        codec.pack((0, -1, 1, 0, 0))


def test_buchberger_rejects_a_pair_past_the_digit_width():
    # each input packs, but the S-pair's lcm has total degree 40001
    gens = [p("x0^20000*T1 - x1^20000*T2"), p("x1^20000*T1 - x0^20000*T2")]
    with pytest.raises(ExponentOverflowError, match=str(DEGREE_BOUND)):
        buchberger(gens)


# -- saturation ---------------------------------------------------------------

def test_saturate_by_variable_known():
    got, _ = _saturate_var([p("x0^2*T1"), p("x0*x1*T1")], 0, S3)
    assert [str(g) for g in buchberger(got).generators] == ["T1"]


def test_saturate_removes_base_torsion():
    K = buchberger(_saturate_var([p("x0*T1"), p("x1*T1")], 1, S3)[0])
    assert [str(g) for g in K.generators] == ["T1"]


def test_saturate_rejects_weighted_T():
    scroll = ring_scroll(F, (1,))
    with pytest.raises(ValueError, match="x-weight 0"):
        _saturate_var([parse_poly("x0*w1", scroll)], 1, scroll)


def test_saturation_is_stable_under_variable_saturation(quadric_cubic):
    K = saturated_ideal(quadric_cubic)
    ring = quadric_cubic.sring
    for v in (0, 1):
        again = buchberger(_saturate_var(list(K.generators), v, ring)[0])
        assert again.generators == K.generators


def test_saturated_ideal_rational_cross_check(quadric_cubic):
    K = saturated_ideal(quadric_cubic, rational_check=True)
    assert K.generators  # agreement over the rationals, no unlucky-prime error


def test_saturated_ideal_rational_cross_check_table1(table1):
    # the degrevlex saturation key on the Q path, and a guard on the prime
    K = saturated_ideal(table1, rational_check=True)
    assert K.generators == saturated_ideal(table1).generators


@pytest.mark.parametrize("name", ["quadric_cubic", "table1", "final_example",
                                  "random-4-1,2,2"])
def test_rational_basis_reduces_to_the_modular_one(name):
    # the Q kernel's coefficients, not only its lead monomials: mapping the
    # rational twin's reduced basis into F_p term by term must give the F_p
    # basis exactly
    if name.startswith("random"):
        inp = cli.random_instance(4, (1, 2, 2), 0, F)
    else:
        inp = cli.load_instance(fixture_path(f"{name}.json"))
    K = saturated_ideal(inp)
    KQ = saturated_ideal(_rational_twin(inp))
    mapped = tuple(Poly(inp.sring, {m: F(c) for m, c in g.terms.items()})
                   for g in KQ.generators)
    assert mapped == K.generators


@pytest.mark.parametrize("degrees", [(1, 1, 2), (1, 2, 2), (1, 1, 1, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_records_lie_in_the_saturation_on_random_n4_n5(degrees, seed):
    # level m uses the first m + 1 columns, so its records must lie in the
    # saturation of those columns alone, (g_1..g_(m+1)) : x1^infinity
    inp = cli.random_instance(len(degrees) + 1, degrees, seed, F)
    gs = sym_equations(inp)
    for m in range(1, inp.n - 1):
        K = buchberger(_saturate_var(list(gs[:m + 1]), 1, inp.sring)[0])
        for rec in tower_generators(inp, m):
            assert normal_form(rec.poly, K).is_zero(), \
                (degrees, seed, m, rec.provenance, rec.bidegree)


# -- the T-degree cap --------------------------------------------------------

FIXTURE_NAMES = ["almost_linear", "final_example", "final_variant",
                 "quadric_cubic", "table1", "table2", "table3"]
RANDOM_SHAPES = {"random-4-1,2,2": (1, 2, 2), "random-4-1,2,4": (1, 2, 4),
                 "random-5-1,1,1,2": (1, 1, 1, 2)}


def load_case(name):
    if name in RANDOM_SHAPES:
        degrees = RANDOM_SHAPES[name]
        return cli.random_instance(len(degrees) + 1, degrees, 0, F)
    if name.endswith("-rational"):
        return _rational_twin(load_case(name[:-len("-rational")]))
    return cli.load_instance(fixture_path(f"{name}.json"))


def records_top_tdeg(inp):
    return max(rec.bidegree[1] for m in range(1, inp.n - 1)
               for rec in tower_generators(inp, m))


def restricted(K, cap):
    return tuple(g for g in K.generators if bidegree(g)[1] <= cap)


@pytest.mark.parametrize("name", FIXTURE_NAMES + sorted(RANDOM_SHAPES)
                         + ["table1-rational"])
def test_capped_basis_is_the_full_basis_restricted(name):
    inp = load_case(name)
    top = records_top_tdeg(inp)
    # table2's full saturation takes about a minute; the basis capped at 8
    # stands in for it, since every cap below is at most 6
    full = saturated_ideal(inp, t_max=8 if name == "table2" else None)
    for cap in sorted({1, 2, top}):
        K = saturated_ideal(inp, t_max=cap)
        assert K.t_max == cap
        assert K.generators == restricted(full, cap), (name, cap)


def test_capped_rational_check_agrees(table1):
    top = records_top_tdeg(table1)
    K = saturated_ideal(table1, rational_check=True, t_max=top)
    assert K.generators == saturated_ideal(table1, t_max=top).generators


def test_every_table2_record_lies_in_the_capped_saturation(table2):
    records = tower_generators(table2, 1)
    K = saturated_ideal(table2, t_max=records_top_tdeg(table2))
    for rec in records:
        assert normal_form(rec.poly, K).is_zero(), (rec.provenance,
                                                    rec.bidegree)


def test_queries_above_the_cap_raise(quadric_cubic):
    K = saturated_ideal(quadric_cubic, t_max=2)
    S = quadric_cubic.sring
    assert normal_form(parse_poly("x0*T1^2", S), K) == parse_poly("x0*T1^2", S)
    with pytest.raises(WindowError, match="T-degree 3"):
        normal_form(parse_poly("x0*T1^3", S), K)
    assert bigraded_hilbert(K, ((0, 3), (0, 2)))
    assert minimal_generator_bidegrees(K, ((0, 3), (0, 2))).marks()
    with pytest.raises(WindowError):
        bigraded_hilbert(K, ((0, 3), (0, 3)))
    with pytest.raises(WindowError):
        minimal_generator_bidegrees(K, ((0, 3), (1, 3)))
    # an empty capped basis still refuses, and the error is a ValueError, so
    # the CLI reports it as a validation error
    empty = saturated_ideal(quadric_cubic, t_max=0)
    assert empty.generators == () and empty.t_max == 0
    with pytest.raises(ValueError):
        normal_form(parse_poly("T1", S), empty)


def test_variable_saturation_keeps_the_cap(quadric_cubic):
    gens, _ = _saturate_var(sym_equations(quadric_cubic), 1,
                            quadric_cubic.sring, t_max=2)
    assert max(bidegree(g)[1] for g in gens) == 2
    K = saturated_ideal(quadric_cubic, t_max=2)
    assert K.t_max == 2
    assert K.generators == buchberger(gens, t_max=2).generators
    assert K.generators == restricted(saturated_ideal(quadric_cubic), 2)


# -- one variable suffices ---------------------------------------------------

def saturation_disagreement(gens, ring, t_max=None):
    """None when the saturations of (gens) by x0 and by x1 have the same
    reduced basis, else the first generator where they differ."""
    by_x0, by_x1 = (buchberger(_saturate_var(gens, v, ring, t_max)[0],
                               t_max).generators for v in (0, 1))
    if by_x0 == by_x1:
        return None
    for a, b in zip(by_x0 + (None,), by_x1 + (None,)):
        if a != b:
            return f"by x0: {a}, by x1: {b}"


AGREEMENT_SHAPES = [(1, 2), (2, 5), (1, 2, 2), (1, 2, 4), (1, 1, 1, 2)]


def agreement_case(name):
    if not name.startswith("random-"):
        return load_case(name)
    _, degrees, seed = name.split("-")
    degrees = tuple(map(int, degrees.split(",")))
    return cli.random_instance(len(degrees) + 1, degrees, int(seed), F)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ["table1-rational"] + [
    f"random-{','.join(map(str, d))}-{seed}"
    for d in AGREEMENT_SHAPES for seed in (0, 1)])
def test_saturation_by_either_variable_is_the_same(name):
    # the module docstring's theorem: on a presentation whose maximal minors
    # have gcd 1, J : x0^infinity = J : x1^infinity for every partial ideal,
    # so both equal J : (x0,x1)^infinity; table2 is capped as above
    inp = agreement_case(name)
    gs = list(sym_equations(inp))
    t_max = 8 if name == "table2" else None
    for m in range(1, inp.n):
        assert saturation_disagreement(gs[:m], inp.sring, t_max) is None, \
            (name, m)


def test_saturation_disagreement_is_reported_outside_the_hypothesis():
    # (x0*x1*T1) is not the ideal of a presentation with coprime minors:
    # dividing by x0 leaves x1*T1 and dividing by x1 leaves x0*T1
    assert saturation_disagreement([p("x0*x1*T1")], S3) == \
        "by x0: x1*T1, by x1: x0*T1"


# -- bigraded accounting ------------------------------------------------------

def test_bigraded_hilbert_principal():
    G = buchberger([p("T1")])
    dims = bigraded_hilbert(G, ((0, 1), (1, 1)))
    assert dims[(0, 1)] == 1
    assert dims[(1, 1)] == 2


def test_bigraded_hilbert_empty_ideal():
    dims = bigraded_hilbert(GroebnerBasis(generators=()), ((0, 2), (0, 1)))
    assert set(dims.values()) == {0}
    with pytest.raises(ValueError, match="empty"):
        bigraded_hilbert(GroebnerBasis(generators=()), ((2, 0), (0, 1)))


def test_bigraded_hilbert_linear_part_is_the_syzygy_span(table1):
    # in T-degree one the saturation holds exactly the syzygies
    K = saturated_ideal(table1)
    S = table1.sring
    g1, g2 = sym_equations(table1)
    dims = bigraded_hilbert(K, ((3, 17), (1, 1)))
    for i in range(3, 18):
        multiples = [m * g for g in (g1, g2)
                     for m in piece_basis(S, i - g.xdeg(), 0)]
        assert dims[(i, 1)] == u_span_dim(multiples, S, i, 1)


def test_minimal_generators_principal(quadric_cubic):
    g1 = sym_equations(quadric_cubic)[0]
    G = buchberger([g1])
    table = minimal_generator_bidegrees(G, ((0, 5), (1, 3)))
    assert table.marks() == [(2, 1, 1)]


def test_minimal_generators_reproduce_the_first_grid(table1):
    K = saturated_ideal(table1)
    table = minimal_generator_bidegrees(K, ((3, 16), (1, 5)), x_separator=2)
    assert {(x, t): c for x, t, c in table.marks()} == {
        (3, 1): 1, (16, 1): 1, (13, 2): 1, (10, 3): 1, (7, 4): 1, (4, 5): 1}


# -- counting from exponent tuples against Poly-product references -----------

def divides(lead, m):
    return all(a >= b for a, b in zip(m, lead))


def reference_hilbert(G, window):
    # brute force: count the monomials of each piece that some lead divides
    (xlo, xhi), (tlo, thi) = window
    leads = G.leads
    return {(i, j): sum(any(divides(lead, m) for lead in leads)
                        for m in piece_monomials(G.ring, i, j))
            for i in range(xlo, xhi + 1) for j in range(tlo, thi + 1)}


def reference_mingens(G, window):
    # the one-step-down rank with every piece element built as a Poly product
    (xlo, xhi), (tlo, thi) = window
    ring = G.ring
    leads = list(zip(G.leads, G.generators))
    xvars = [ring.var("x0"), ring.var("x1")]
    tvars = [ring.var(name) for name in ring.tvar_names]

    def piece(i, j):
        out = []
        for mu in piece_basis(ring, i, j):
            (m,) = mu.terms
            lead, g = next(((lead, g) for lead, g in leads
                            if divides(lead, m)), (None, None))
            if g is not None:
                out.append(ring.monomial(
                    tuple(a - b for a, b in zip(m, lead))) * g)
        return out

    counts = {}
    for i in range(xlo, xhi + 1):
        for j in range(tlo, thi + 1):
            here = piece(i, j)
            below = []
            if i > xlo:
                below += [v * q for q in piece(i - 1, j) for v in xvars]
            if j > tlo:
                below += [v * q for q in piece(i, j - 1) for v in tvars]
            gained = len(here) - span_dim(below, ring, i, j)
            if gained:
                counts[(i, j)] = gained
    return counts


COUNT_SHAPES = {"random-3-1,3": (1, 3), "random-3-2,4": (2, 4),
                "random-4-1,2,2": (1, 2, 2), "random-5-1,1,1,2": (1, 1, 1, 2)}


def count_case(name):
    if name in COUNT_SHAPES:
        degrees = COUNT_SHAPES[name]
        return cli.random_instance(len(degrees) + 1, degrees, 0, F)
    return load_case(name)


@pytest.mark.parametrize("name", FIXTURE_NAMES + sorted(COUNT_SHAPES))
def test_counts_match_the_poly_product_references(name):
    inp = count_case(name)
    e = inp.col_degrees[-2]
    # past the last column degree, so table1-3's T-degree 2 and 3 generators
    # at x-degrees 10..16 are inside
    top = max(e + 3, inp.col_degrees[-1] + 1)
    K = saturated_ideal(inp, t_max=3)
    # from x = 0 the x-multiples of the left column are subtracted; from
    # x = e (and T = 2) the left column and bottom row count as generators
    for window in (((0, top), (1, 3)), ((e, top), (2, 3))):
        assert bigraded_hilbert(K, window) == reference_hilbert(K, window), \
            (name, window)
        table = minimal_generator_bidegrees(K, window)
        assert table.counts == reference_mingens(K, window), (name, window)
        assert table.x_separator == window[0][0] - 1
    assert minimal_generator_bidegrees(
        K, ((e, top), (2, 3)), x_separator=e - 1).x_separator == e - 1


def test_first_divisors_is_the_same_in_any_chunk_size(monkeypatch):
    leads = np.array([(1, 0, 1, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 0, 0)])
    monos = piece_monomials(S3, 3, 2)
    whole = _first_divisors(monos, leads)
    assert whole.tolist() == [
        next((k for k, lead in enumerate(leads.tolist()) if divides(lead, m)),
             -1) for m in monos]
    assert 0 < (whole >= 0).sum() < len(monos)
    monkeypatch.setattr(oracle, "_DIVIDES_CELLS", 7)
    assert _first_divisors(monos, leads).tolist() == whole.tolist()
    assert _first_divisors((), leads).tolist() == []


# -- the paper's bidegree formula against the oracle -------------------------

@pytest.mark.parametrize("name,sigma", [("table2", (3, 2)), ("table3", (2, 2))])
def test_minimal_generators_match_the_bidegree_formula(name, sigma):
    # the count window starts at x = 0 (a window whose left column is e
    # would count that column's x-multiples as generators), and only the
    # counts at x >= e are compared
    inp = load_case(name)
    top_sigma = tower.hull_embedding(inp, inp.n - 2)[0].sigma
    assert tuple(top_sigma) == sigma
    predicted = combinat.bidegree_table(inp.col_degrees, top_sigma).counts
    e = inp.col_degrees[-2]
    xmax = max(x for x, _ in predicted)
    tmax = max(t for _, t in predicted)
    K = saturated_ideal(inp, t_max=tmax + 1)
    table = minimal_generator_bidegrees(K, ((0, xmax + 2), (1, tmax + 1)))
    assert {b: c for b, c in table.counts.items() if b[0] >= e} == predicted
