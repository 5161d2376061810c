from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rees import ring
from rees.field import PrimeField, RationalField
from rees.ring import (
    GradingError,
    ParseError,
    Poly,
    PolyRing,
    RingMap,
    bidegree,
    dot,
    linear_images,
    parse_poly,
    poly_to_str,
    promote,
    ring_R,
    ring_S,
    ring_scroll,
)

F = PrimeField(32003)
F7 = PrimeField(7)
P31 = PrimeField(2**31 - 1)     # the largest allowed modulus
Q = RationalField()
R = ring_R(F)
S3 = ring_S(F, 3)


def rp(s):
    return parse_poly(s, R)


def sp(s):
    return parse_poly(s, S3)


def test_ring_constructors():
    assert R.var_names == ("x0", "x1")
    assert S3.var_names == ("x0", "x1", "T1", "T2", "T3")
    assert S3.tweights == (0, 0, 0)
    W = ring_scroll(F, (2, 0))
    assert W.var_names == ("x0", "x1", "w1", "w2")
    assert W.tweights == (-2, 0)


def test_parse_and_print_round_trip():
    cases = [
        "0",
        "1",
        "x0",
        "x1^5",
        "x0^2*x1",
        "x0^2 + 2*x0*x1 + x1^2",
        "32002*x0^3*x1^2",
    ]
    for s in cases:
        p = rp(s)
        assert str(p) == s
        assert rp(str(p)) == p


def test_parse_signs_and_spacing():
    assert rp("-x0^2") == rp("32002*x0^2")
    assert rp("x0 - x1") == rp("x0") - rp("x1")
    assert rp(" + x0^2 ") == rp("x0^2")
    assert sp("3*T1*x0") == sp("3*x0*T1")


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        rp("x2")
    with pytest.raises(ParseError):
        rp("x0^")
    with pytest.raises(ParseError):
        rp("x0 +")
    with pytest.raises(ParseError):
        rp("(x0+x1)^2")
    # grading is enforced at parse time
    with pytest.raises(GradingError):
        rp("x0 + x0^2")
    with pytest.raises(GradingError):
        sp("T1 + x0^2")


def test_parse_rejects_a_denominator_divisible_by_p():
    # 1/p has no value in F_p: a parse error at the term, not a crash
    with pytest.raises(ParseError) as err:
        rp("x0 + 1/32003*x1")
    assert err.value.pos == 5 and "32003" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_poly("3/14*x0", ring_R(F7))
    assert err.value.pos == 0
    assert rp("1/2*x0") == rp("16002*x0")
    assert parse_poly("1/32003*x0", ring_R(Q)).terms == {(1, 0): Fraction(1, 32003)}


def test_rational_coefficients_parse():
    Q = RationalField()
    RQ = ring_R(Q)
    p = parse_poly("1/2*x0^2 - 2/3*x0*x1", RQ)
    assert p.coefficient((2, 0)) == Fraction(1, 2)
    assert p.coefficient((1, 1)) == Fraction(-2, 3)


def test_bidegrees():
    assert bidegree(sp("x0^2*T1 + x1^2*T3")) == (2, 1)
    assert bidegree(rp("x0*x1")) == (2, 0)
    with pytest.raises(GradingError):
        bidegree(S3.zero())
    g = sp("x0*T1")
    assert g.xdeg() == 1 and g.tdeg() == 1
    assert g.is_bihomogeneous()
    mixed = Poly(S3, {(1, 0, 1, 0, 0): 1, (0, 0, 0, 2, 0): 1})
    assert not mixed.is_bihomogeneous()


def test_scroll_grading_counts_negative_weights():
    W = ring_scroll(F, (2, 1))
    p = parse_poly("x0^3*w1 + x1^2*w2", W)
    # x-degrees: 3 - 2 = 1 and 2 - 1 = 1
    assert p.xdeg() == 1
    assert p.tdeg() == 1


def test_arithmetic_on_knowns():
    a, b = rp("x0 + x1"), rp("x0 - x1")
    assert a * b == rp("x0^2 - x1^2")
    assert (a + b) == rp("2*x0")
    assert a - a == R.zero()
    assert rp("x0") ** 3 == rp("x0^3")
    assert a.scale(F(2)) == rp("2*x0 + 2*x1")
    assert (-a) == rp("-x0 - x1")


def test_monic_and_lead():
    p = rp("2*x0^2 + 4*x1^2")
    assert p.monic() == rp("x0^2 + " + str((F.inv(2) * 4) % 32003) + "*x1^2")
    assert p.lead_monomial() == (2, 0)


def test_promote_and_coefficient():
    p = rp("x0^2 + x1^2")
    q = promote(p, S3)
    assert q.ring is S3
    assert q.coefficient((2, 0, 0, 0, 0)) == 1
    with pytest.raises(ValueError):
        promote(sp("T1"), S3)


def test_substitute_T_linear_images():
    # T1 -> x0*w, T2 -> x1*w, T3 -> 0 turns the quadric row combination
    # x0^2 T1 + x0x1 T2 + x1^2 T3 into x0^2(x0 w) + x0x1(x1 w)
    W = ring_scroll(F, (1,))
    g = sp("x0^2*T1 + x0*x1*T2 + x1^2*T3")
    images = [parse_poly("x0*w1", W), parse_poly("x1*w1", W), W.zero()]
    got = RingMap(images, W)(g)
    assert got == parse_poly("x0^3*w1 + x0*x1^2*w1", W)


def test_linear_images_hull_substitution_matches_manual():
    xi = ((rp("-x1"), rp("x0"), R.zero()),
          (R.zero(), rp("-x1"), rp("x0")))
    W = ring_scroll(F, (1, 1))
    images = linear_images(xi, W)
    assert images == (parse_poly("-x1*w1", W), parse_poly("x0*w1 - x1*w2", W),
                      parse_poly("x0*w2", W))
    g = sp("x0^2*T1 + x0*x1*T2 + x1^2*T3")
    # x0^2(-x1 w1) + x0x1(x0 w1 - x1 w2) + x1^2(x0 w2) = 0
    assert RingMap(images, W)(g) == W.zero()
    h = sp("T1")
    assert RingMap(images, W)(h) == parse_poly("-x1*w1", W)


def test_substitute_T_powers():
    W = ring_scroll(F, (1, 1))
    images = [parse_poly("x0*w1", W), parse_poly("x1*w2", W), W.zero()]
    got = RingMap(images, W)(sp("x0*T1^2*T2"))
    assert got == parse_poly("x0^3*x1*w1^2*w2", W)


def test_linear_images_coordinate_change_inverts():
    chi = ((F(1), F(2), F(0)), (F(0), F(1), F(0)), (F(5), F(0), F(1)))
    # inverse of upper-ish triangular matrix, computed by hand
    chi_inv = ((F(1), F(32001), F(0)), (F(0), F(1), F(0)),
               (F(32003 - 5), F(10), F(1)))
    p = sp("x0*T1^2 + x1*T2*T3 + x0*T3^2")
    q = RingMap(linear_images(chi, S3), S3)(p)
    back = RingMap(linear_images(chi_inv, S3), S3)(q)
    assert back == p


def test_linear_images_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match="one matrix row"):
        linear_images(((rp("x0"), rp("x1")),), ring_scroll(F, (1, 1)))


def test_linear_images_rejects_a_matrix_without_rows():
    with pytest.raises(ValueError, match="no rows"):
        linear_images((), PolyRing(PrimeField(7)))


coeffs = st.integers(min_value=0, max_value=32002)


def small_base_polys(max_deg=4):
    def build(draw_pairs):
        terms = {}
        for (a, deg), c in draw_pairs:
            if c:
                terms[(deg - a, a)] = c
        return Poly(R, terms)
    return st.lists(
        st.tuples(st.tuples(st.integers(0, max_deg), st.just(max_deg)), coeffs),
        max_size=5).map(build)


def naive_product(p, q):
    """Reference product: every pair of terms multiplied and summed alone."""
    field = p.ring.field
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = field(out.get(m, 0) + c1 * c2)
    return Poly(p.ring, {m: c for m, c in out.items() if c})


@st.composite
def homogeneous_triples(draw):
    """Three polynomials of one bidegree piece of a base ring or a ring with
    T-variables, over F_32003, F_7 (where cancellations are common) or Q."""
    field = draw(st.sampled_from([F, PrimeField(7), Q]))
    ring = draw(st.sampled_from([ring_R(field), ring_S(field, 2)]))
    xdeg, tdeg = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    if not ring.tvar_names:
        tdeg = 0
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]).map(field)

    def poly():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            a = draw(st.integers(0, xdeg))
            t = draw(st.integers(0, tdeg))
            texps = (t, tdeg - t) if ring.tvar_names else ()
            terms[(xdeg - a, a) + texps] = draw(coeff)
        return Poly(ring, terms)
    return poly(), poly(), poly()


@given(homogeneous_triples())
@settings(max_examples=150, deadline=None)
def test_ring_axioms_on_homogeneous_pieces(triple):
    p, q, r = triple
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert p + q == q + p
    assert (p - q) + q == p
    assert p * q == naive_product(p, q)
    assert -p == p.scale(-1)
    assert p.scale(0).is_zero() and (p - p).is_zero()


@st.composite
def product_sums(draw):
    """1-4 pairs of one ring over F_32003, F_7 or Q, with a short and a long
    factor either way round, and possibly a pair that cancels another."""
    field = draw(st.sampled_from([F, F7, Q]))
    ring = draw(st.sampled_from([ring_R(field), ring_S(field, 2)]))
    coeff = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]).map(field)
    k = len(ring.tvar_names)

    def poly(size):
        terms = {}
        for _ in range(size):
            m = draw(st.tuples(*[st.integers(0, 3)] * (2 + k)))
            terms[m] = draw(coeff)
        return Poly(ring, terms)

    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = poly(draw(st.integers(0, 2))), poly(draw(st.integers(3, 7)))
        pairs.append((b, a) if draw(st.booleans()) else (a, b))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        pairs.append((-a, b) if draw(st.booleans()) else (b, -a))
    return ring, pairs


@given(product_sums())
@settings(max_examples=150, deadline=None)
def test_dot_is_the_sum_of_its_products(case):
    ring, pairs = case
    want = sum((naive_product(a, b) for a, b in pairs), ring.zero())
    assert dot(pairs, ring) == want
    assert dot(iter(pairs), ring) == want
    assert pairs[0][0] * pairs[0][1] == naive_product(*pairs[0])
    assert dot(pairs + [(-a, b) for a, b in pairs], ring).is_zero()
    assert dot([], ring) == ring.zero()


def test_a_product_loops_over_its_shorter_factor(monkeypatch):
    # one kernel call per term of the two-term factor, either way round
    long = parse_poly("x0^3 + x0^2*x1 + x0*x1^2 + x1^3", R)
    short = parse_poly("x0 - x1", R)
    want = parse_poly("x0^4 - x1^4", R)
    calls = []
    real = ring.sub_multiple
    monkeypatch.setattr(ring, "sub_multiple",
                        lambda *args: calls.append(1) or real(*args))
    assert long * short == short * long == want
    assert len(calls) == 4


def test_dot_rejects_a_factor_from_another_ring():
    p = parse_poly("x0 + 2*x1", R)
    for other in (parse_poly("T1", S3), parse_poly("x0", ring_R(F7))):
        with pytest.raises(ValueError, match="different rings"):
            p * other
        with pytest.raises(ValueError, match="different rings"):
            other * p
        with pytest.raises(ValueError, match="different rings"):
            dot([(p, p), (p, other)], R)
        with pytest.raises(ValueError, match="different rings"):
            dot([(other, other)], R)


@given(small_base_polys())
@settings(max_examples=60)
def test_print_parse_round_trip(p):
    assert parse_poly(str(p), R) == p
    assert poly_to_str(p) == str(p)


def substitute_per_term(p, images, target):
    """Reference substitution: every term imaged and multiplied out alone."""
    pad = (0,) * len(target.tvar_names)
    out = target.zero()
    for m, c in p.terms.items():
        piece = Poly(target, {(m[0], m[1]) + pad: c})
        for j, e in enumerate(m[2:]):
            for _ in range(e):
                piece = piece * images[j]
        out = out + piece
    return out


def field_coeffs(field):
    if field.modulus is None:
        return st.fractions(min_value=-9, max_value=9,
                            max_denominator=5).filter(bool)
    p = field.modulus
    # residues just below p make every product of two of them near p**2
    return st.one_of(st.integers(1, p - 1), st.integers(max(1, p - 9), p - 1))


@st.composite
def substitution_cases(draw):
    """Polynomials of S sharing T-monomials, the zero one among them, and images.

    Every polynomial takes its T-monomials from one pool, which may hold the
    T-degree-0 monomial and several T-monomials of one degree, and has several
    x-monomials per T-monomial.  The target is S again (a change of
    T-coordinates) or a scroll ring (a hull substitution); F_7, F_32003,
    F_(2^31 - 1) and Q are drawn.
    """
    field = draw(st.sampled_from([F7, F, P31, Q]))
    coeff = field_coeffs(field)
    S = ring_S(field, 3)
    pool = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3),
                         min_size=1, max_size=5, unique=True))
    polys = [S.zero()]
    for _ in range(draw(st.integers(1, 3))):
        xdeg = draw(st.integers(0, 3))
        terms = {}
        for te in draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=4, unique=True)):
            for a in draw(st.sets(st.integers(0, xdeg), min_size=1,
                                  max_size=4)):
                terms[(xdeg - a, a) + te] = draw(coeff)
        polys.insert(draw(st.integers(0, len(polys))), Poly(S, terms))
    target = draw(st.sampled_from([S, ring_scroll(field, (1, 0))]))
    k = len(target.tvar_names)
    images = []
    for _ in range(3):
        img = {}
        for _ in range(draw(st.integers(0, 3))):
            exps = draw(st.tuples(*[st.integers(0, 1)] * (2 + k)))
            img[exps] = draw(coeff)
        images.append(Poly(target, img))
    return polys, images, target


@given(substitution_cases())
@settings(max_examples=150, deadline=None)
def test_substitute_T_matches_per_term_reference(case):
    # one map applied to the whole sequence must agree with the reference on
    # every call, whatever its memo already holds
    polys, images, target = case
    ring_map = RingMap(images, target)
    for p in polys:
        want = substitute_per_term(p, images, target)
        assert ring_map(p) == want
        assert RingMap(images, target)(p) == want


@given(substitution_cases())
@settings(max_examples=100, deadline=None)
def test_apply_all_equals_the_one_polynomial_calls(case):
    # one batch, zero polynomials and mixed x-degrees included, must give
    # every polynomial the image a call of its own gives it
    polys, images, target = case
    want = [RingMap(images, target)(p) for p in polys]
    assert RingMap(images, target).apply_all(polys) == want
    assert RingMap(images, target).apply_all([]) == []


def _gathered(ring_map, p):
    """The memo rows the terms of p gather through ring_map."""
    return sum(stop - start for start, stop in
               (ring_map.memo[m[2:]] for m in p.terms))


def _merge_spy(monkeypatch, in_fill=False):
    """The rows each `RingMap._merge` of an `apply_all` gathers, with the
    rows per polynomial: (total, {owner: rows}); merges inside `fill` are
    left out, or with in_fill the only ones kept, with rows per entry."""
    merges, filling = [], []
    real_merge, real_fill = RingMap._merge, RingMap.fill

    def merge(self, owner, spans, coeffs, shifts):
        if bool(filling) == in_fill:
            rows = {}
            for k, (start, stop) in zip(owner.tolist(), spans.tolist()):
                rows[k] = rows.get(k, 0) + stop - start
            merges.append((sum(rows.values()), rows))
        return real_merge(self, owner, spans, coeffs, shifts)

    def fill(self, texps):
        filling.append(1)
        try:
            return real_fill(self, texps)
        finally:
            filling.pop()

    monkeypatch.setattr(RingMap, "_merge", merge)
    monkeypatch.setattr(RingMap, "fill", fill)
    return merges


@pytest.mark.parametrize("field", [F7, F, P31, Q], ids=str)
def test_apply_all_batches_zero_and_mixed_degree_polynomials(
        field, monkeypatch):
    S = ring_S(field, 2)
    W = ring_scroll(field, (1, 0))
    # images and polynomials of mixed x-degree, built from their terms
    images = [W.from_terms({(1, 0, 1, 0): 3, (0, 1, 0, 1): 1}),
              W.from_terms({(0, 1, 1, 0): 1, (0, 0, 0, 1): -1})]
    polys = [S.zero(),
             S.from_terms({(2, 0, 2, 0): 1, (1, 1, 1, 1): -5, (0, 0, 0, 2): 1}),
             S.zero(),
             S.from_terms({(0, 1, 0, 3): 1, (3, 0, 1, 0): 2}),
             S.one(),
             S.from_terms({(0, 0, 3, 0): 2, (0, 0, 1, 2): -1, (1, 0, 0, 3): 1})]
    ring_map = RingMap(images, W)
    batch = ring_map.apply_all(polys)
    assert batch == [substitute_per_term(p, images, W) for p in polys]
    assert batch == [RingMap(images, W)(p) for p in polys]
    assert batch[0] == batch[2] == W.zero() and batch[4] == W.one()
    assert ring_map.apply_all([]) == []
    # merged in runs of at most MERGE_ROWS gathered rows, the batch gives
    # the same images; the cubic alone gathers more than every bound but
    # the last and goes by itself
    rows = [_gathered(ring_map, p) for p in polys]
    assert max(rows) > 12 and sum(rows) < ring.MERGE_ROWS
    merges = _merge_spy(monkeypatch)
    for bound in (1, 5, 12, ring.MERGE_ROWS):
        monkeypatch.setattr(ring, "MERGE_ROWS", bound)
        assert RingMap(images, W).apply_all(polys) == batch
        assert RingMap(images, W).apply_all([]) == []
        del merges[:]
        assert ring_map.apply_all(polys) == batch
        assert sum(total for total, _ in merges) == sum(rows)
        assert all(total <= bound or len(per_poly) == 1
                   for total, per_poly in merges)
        assert (len(merges) == 1) == (sum(rows) <= bound)


def test_evaluation_merges_stay_within_the_bound(table2, monkeypatch):
    # evaluating table2's records gathers 891 memo rows, which one merge held
    # before the bound; no merge may gather more than the bound or, where
    # one record alone gathers more, that record's rows
    from rees.generators import tower_generators
    from rees.tower import evaluation_membership

    bound = 64
    monkeypatch.setattr(ring, "MERGE_ROWS", bound)
    polys = [rec.poly for rec in tower_generators(table2, 1)]
    merges = _merge_spy(monkeypatch)
    assert all(evaluation_membership(table2, polys))
    largest = max(rows for _, per_poly in merges
                  for rows in per_poly.values())
    assert sum(total for total, _ in merges) > max(bound, largest)
    assert all(total <= max(bound, largest) for total, _ in merges)
    assert all(total <= bound or len(per_poly) == 1
               for total, per_poly in merges)


def test_fill_merges_stay_within_the_bound(table2, monkeypatch):
    # one T-degree of the evaluation map's memo is filled in runs of
    # entries that gather at most the bound, an entry that alone gathers
    # more by itself, and the images do not depend on the bound
    from rees.generators import tower_generators

    target = PolyRing(F, ("y",), (0,))
    y = target.var("y")
    images = [promote(f, target) * y for f in table2.minors]
    polys = [rec.poly for rec in tower_generators(table2, 1)]
    want = RingMap(images, target).apply_all(polys)
    degrees = {sum(m[2:]) for p in polys for m in p.terms}
    merges = _merge_spy(monkeypatch, in_fill=True)
    for bound in (1, 5, 64):
        monkeypatch.setattr(ring, "MERGE_ROWS", bound)
        del merges[:]
        assert RingMap(images, target).apply_all(polys) == want
        assert len(merges) > len(degrees)
        assert all(total <= bound or len(per_entry) == 1
                   for total, per_entry in merges)


def test_products_near_the_largest_modulus_are_reduced_before_summing():
    # T1 -> (p-1) x1 and T2 -> (p-1) x0 send the 42 terms
    # (p-1) x0^i x1^(41-i) T1^i T2^(41-i) to x0^41 x1^41 each; the memo holds
    # (p-1)^41 = p-1 for every T-monomial, so the image's one coefficient sums
    # 42 products (p-1)^2, near 2^62 each
    p = P31.modulus
    S = ring_S(P31, 2)
    R = ring_R(P31)
    images = [Poly(R, {(0, 1): p - 1}), Poly(R, {(1, 0): p - 1})]
    k = 41
    poly = Poly(S, {(i, k - i, i, k - i): p - 1 for i in range(k + 1)})
    got = RingMap(images, R)(poly)
    assert got == Poly(R, {(k, k): (k + 1) * (-1) ** (k + 1) % p})
    assert got == substitute_per_term(poly, images, R)


def test_ring_map_rejects_an_image_outside_its_target():
    W = ring_scroll(F, (1,))
    with pytest.raises(ValueError, match="target ring"):
        RingMap([parse_poly("x0*w1", W), sp("T1")], W)


def test_ring_map_rejects_a_polynomial_over_another_field():
    # an F_7 polynomial through an F_11 map once came out as 3*w1, its
    # coefficient read mod 11
    F11 = PrimeField(11)
    W = ring_scroll(F11, (0,))
    ring_map = RingMap([parse_poly("w1", W)], W)
    p7 = parse_poly("3*T1", ring_S(F7, 1))
    with pytest.raises(ValueError, match="cannot go through a map"):
        ring_map(p7)
    with pytest.raises(ValueError, match="cannot go through a map"):
        ring_map.apply_all([parse_poly("T1", ring_S(F11, 1)), p7])
