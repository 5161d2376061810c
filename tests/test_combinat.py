from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rees.combinat import (
    BidegreeTable,
    below_weight_exponents,
    bidegree_table,
    minimal_weight_exponents,
    weight,
    weight_drop_monomials,
)


def brute_minimal(c, sigma):
    # enumerate a safe box, keep weight >= c, strip non-minimal elements
    r = sum(1 for v in sigma if v > 0)
    box = [range(0, 2 * c + 2) if i < r else range(1) for i in range(len(sigma))]
    heavy = [a for a in product(*box) if weight(a, sigma) >= c]
    minimal = []
    for a in heavy:
        if not any(b != a and all(bi <= ai for bi, ai in zip(b, a))
                   for b in heavy):
            minimal.append(a)
    return sorted(minimal)


def test_weight():
    assert weight((2, 1), (3, 2)) == 8
    assert weight((0, 0), (3, 2)) == 0


def test_below_weight_listing_and_order():
    assert below_weight_exponents(3, (1, 1)) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert below_weight_exponents(4, (3, 2)) == [(0, 0), (0, 1), (1, 0)]
    # zero twists stay pinned at zero
    assert below_weight_exponents(14, (3, 0)) == [
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    assert below_weight_exponents(0, (2, 1)) == []
    with pytest.raises(ValueError):
        below_weight_exponents(-1, (2, 1))
    with pytest.raises(ValueError):
        below_weight_exponents(2, (1, 2))


def test_minimal_weight_hand_values():
    assert minimal_weight_exponents(4, (3, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert minimal_weight_exponents(7, (3, 0)) == [(3, 0)]
    assert minimal_weight_exponents(3, (1, 1)) == [
        (3, 0), (2, 1), (1, 2), (0, 3)]
    with pytest.raises(ValueError):
        minimal_weight_exponents(0, (2, 1))


@pytest.mark.parametrize("c,sigma", [
    (1, (1,)), (5, (3, 2)), (7, (3, 0)), (6, (2, 2)),
    (9, (4, 2, 1)), (4, (2, 1, 0)),
])
def test_minimal_weight_matches_brute_force(c, sigma):
    assert sorted(minimal_weight_exponents(c, sigma)) == brute_minimal(c, sigma)


def test_minimal_elements_are_incomparable():
    out = minimal_weight_exponents(11, (4, 3, 2))
    for a in out:
        assert weight(a, (4, 3, 2)) >= 11
        for b in out:
            if a != b:
                assert not all(bi <= ai for bi, ai in zip(b, a))


def test_weight_drop_monomials_splits_overshoot():
    triples = weight_drop_monomials(3, (2, 2))
    # three minimal exponents of weight 4, each split two ways, x0 power first
    assert triples == [
        (1, 0, (2, 0)), (0, 1, (2, 0)),
        (1, 0, (1, 1)), (0, 1, (1, 1)),
        (1, 0, (0, 2)), (0, 1, (0, 2)),
    ]
    for j, k, alpha in weight_drop_monomials(7, (3, 2)):
        assert j + k == weight(alpha, (3, 2)) - 7
        assert j >= 0 and k >= 0


@given(st.integers(1, 20),
       st.tuples(st.integers(0, 6), st.integers(0, 6)))
@settings(max_examples=60)
def test_below_and_minimal_partition_low_weights(c, raw):
    sigma = tuple(sorted(raw, reverse=True))
    if sigma[0] == 0:
        sigma = (1, sigma[1])
    below = below_weight_exponents(c, sigma)
    assert all(weight(a, sigma) < c for a in below)
    assert len(set(below)) == len(below)
    minimal = minimal_weight_exponents(c, sigma)
    # nothing minimal is below the cutoff, and no overlap
    assert not set(below) & set(minimal)
    # every minimal element drops below the cutoff after any unit decrement
    r = sum(1 for v in sigma if v > 0)
    for a in minimal:
        for i in range(r):
            if a[i]:
                down = tuple(v - (1 if t == i else 0) for t, v in enumerate(a))
                assert weight(down, sigma) < c


@given(st.integers(0, 14),
       st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_exponent_families_match_a_brute_force(c, raw):
    sigma = tuple(sorted(raw, reverse=True))
    # every positive coordinate stays at most c in both families
    box = [range(c + 1) if v else range(1) for v in sigma]
    below, minimal = [], []
    for a in product(*box):
        w = weight(a, sigma)
        if w < c:
            below.append(a)
        elif all(w - v < c for a_i, v in zip(a, sigma) if a_i):
            minimal.append(a)
    order = lambda a: (weight(a, sigma), tuple(-a_i for a_i in a))  # noqa: E731
    assert below_weight_exponents(c, sigma) == sorted(below, key=order)
    if c:
        assert minimal_weight_exponents(c, sigma) == sorted(minimal, key=order)


# -- bidegree tables ----------------------------------------------------------

def marks_dict(table):
    return {(x, t): c for x, t, c in table.marks()}


def test_table_single_positive_twist():
    tb = bidegree_table((3, 16), (3, 0))
    assert marks_dict(tb) == {
        (3, 1): 1, (16, 1): 1, (13, 2): 1, (10, 3): 1, (7, 4): 1, (4, 5): 1}
    assert tb.x_separator == 2


def test_table_distinct_positive_twists():
    tb = bidegree_table((5, 16), (3, 2))
    expected = {(5, 1): 1, (16, 1): 1}
    for x in (13, 14):
        expected[(x, 2)] = 1
    for x in (10, 11, 12):
        expected[(x, 3)] = 1
    for x in (7, 8, 9, 10):
        expected[(x, 4)] = 1
    for x in (5, 6, 7, 8):
        expected[(x, 5)] = 1
    for x in (5, 6):
        expected[(x, 6)] = 1
    assert marks_dict(tb) == expected
    assert tb.x_separator == 4


def test_table_equal_twists():
    tb = bidegree_table((4, 16), (2, 2))
    expected = {(4, 1): 1}
    for j in range(7):
        expected[(16 - 2 * j, j + 1)] = expected.get((16 - 2 * j, j + 1), 0) + (j + 1)
    assert marks_dict(tb) == expected
    assert tb.x_separator == 3


def test_table_render_golden():
    golden = "\n".join([
        "t= 5  .  .  . |  .  1  .  .  .  .  .  .  .  .  .  .  .  .",
        "t= 4  .  .  . |  .  .  .  .  1  .  .  .  .  .  .  .  .  .",
        "t= 3  .  .  . |  .  .  .  .  .  .  .  1  .  .  .  .  .  .",
        "t= 2  .  .  . |  .  .  .  .  .  .  .  .  .  .  1  .  .  .",
        "t= 1  .  .  . |  1  .  .  .  .  .  .  .  .  .  .  .  .  1",
        "x:    0  1  2 |  3  4  5  6  7  8  9 10 11 12 13 14 15 16",
    ])
    assert bidegree_table((3, 16), (3, 0)).render() == golden


def test_table_counts_equal_degree_columns():
    # two surviving columns of the same degree both mark (d, 1)
    tb = bidegree_table((2, 2, 5), (1, 1))
    assert marks_dict(tb)[(2, 1)] == 2


def test_table_validation():
    with pytest.raises(ValueError, match="two twists"):
        bidegree_table((2, 3), (1, 1, 0))
    with pytest.raises(ValueError):
        bidegree_table((2,), (1, 1))


def test_empty_table_renders():
    assert BidegreeTable(counts={}, x_separator=1).render() == "(empty)"
    assert BidegreeTable(counts={}, x_separator=1).marks() == []
