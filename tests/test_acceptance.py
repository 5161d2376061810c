"""End-to-end acceptance gate: seven checks, one printed verdict line each.

Each test prints a single "ACCEPTANCE <k>: PASS" line once all of its
assertions (including the wall-clock budget) hold, so a quick scan of the
output with `pytest tests/test_acceptance.py -s` shows the verdicts.
"""
import random
import time

import numpy as np
import pytest

from conftest import span_dim
from rees import cli, combinat, gradedlin, oracle, tower
from rees.field import PrimeField
from rees.generators import (
    recursion_generators,
    slice_generators,
    tower_generators,
    u_span_dim,
)
from rees.tower import build_level, sym_equations

F = PrimeField(32003)


def test_1_bidegree_tables_match_the_reference_grids():
    start = time.monotonic()

    t1 = combinat.bidegree_table((3, 16), (3, 0))
    assert {(x, t): c for x, t, c in t1.marks()} == {
        (3, 1): 1, (16, 1): 1, (13, 2): 1, (10, 3): 1, (7, 4): 1, (4, 5): 1}

    t2 = combinat.bidegree_table((5, 16), (3, 2))
    expected2 = {(5, 1): 1, (16, 1): 1}
    for t, xs in ((2, (13, 14)), (3, (10, 11, 12)), (4, (7, 8, 9, 10)),
                  (5, (5, 6, 7, 8)), (6, (5, 6))):
        for x in xs:
            expected2[(x, t)] = 1
    assert {(x, t): c for x, t, c in t2.marks()} == expected2

    t3 = combinat.bidegree_table((4, 16), (2, 2))
    expected3 = {(4, 1): 1}
    for j in range(7):
        expected3[(16 - 2 * j, j + 1)] = j + 1
    assert {(x, t): c for x, t, c in t3.marks()} == expected3

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS — three bidegree grids exact "
          f"({elapsed:.2f}s)")


def test_2_final_example_minimal_counts(final_example, final_variant):
    budgets = []
    for inp, expected in (
            (final_example, {(3, 3): 3, (3, 4): 4}),
            (final_variant, {(3, 3): 3, (3, 4): 3})):
        start = time.monotonic()
        K = oracle.saturated_ideal(inp)
        table = oracle.minimal_generator_bidegrees(K, ((3, 3), (1, 8)))
        assert {(x, t): c for x, t, c in table.marks()} == expected
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        budgets.append(elapsed)
    print(f"\nACCEPTANCE 2: PASS — x-degree-3 counts 3+4 and 3+3 "
          f"({budgets[0]:.2f}s, {budgets[1]:.2f}s)")


def test_3_substitution_certificates_on_random_shapes():
    shapes = []
    for seed in range(20):
        rng = random.Random(1000 + seed)
        d1 = rng.randint(1, 3)
        shapes.append((3, (d1, rng.randint(d1, 6)), seed))
    for seed in range(20):
        rng = random.Random(2000 + seed)
        d1 = rng.randint(1, 2)
        d2 = rng.randint(d1, 2)
        shapes.append((4, (d1, d2, rng.randint(d2, 4)), seed))

    checked = 0
    for n, degrees, seed in shapes:
        start = time.monotonic()
        inp = cli.random_instance(n, degrees, seed, F)
        for m in range(1, n - 1):
            level = build_level(inp, m)
            g_next = sym_equations(inp)[m]
            base = level.subst_raw(g_next)
            sigma = level.sigma.sigma
            d_next = degrees[m]
            for rec in recursion_generators(level, g_next):
                assert rec.certificate_ok
                assert level.subst_raw(rec.poly) == base * level.w_monomial(rec.alpha)
                wt = sum(a * s for a, s in zip(rec.alpha, sigma))
                assert rec.bidegree == (d_next - wt, sum(rec.alpha) + 1)
                checked += 1
        assert time.monotonic() - start < 5.0
    print(f"\nACCEPTANCE 3: PASS — {checked} certified recursion records "
          f"over {len(shapes)} random instances")


def test_4_oracle_equivalence_on_random_instances():
    for seed in range(10):
        rng = random.Random(3000 + seed)
        d1 = rng.randint(1, 3)
        d2 = rng.randint(d1, 5)
        start = time.monotonic()
        inp = cli.random_instance(3, (d1, d2), seed, F)
        K = oracle.saturated_ideal(inp)
        S = inp.sring
        dims = oracle.bigraded_hilbert(K, ((d1 - 1, d2), (1, d2)))
        emitted = list(tower_generators(inp, 1))
        for i in range(d1 - 1, d2 + 1):
            records = slice_generators(inp, i)
            emitted.extend(records)
            polys = [rec.poly for rec in records]
            for j in range(1, d2 + 1):
                assert u_span_dim(polys, S, i, j) == dims[(i, j)], \
                    (seed, (d1, d2), i, j)
        for rec in emitted:
            assert oracle.normal_form(rec.poly, K).is_zero(), \
                (seed, rec.provenance, rec.bidegree)
        assert time.monotonic() - start < 10.0
    print("\nACCEPTANCE 4: PASS — normal forms zero and slice spans equal "
          "oracle dimensions on 10 random instances")


@pytest.mark.parametrize("name", [
    "quadric_cubic", "table1", "table2", "table3",
    "final_example", "final_variant", "almost_linear",
])
def test_5_structural_identities(request, name):
    inp = request.getfixturevalue(name)
    start = time.monotonic()
    n, d = inp.n, inp.col_degrees

    for m in range(1, n):
        inv = tower.hull_embedding(inp, m)[0]
        assert sum(inv.sigma) == sum(d[:m])
        assert inv.s == n - m

    for m in range(1, n):
        level = build_level(inp, m)
        for i, si in enumerate(level.sigma.sigma):
            deg = d[m - 1] - 1 + si
            mult = []
            for pj in level.mult_scalars[i]:
                if pj.is_zero():
                    continue
                shift = deg - pj.xdeg()
                if shift < 0:
                    continue
                for mono in gradedlin.piece_basis(inp.base, shift):
                    mult.append(mono * pj)
            assert (span_dim(mult, inp.base, deg)
                    == gradedlin.piece_dim(inp.base, deg)), (m, i)

    if n == 3:
        level = build_level(inp, 1)
        d1 = d[0]
        H = tower.hull_quotient_hilbert(level)
        assert all(H(i) == d1 - i - 1 for i in range(-1, d1))
        scroll = level.scroll
        assert gradedlin.piece_dim(scroll, -1, 2) == 3 * d1
        S = inp.sring
        products = [level.subst(S.var(f"T{k + 1}")) * nu
                    for k in range(n)
                    for nu in gradedlin.piece_basis(scroll, -1, 1)]
        assert span_dim(products, scroll, -1, 2) == 3 * d1
        for i in range(-1, d1):
            for j in range(5):
                assert (gradedlin.piece_dim(scroll, i, j)
                        == (i + 1) * (j + 1) + d1 * (j * (j + 1) // 2))

    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    print(f"\nACCEPTANCE 5 [{name}]: PASS — twist sums, multiplication "
          f"surjectivity, quotient and hull Hilbert data ({elapsed:.2f}s)")


def test_6_combinatorics_against_brute_force():
    start = time.monotonic()
    sigmas = []
    for s1 in range(1, 7):
        sigmas.append((s1,))
        for s2 in range(0, s1 + 1):
            sigmas.append((s1, s2))
            for s3 in range(0, s2 + 1):
                sigmas.append((s1, s2, s3))

    def brute_minimal(c, sigma):
        # box enumeration; minimal = heavy and every unit decrement is light
        r = sum(1 for v in sigma if v > 0)
        axes = [np.arange((c + sigma[i] - 1) // sigma[i] + 2) if i < r
                else np.arange(1) for i in range(len(sigma))]
        grids = np.meshgrid(*axes, indexing="ij")
        E = np.stack([g.ravel() for g in grids], axis=1)
        w = E @ np.array(sigma)
        mask = w >= c
        for i in range(r):
            mask &= (E[:, i] == 0) | (w - sigma[i] < c)
        return sorted(map(tuple, E[mask].tolist()))

    cases = 0
    for sigma in sigmas:
        for c in range(1, 31):
            got = sorted(combinat.minimal_weight_exponents(c, sigma))
            assert got == brute_minimal(c, sigma), (sigma, c)
            cases += 1

    def pairwise_clean(E):
        # no row componentwise <= a different row
        if len(E) < 2:
            return True
        for lo in range(0, len(E), 512):
            block = (E[None, :, :] >= E[lo:lo + 512, None, :]).all(axis=2)
            if int(block.sum()) != block.shape[0]:
                return False
        return True

    for sigma in sigmas:
        svec = np.array(sigma)
        for c in range(1, 31):
            A = np.array(combinat.below_weight_exponents(c, sigma),
                         dtype=np.int64)
            B = combinat.weight_drop_monomials(c, sigma)
            Brows = np.array([(j, k) + a for j, k, a in B],
                             dtype=np.int64).reshape(len(B), 2 + len(sigma))
            # a divisor needs <= exponents and <= twisted x-degree; the
            # exponent condition forces weight(divisor) <= weight(dividend)
            # while the degree condition forces the reverse, so only
            # equal-x-degree pairs can offend: same-weight pairs inside the
            # first family, all pairs inside the second, and x-free rows of
            # the second family against the first
            ok = True
            weights = A @ svec
            for w in np.unique(weights):
                ok = ok and pairwise_clean(A[weights == w])
            ok = ok and pairwise_clean(Brows)
            B0 = Brows[(Brows[:, 0] == 0) & (Brows[:, 1] == 0)][:, 2:]
            if len(B0) and len(A):
                for lo in range(0, len(B0), 512):
                    cross = (A[None, :, :] >= B0[lo:lo + 512, None, :]).all(axis=2)
                    ok = ok and not bool(cross.any())
            assert ok, (sigma, c)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 6: PASS — minimal exponents match brute force on "
          f"{cases} cases and generator monomials are division-free "
          f"({elapsed:.2f}s)")


def test_7_path_independent_recursion():
    found = 0
    seed = 0
    while found < 10 and seed < 200:
        rng = random.Random(4000 + seed)
        d1 = rng.randint(2, 3)
        d2 = 2 * d1 + rng.randint(0, 1)
        inp = cli.random_instance(3, (d1, d2), seed, F)
        level = build_level(inp, 1)
        seed += 1
        if level.sigma.r != 2:
            continue
        alphas = combinat.below_weight_exponents(
            d2 - d1 + 1, level.sigma.sigma)
        if not any(sum(1 for v in a if v) == 2 for a in alphas):
            continue
        start = time.monotonic()
        g2 = sym_equations(inp)[1]
        small = recursion_generators(level, g2, pivot_rule="smallest")
        large = recursion_generators(level, g2, pivot_rule="largest")
        assert [r.alpha for r in small] == [r.alpha for r in large]
        for a, b in zip(small, large):
            assert a.certificate_ok and b.certificate_ok
            assert level.subst_raw(a.poly) == level.subst_raw(b.poly), \
                (seed, a.alpha)
        assert time.monotonic() - start < 5.0
        found += 1
    assert found == 10
    print(f"\nACCEPTANCE 7: PASS — pivot choice never changes the hull image "
          f"(10 instances from {seed} seeds)")
