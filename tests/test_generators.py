import dataclasses
import json

import pytest

from conftest import fixture_path
from rees import generators, gradedlin, ring
from rees.cli import load_instance
from rees.field import RationalField
from rees.gradedlin import piece_basis, piece_dim
from rees.generators import (
    almost_linear_generators,
    recursion_generators,
    slice_basis,
    slice_generators,
    tower_generators,
    trim_slice,
    u_span_dim,
)
from rees.ring import Poly, RingMap, bidegree, parse_poly
from rees.tower import (build_level, check_truncation_equality,
                        evaluation_membership, sym_equations)


# -- the recursion ------------------------------------------------------------

def test_recursion_on_quadric_cubic(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    g2 = sym_equations(quadric_cubic)[1]
    records = recursion_generators(level, g2)
    S = quadric_cubic.sring
    assert [rec.alpha for rec in records] == [(0, 0), (1, 0), (0, 1)]
    assert records[0].poly == g2
    assert records[0].bidegree == (3, 1)
    assert records[1].poly == parse_poly(
        "-x1^2*T1^2 + x0^2*T2*T3 + x0*x1*T3^2", S)
    assert records[2].poly == parse_poly(
        "-x0*x1*T1^2 - x1^2*T1*T2 + x0^2*T3^2", S)
    for rec in records:
        assert rec.certificate_ok
        assert rec.provenance == "recursion"
        assert bidegree(rec.poly) == rec.bidegree
    # the certified hull identity, checked by hand for the first step
    w1 = level.scroll.monomial((0, 0, 1, 0))
    assert level.subst_raw(records[1].poly) == level.subst_raw(g2) * w1


def test_recursion_bidegree_formula(final_example):
    level = build_level(final_example, 1)
    g2 = sym_equations(final_example)[1]
    records = recursion_generators(level, g2)
    d2 = final_example.col_degrees[1]
    sigma = level.sigma.sigma
    for rec in records:
        wt = sum(a * s for a, s in zip(rec.alpha, sigma))
        assert rec.bidegree == (d2 - wt, sum(rec.alpha) + 1)
        assert rec.certificate_ok


def test_recursion_emits_whole_index_set(table1):
    level = build_level(table1, 1)
    g2 = sym_equations(table1)[1]
    records = recursion_generators(level, g2)
    assert [rec.bidegree for rec in records] == [
        (16, 1), (13, 2), (10, 3), (7, 4), (4, 5)]
    assert all(rec.certificate_ok for rec in records)


def test_recursion_pivot_rules_give_same_hull_image(table3):
    level = build_level(table3, 1)
    g2 = sym_equations(table3)[1]
    small = recursion_generators(level, g2, pivot_rule="smallest")
    large = recursion_generators(level, g2, pivot_rule="largest")
    assert [r.alpha for r in small] == [r.alpha for r in large]
    for a, b in zip(small, large):
        assert a.certificate_ok and b.certificate_ok
        assert level.subst_raw(a.poly) == level.subst_raw(b.poly)
    # some exponent actually exercises both pivot choices
    assert any(sum(1 for v in r.alpha if v) == 2 for r in small)


def test_recursion_validation(quadric_cubic):
    level = build_level(quadric_cubic, 1)
    g1, g2 = sym_equations(quadric_cubic)
    with pytest.raises(ValueError, match="driving equation"):
        recursion_generators(level, g1)
    with pytest.raises(ValueError, match="pivot_rule"):
        recursion_generators(level, g2, pivot_rule="middle")


def test_tower_generators_levels(quadric_cubic, almost_linear):
    records = tower_generators(quadric_cubic, 1)
    assert [rec.provenance for rec in records] == [
        "sym-equation", "recursion", "recursion", "recursion"]
    assert records[0].poly == sym_equations(quadric_cubic)[0]
    assert all(rec.certificate_ok for rec in records)
    assert all(evaluation_membership(quadric_cubic,
                                     [rec.poly for rec in records]))
    with pytest.raises(ValueError):
        tower_generators(quadric_cubic, 2)
    # four-row instance has two levels with their own column counts
    lvl1 = tower_generators(almost_linear, 1)
    lvl2 = tower_generators(almost_linear, 2)
    assert sum(1 for r in lvl1 if r.provenance == "sym-equation") == 1
    assert sum(1 for r in lvl2 if r.provenance == "sym-equation") == 2
    assert all(rec.certificate_ok for rec in lvl1 + lvl2)
    assert all(evaluation_membership(almost_linear,
                                     [rec.poly for rec in lvl1 + lvl2]))


# -- slice machinery ----------------------------------------------------------

def test_slice_basis_dimensions(table2, almost_linear):
    level = build_level(table2, 1)
    basis = slice_basis(level)
    d1 = table2.col_degrees[0]
    assert len(basis) == d1 - 1
    for l, monos in enumerate(basis):
        assert len(monos) == d1 - l - 1
        for nu in monos:
            assert bidegree(nu) == (l, 1)
    with pytest.raises(ValueError, match="n = 3"):
        slice_basis(build_level(almost_linear, 1))


def test_slice_generators_at_low_degree(quadric_cubic):
    records = slice_generators(quadric_cubic, 1)
    parts = [rec.detail.get("part") for rec in records]
    assert parts.count("weight-drop") == 3
    assert parts.count("hull-basis") == 3
    assert len(records) == 6
    for rec in records:
        assert rec.certificate_ok
        assert rec.bidegree[0] == 1
    assert all(evaluation_membership(quadric_cubic,
                                     [rec.poly for rec in records]))


def test_slice_generators_past_second_degree(quadric_cubic):
    # at x-degree d_2 the supply switches to equation multiples and lifts
    records = slice_generators(quadric_cubic, 3)
    parts = [rec.detail.get("part") for rec in records]
    assert parts.count("first-equation-multiple") == 2
    assert parts.count("second-equation-multiple") == 1
    assert parts.count("hull-piece") == 4
    for rec in records:
        assert rec.certificate_ok


def test_slice_generators_validation(quadric_cubic, almost_linear):
    with pytest.raises(ValueError, match="n = 3"):
        slice_generators(almost_linear, 2)
    with pytest.raises(ValueError, match="x-degree"):
        slice_generators(quadric_cubic, 0)


def test_u_span_dim_counts_T_multiples(quadric_cubic):
    S = quadric_cubic.sring
    g1 = sym_equations(quadric_cubic)[0]
    # T-multiples of a single (2,1) form: 3 of them at T-degree 2, independent
    assert u_span_dim([g1], S, 2, 2) == 3
    assert u_span_dim([g1], S, 2, 1) == 1
    assert u_span_dim([], S, 2, 1) == 0


def test_trim_slice_keeps_the_span(quadric_cubic):
    records = slice_generators(quadric_cubic, 2)
    trimmed = trim_slice(records, 2)
    assert set(id(r) for r in trimmed) <= set(id(r) for r in records)
    S = quadric_cubic.sring
    before = [rec.poly for rec in records]
    after = [rec.poly for rec in trimmed]
    for j in range(1, 6):
        assert (u_span_dim(before, S, 2, j) == u_span_dim(after, S, 2, j))
    # trimming a trimmed set changes nothing
    assert [r.poly for r in trim_slice(trimmed, 2)] == [r.poly for r in trimmed]
    assert trim_slice([], 2) == []


# -- almost-linear presentations ----------------------------------------------

def test_almost_linear_generators_inventory(almost_linear):
    records = almost_linear_generators(almost_linear)
    by_prov = {}
    for rec in records:
        by_prov.setdefault(rec.provenance, []).append(rec)
    # scroll minors: two (1,1) pullbacks and one (0,2)
    scroll_bids = sorted(rec.bidegree for rec in by_prov["scroll"])
    assert scroll_bids == [(0, 2), (1, 1), (1, 1)]
    assert [rec.bidegree for rec in by_prov["recursion"]] == [
        (2, 1), (1, 2), (1, 2)]
    assert [rec.bidegree for rec in by_prov["slice"]] == [(0, 3)] * 3
    assert all(rec.certificate_ok for rec in records)
    assert all(evaluation_membership(almost_linear,
                                     [rec.poly for rec in records]))


def test_almost_linear_covers_the_linear_equations(almost_linear):
    records = almost_linear_generators(almost_linear)
    S = almost_linear.sring
    g1, g2 = sym_equations(almost_linear)[0], sym_equations(almost_linear)[1]
    pulled = [rec.poly for rec in records if rec.bidegree == (1, 1)]
    assert u_span_dim(pulled, S, 1, 1) == u_span_dim([g1, g2], S, 1, 1) == 2


def test_almost_linear_requires_linear_columns(quadric_cubic):
    with pytest.raises(ValueError, match="equal 1"):
        almost_linear_generators(quadric_cubic)


def test_recursion_and_slices_over_the_rationals(tmp_path):
    # the rational twin of quadric_cubic runs the Fraction elimination route
    # through the recursion and through every slice regime
    with open(fixture_path("quadric_cubic.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["field"] = {"type": "rational"}
    path = tmp_path / "quadric_cubic_rational.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    inp = load_instance(str(path))
    assert isinstance(inp.field, RationalField)
    level = build_level(inp, 1)
    records = recursion_generators(level, sym_equations(inp)[1])
    d1, d2 = inp.col_degrees
    for i in range(d1 - 1, d2 + 2):
        records += slice_generators(inp, i, level=level)
    parts = {rec.detail.get("part") for rec in records}
    assert {"weight-drop", "hull-basis", "hull-piece"} <= parts
    assert all(rec.certificate_ok for rec in records)
    assert all(evaluation_membership(inp, [rec.poly for rec in records]))


# -- planted faults -------------------------------------------------------------

def _bump_one_coefficient(p):
    """p with the coefficient of its first term changed, bidegree kept."""
    field = p.ring.field
    m, c = next(iter(p.terms.items()))
    new = field(c + 1) or field(c + 2)
    return Poly(p.ring, {**p.terms, m: new})


class _PlantedMap(RingMap):
    """A ring map whose batches come back with one image changed."""

    __slots__ = ("at",)

    def apply_all(self, polys):
        out = super().apply_all(polys)
        if len(out) > self.at:
            out[self.at] = _bump_one_coefficient(out[self.at])
        return out


def test_a_planted_recursion_fault_fails_only_its_own_certificate(
        table2, monkeypatch):
    # the family's coordinate changes run as one batch and its certificates
    # as one `apply_all`, in several merges under the small bound; a
    # coefficient changed in one record must fail that record's certificate
    # and no other
    for merge_rows in (ring.MERGE_ROWS, 64):
        monkeypatch.setattr(ring, "MERGE_ROWS", merge_rows)
        _planted_recursion_faults(table2)


def _planted_recursion_faults(table2):
    level = build_level(table2, 1)
    g2 = sym_equations(table2)[1]
    clean = recursion_generators(level, g2)
    assert len(clean) > 3 and all(rec.certificate_ok for rec in clean)
    assert sum(stop - start for rec in clean for m in rec.poly.terms
               for start, stop in [level.subst_raw.memo[m[2:]]]) > 64
    for at in (1, len(clean) - 1):
        planted = _PlantedMap(level.to_original_coords.images,
                              level.to_original_coords.target)
        planted.at = at
        records = recursion_generators(
            dataclasses.replace(level, to_original_coords=planted), g2)
        assert [rec.bidegree for rec in records] == \
            [rec.bidegree for rec in clean]
        assert [rec.certificate_ok for rec in records] == \
            [k != at for k in range(len(clean))]


@pytest.mark.parametrize("family", ["sym-equation", "first-equation-multiple",
                                    "scroll"])
def test_a_planted_vanishing_fault_fails_only_its_own_certificate(
        family, almost_linear, table1, monkeypatch):
    # one coefficient changed in one record of a family whose hull image
    # must vanish fails that record's certificate and no other
    make = {"sym-equation": lambda: tower_generators(almost_linear, 2),
            "first-equation-multiple": lambda: slice_generators(table1, 5),
            "scroll": lambda: almost_linear_generators(almost_linear)}[family]
    clean = make()
    members = [k for k, rec in enumerate(clean)
               if rec.certificate == "hull image vanishes"]
    assert len(members) > 1 and all(rec.certificate_ok for rec in clean)
    assert {clean[k].provenance for k in members} <= {family, "slice"}
    assert all(clean[k].detail.get("part", family) == family for k in members)
    real = generators._hull_image_records
    for at in (0, len(members) - 1):
        def planted(level, polys, expected, keys, provenance, certificate):
            polys = list(polys)
            if certificate == "hull image vanishes":
                polys[at] = _bump_one_coefficient(polys[at])
            return real(level, polys, expected, keys, provenance, certificate)

        monkeypatch.setattr(generators, "_hull_image_records", planted)
        records = make()
        monkeypatch.setattr(generators, "_hull_image_records", real)
        assert [rec.certificate_ok for rec in records] == \
            [k != members[at] for k in range(len(clean))]


def test_a_planted_slice_preimage_fault_fails_the_preimage_check(
        table1, monkeypatch):
    # every preimage of a slice is imaged in one batch; a coefficient changed
    # in one of them must still fail the check
    level = build_level(table1, 1)
    basis = slice_basis(level)
    d1 = table1.col_degrees[0]
    records = slice_generators(table1, d1, level=level, basis=basis)
    preimages = [rec for rec in records if rec.detail.get("part")
                 in ("weight-drop", "hull-basis", "hull-piece")]
    assert len(preimages) > 2
    real = gradedlin.from_coordinates
    for at in (0, len(preimages) - 1):
        calls = []

        def planted(vec, ring, xdeg, tdeg=0):
            p = real(vec, ring, xdeg, tdeg)
            calls.append(p)
            return _bump_one_coefficient(p) if len(calls) - 1 == at else p

        monkeypatch.setattr(gradedlin, "from_coordinates", planted)
        with pytest.raises(ArithmeticError, match="preimage check failed"):
            slice_generators(table1, d1, level=level, basis=basis)
        monkeypatch.setattr(gradedlin, "from_coordinates", real)


# -- work counts --------------------------------------------------------------

def test_level_maps_image_each_T_monomial_once(table2, monkeypatch):
    # a deterministic guard on the memo of the level's ring maps: every
    # T-monomial a map imaged (with the divisors its image was built from) is
    # held once, and imaging the same piece bases again multiplies nothing
    seen = {}
    real_fill = RingMap.fill

    def recording_fill(self, texps):
        texps = list(texps)
        seen.setdefault(id(self), set()).update(texps)
        return real_fill(self, texps)

    monkeypatch.setattr(RingMap, "fill", recording_fill)
    level = build_level(table2, 1)
    recursion_generators(level, sym_equations(table2)[1])
    basis = slice_basis(level)
    tdegs = {xdeg: {rec.bidegree[1] for rec in slice_generators(
        table2, xdeg, level=level, basis=basis)} for xdeg in (11, 12)}
    maps = [level.subst, level.subst_raw, level.to_original_coords,
            level.to_level_coords]
    for ring_map in maps:
        want = {(0, 0, 0)}
        for texps in seen.get(id(ring_map), ()):
            while texps not in want:
                want.add(texps)
                j = max(k for k, e in enumerate(texps) if e)
                texps = texps[:j] + (texps[j] - 1,) + texps[j + 1:]
        assert set(ring_map.memo) == want

    sizes = [len(ring_map.memo) for ring_map in maps]
    products = []
    real_mul = Poly.__mul__

    def counting_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    S = table2.sring
    for xdeg, degs in tdegs.items():
        for tdeg in degs:
            for mu in piece_basis(S, xdeg, tdeg):
                level.subst(mu)
    assert [len(ring_map.memo) for ring_map in maps] == sizes
    assert products == []

    # the truncation check reads its rows from the memo and applies no map
    calls = []
    real_apply = RingMap.apply_all

    def recording_apply(self, polys):
        calls.append(polys)
        return real_apply(self, polys)

    monkeypatch.setattr(RingMap, "apply_all", recording_apply)
    check_truncation_equality(level, range(11, 13), 2)
    assert calls == []
