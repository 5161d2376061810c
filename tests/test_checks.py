"""The `rees check` lines, each called alone on one instance's context.

Every line gets a planted fault that it must catch, and its note must name
the failure: the level, and the index, alpha or bidegree where the line has
one.  The faults change one input of a line: a twist, a row of
multiplication scalars, a certificate flag, a hull image, a Hilbert value,
the hull ring's twists or one coefficient of one record.
"""
import dataclasses

import pytest

from conftest import fixture_path
from rees import checks, cli, oracle, tower
from rees.ring import RingMap, ring_scroll
from rees.syzygy import SigmaInvariants

N3_LINES = (checks.hull_quotient_values, checks.linear_forms_fill,
            checks.free_hull_hilbert)
LINES = (checks.twist_bookkeeping, checks.scalars_reach_every_form,
         checks.substitution_certificates, checks.truncation_window,
         *N3_LINES, checks.oracle_normal_forms, checks.evaluation_of_records)


def context(name="quadric_cubic"):
    return checks.Context(cli.load_instance(fixture_path(f"{name}.json")))


def plant(ctx, m, **changes):
    """Replace fields of the context's level m."""
    ctx.levels[m] = dataclasses.replace(ctx.level(m), **changes)


def failing_note(line, ctx):
    label, ok, note = line(ctx)
    assert ok is False, f"{label} missed its planted fault"
    return note


def last_with_alpha(ctx):
    """The context's last record that has an alpha, and its index."""
    k = max(k for k, (_, rec) in enumerate(ctx.records)
            if rec.alpha is not None)
    return k, ctx.records[k]


def with_record(ctx, k, rec):
    """Replace the context's k-th record, keeping its level."""
    m = ctx.records[k][0]
    ctx.records = ctx.records[:k] + [(m, rec)] + ctx.records[k + 1:]


def record_name(m, rec):
    a, b = rec.bidegree
    return f"m={m} alpha={tuple(rec.alpha)} bidegree ({a},{b})"


@pytest.mark.parametrize("name", ["quadric_cubic", "almost_linear"])
def test_each_line_alone_reads_as_in_the_full_check(name):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    lines = LINES if inp.n == 3 else tuple(l for l in LINES
                                           if l not in N3_LINES)
    alone = [line(checks.Context(inp)) for line in lines]
    assert alone == cli._check_one(inp)
    assert all(ok for _, ok, _ in alone)


@pytest.mark.parametrize("name", ["quadric_cubic", "almost_linear"])
def test_one_check_builds_each_level_and_the_basis_once(name, monkeypatch):
    inp = cli.load_instance(fixture_path(f"{name}.json"))
    built, capped = [], []
    real_level, real_basis = tower.build_level, oracle.saturated_ideal
    monkeypatch.setattr(tower, "build_level",
                        lambda inp, m: built.append(m) or real_level(inp, m))
    monkeypatch.setattr(oracle, "saturated_ideal",
                        lambda inp, **kw: capped.append(kw) or real_basis(
                            inp, **kw))
    cli._check_one(inp)
    assert built == list(range(1, inp.n))
    assert len(capped) == 1


def test_membership_builds_no_top_level(capsys, monkeypatch):
    built = []
    real = tower.build_level
    monkeypatch.setattr(tower, "build_level",
                        lambda inp, m: built.append(m) or real(inp, m))
    code = cli.main(["oracle", fixture_path("almost_linear.json"), "--what",
                     "membership", "--max-x", "0", "--max-t", "0"])
    capsys.readouterr()
    assert code == 0 and built == [1, 2]


def test_twist_bookkeeping_names_the_level():
    ctx = context("almost_linear")
    sigma = ctx.level(2).sigma.sigma
    plant(ctx, 2, sigma=SigmaInvariants((sigma[0] + 1,) + sigma[1:]))
    note = failing_note(checks.twist_bookkeeping, ctx)
    assert note == "m=2: sigma [2, 1], want 2 twists summing to 2"


def test_scalars_line_names_the_level_and_row():
    ctx = context("almost_linear")
    level = ctx.level(2)
    zero = tuple(ctx.inp.base.zero() for _ in level.mult_scalars[0])
    plant(ctx, 2, mult_scalars=(zero,) + level.mult_scalars[1:])
    note = failing_note(checks.scalars_reach_every_form, ctx)
    assert note == "m=2 i=0: the scalars span 0 of the 2 forms of degree 1"


def test_certificate_line_names_the_record():
    ctx = context()
    k, (m, rec) = last_with_alpha(ctx)
    with_record(ctx, k, dataclasses.replace(rec, certificate_ok=False))
    note = failing_note(checks.substitution_certificates, ctx)
    assert note.startswith(f"first failing record: {record_name(m, rec)} (")


def zero_first_image(ctx):
    """Level 1's hull substitution with the image of T1 set to zero."""
    subst = ctx.level(1).subst
    images = (subst.target.zero(),) + subst.images[1:]
    plant(ctx, 1, subst=RingMap(images, subst.target))


def test_truncation_line_names_the_bidegree():
    ctx = context()
    zero_first_image(ctx)
    note = failing_note(checks.truncation_window, ctx)
    assert note == "m=1 bidegree (1,1): the image spans 4 of 6 dimensions"


def test_hull_quotient_line_names_the_x_degree(monkeypatch):
    real = tower.hull_quotient_hilbert

    def shifted(level):
        H = real(level)
        return lambda i: H(i) + (i == 0)

    monkeypatch.setattr(tower, "hull_quotient_hilbert", shifted)
    note = failing_note(checks.hull_quotient_values, context())
    assert note == "m=1 i=0: H = 2, want 1"


def test_linear_forms_line_names_the_bidegree():
    ctx = context()
    zero_first_image(ctx)
    note = failing_note(checks.linear_forms_fill, ctx)
    assert note == ("m=1 bidegree (-1,2): the piece has 6 dimensions, "
                    "the forms span 4, want 6")


def test_free_hull_line_names_the_bidegree():
    ctx = context()
    sigma = ctx.level(1).sigma.sigma
    plant(ctx, 1, scroll=ring_scroll(ctx.inp.field,
                                     (sigma[0] + 1,) + sigma[1:]))
    note = failing_note(checks.free_hull_hilbert, ctx)
    assert note == "m=1 bidegree (-1,1): dimension 3, want 2"


def changed_coefficient(ctx):
    """Add one of its own monomials to the last record with an alpha."""
    k, (m, rec) = last_with_alpha(ctx)
    mono = next(iter(rec.poly.terms))
    poly = rec.poly + rec.poly.ring.monomial(mono)
    with_record(ctx, k, dataclasses.replace(rec, poly=poly))
    return m, rec


def test_oracle_line_names_the_record_and_its_residue():
    ctx = context()
    m, rec = changed_coefficient(ctx)
    note = failing_note(checks.oracle_normal_forms, ctx)
    assert note.startswith(f"T-degree cap {ctx.cap}, ")
    assert f"; first failing record: {record_name(m, rec)}, residue " in note


def test_evaluation_line_names_the_record():
    ctx = context()
    m, rec = changed_coefficient(ctx)
    note = failing_note(checks.evaluation_of_records, ctx)
    assert note == f"first failing record: {record_name(m, rec)}"


def test_a_long_residue_is_cut():
    R = cli.load_instance(fixture_path("quadric_cubic.json")).base
    long = sum((R.monomial((k, 20 - k)) for k in range(21)), R.zero())
    text = checks.residue(long)
    assert len(text) == checks.RESIDUE_CHARS + 3 and text.endswith("...")
    assert str(long).startswith(text[:-3])
