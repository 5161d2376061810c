"""The lines of `rees check`, each a function of one instance's `Context`
returning `(label, ok, note)`.  A line stops at its first failure, and its
note names it: the level m, and the index, alpha or bidegree where the line
has one.  `rees oracle --what membership` reads the same context, and takes
its verdicts from `normal_forms`, as the oracle line does.
"""
from __future__ import annotations

from functools import cached_property

from . import generators, gradedlin, oracle, tower

RESIDUE_CHARS = 80   # a failing note shows this much of a residue


class Context:
    """One instance and its check lines' inputs, each built once, when first
    asked for: the levels, the records of the levels below the top, their
    highest T-degree and the oracle basis capped there."""

    def __init__(self, inp: tower.PresentationInput):
        self.inp, self.levels = inp, {}

    def level(self, m: int) -> tower.TowerLevel:
        if m not in self.levels:
            self.levels[m] = tower.build_level(self.inp, m)
        return self.levels[m]

    @cached_property
    def records(self) -> list:
        """(m, record) for every record of the levels 1..n-2."""
        return [(m, rec) for m in range(1, self.inp.n - 1) for rec in
                generators.tower_generators(self.inp, m, level=self.level(m))]

    @cached_property
    def cap(self) -> int:
        return max((rec.bidegree[1] for _, rec in self.records), default=0)

    @cached_property
    def basis(self):
        return oracle.saturated_ideal(self.inp, t_max=self.cap)


def name(rec, m=None, listing=False) -> str:
    """A record as notes name it, `m=1 alpha=(1, 0) bidegree (2,3)`, or as
    listings do, `m=1 (2,3) [recursion] alpha=(1, 0)`; no `m=` if m is None."""
    level = "" if m is None else f"m={m}"
    alpha = "" if rec.alpha is None else f" alpha={tuple(rec.alpha)}"
    bideg = f"({rec.bidegree[0]},{rec.bidegree[1]})"
    if listing:
        return f"{level} {bideg} [{rec.provenance}]{alpha}".lstrip()
    return f"{level}{alpha} bidegree {bideg}"


def residue(poly) -> str:
    text = str(poly)
    return text if len(text) <= RESIDUE_CHARS else text[:RESIDUE_CHARS] + "..."


def normal_forms(ctx: Context):
    """(m, record, normal form) for each record, against the capped basis."""
    return ((m, rec, oracle.normal_form(rec.poly, ctx.basis))
            for m, rec in ctx.records)


def twist_bookkeeping(ctx: Context) -> tuple:
    label = "twist bookkeeping (sum and count)"
    n, d = ctx.inp.n, ctx.inp.col_degrees
    for m in range(1, n):
        sigma = ctx.level(m).sigma.sigma
        if sum(sigma) != sum(d[:m]) or len(sigma) != n - m:
            return label, False, (f"m={m}: sigma {list(sigma)}, want {n - m} "
                                  f"twists summing to {sum(d[:m])}")
    return label, True, ""


def scalars_reach_every_form(ctx: Context) -> tuple:
    label = "multiplication scalars reach every form (surjectivity degree)"
    base = ctx.inp.base
    for m in range(1, ctx.inp.n):
        level = ctx.level(m)
        for i, si in enumerate(level.sigma.sigma):
            deg = ctx.inp.col_degrees[m - 1] - 1 + si
            span = generators.u_span_dim(level.mult_scalars[i], base, deg, 0)
            want = gradedlin.piece_dim(base, deg)
            if span != want:
                return label, False, (f"m={m} i={i}: the scalars span {span} "
                                      f"of the {want} forms of degree {deg}")
    return label, True, ""


def substitution_certificates(ctx: Context) -> tuple:
    label = "substitution certificates"
    for m, rec in ctx.records:
        if not rec.certificate_ok:
            return label, False, (f"first failing record: {name(rec, m)} "
                                  f"({rec.certificate})")
    return label, True, ""


def truncation_window(ctx: Context) -> tuple:
    label = "truncation equality window"
    for m in range(1, ctx.inp.n):
        lo = max(ctx.inp.col_degrees[m - 1] - 1, 0)
        for i, j, got, want in tower.check_truncation_equality(
                ctx.level(m), range(lo, lo + 2), 2):
            if got != want:
                return label, False, (f"m={m} bidegree ({i},{j}): the image "
                                      f"spans {got} of {want} dimensions")
    return label, True, ""


def hull_quotient_values(ctx: Context) -> tuple:
    label = "hull quotient Hilbert values"
    d1 = ctx.inp.col_degrees[0]
    H = tower.hull_quotient_hilbert(ctx.level(1))
    for i in range(-1, d1):
        if H(i) != d1 - i - 1:
            return label, False, f"m=1 i={i}: H = {H(i)}, want {d1 - i - 1}"
    return label, True, ""


def linear_forms_fill(ctx: Context) -> tuple:
    label = "linear forms fill the (-1,2) piece"
    level, want = ctx.level(1), 3 * ctx.inp.col_degrees[0]
    dim = gradedlin.piece_dim(level.scroll, -1, 2)
    span = generators.u_span_dim(level.subst.images, level.scroll, -1, 2)
    if (dim, span) != (want, want):
        return label, False, (f"m=1 bidegree (-1,2): the piece has {dim} "
                              f"dimensions, the forms span {span}, want {want}")
    return label, True, ""


def free_hull_hilbert(ctx: Context) -> tuple:
    label = "free hull Hilbert function"
    scroll, d1 = ctx.level(1).scroll, ctx.inp.col_degrees[0]
    for i in range(-1, d1):
        for j in range(5):
            want = (i + 1) * (j + 1) + d1 * (j * (j + 1) // 2)
            got = gradedlin.piece_dim(scroll, i, j)
            if got != want:
                return label, False, (f"m=1 bidegree ({i},{j}): dimension "
                                      f"{got}, want {want}")
    return label, True, ""


def oracle_normal_forms(ctx: Context) -> tuple:
    label = "oracle normal forms of all records"
    note = f"T-degree cap {ctx.cap}, {len(ctx.basis.generators)} basis elements"
    for m, rec, nf in normal_forms(ctx):
        if not nf.is_zero():
            return label, False, (f"{note}; first failing record: "
                                  f"{name(rec, m)}, residue {residue(nf)}")
    return label, True, note


def evaluation_of_records(ctx: Context) -> tuple:
    label = "evaluation membership of all records"
    verdicts = tower.evaluation_membership(
        ctx.inp, [rec.poly for _, rec in ctx.records])
    for (m, rec), ok in zip(ctx.records, verdicts):
        if not ok:
            return label, False, f"first failing record: {name(rec, m)}"
    return label, True, ""
