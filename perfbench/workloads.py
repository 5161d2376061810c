"""The three workloads: which instances each runs, the timed operation on one
instance, and the checks of its output against `algebra`.

One operation takes one instance through every step of its workload.  `op`
is the timed part and calls only rees's public functions; `check` is untimed
and returns a list of problems (empty when the output is right).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import algebra
import inputs
from rees import cli, generators, oracle, tower

POINTS = 3                       # evaluation points per check (a)
HILBERT_WINDOW = ((0, 8), (0, 5))
SHOWCASE_WINDOW = ((3, 3), (1, 8))
# The paper's counts of minimal generators at x-degree 3: three of T-degree 3
# and four of T-degree 4, against three and three for the variant.
SHOWCASE = {"final_example": {(3, 3): 3, (3, 4): 4},
            "final_variant": {(3, 3): 3, (3, 4): 3}}
# `rees check` lists nine checks for n = 3 and six otherwise.
MIN_CHECKS = {3: 9}
DEFAULT_MIN_CHECKS = 6


@dataclass
class Spec:
    """One instance of a workload: a fixture name, or a seeded shape."""

    label: str
    fixture: str | None = None
    col_degrees: tuple = ()
    slice_window: tuple | None = None     # x-degrees (lo, hi), inclusive


@dataclass
class Instance:
    pres: inputs.Presentation
    spec: Spec
    path: str
    inp: object                            # rees PresentationInput
    points: list

    @property
    def label(self):
        return self.pres.label

    @property
    def n(self):
        return self.pres.n

    @cached_property
    def minors(self):
        return algebra.signed_minors([list(row) for row in self.pres.phi])

    @cached_property
    def dims(self):
        return algebra.ReesDims(self.minors)


def clear_rees_caches():
    """Empty every functools cache of the loaded rees modules."""
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "rees" or key.startswith("rees.")):
            continue
        for val in list(vars(mod).values()):
            clear = getattr(val, "cache_clear", None)
            if callable(clear):
                clear()


def make_instances(specs, seed, workdir):
    """Write each instance's JSON file and load it with rees.

    A seeded draw that rees rejects (minors with a common factor) is redrawn
    from the same stream, so the accepted instance depends only on the seed.
    """
    out = []
    for spec in specs:
        path = os.path.join(workdir, f"{spec.label}.json")
        rng = inputs.instance_rng(seed, spec.label)
        while True:
            if spec.fixture is not None:
                pres = replace(inputs.fixture(spec.fixture), label=spec.label)
            else:
                pres = inputs.random_presentation(
                    spec.label, len(spec.col_degrees) + 1, spec.col_degrees,
                    rng)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inputs.instance_json(pres), fh)
            try:
                inp = cli.load_instance(path)
            except ValueError:
                if spec.fixture is not None:
                    raise
                continue
            break
        prng = random.Random(f"rees-bench-points:{seed}:{spec.label}")
        points = [(prng.randrange(1, algebra.P), prng.randrange(1, algebra.P))
                  for _ in range(POINTS)]
        out.append(Instance(pres, spec, path, inp, points))
    return out


def set_up(workload, seed, workdir, small=False):
    """Write and load every instance, then run the warm-up operation."""
    clear_rees_caches()
    instances = make_instances(workload.specs(small), seed, workdir)
    warm = make_instances([workload.warm_up], seed, workdir)[0]
    workload.prepare(warm)
    workload.op(warm)
    return instances


def _vanishing_problems(inst, polys, what):
    problems = []
    for k, poly in enumerate(polys):
        bad = algebra.nonvanishing(poly, inst.minors, inst.points)
        if bad is not None:
            problems.append(f"{inst.label}: {what} #{k} is nonzero at "
                            f"(a, b) = {bad} after T -> f(a, b)")
    return problems


# -- tower-large ---------------------------------------------------------------

class TowerLarge:
    name = "tower-large"

    @staticmethod
    def specs(small=False):
        if small:
            return [Spec("quadric_cubic", fixture="quadric_cubic",
                         slice_window=(1, 3)),
                    Spec("rand4-112", col_degrees=(1, 1, 2)),
                    Spec("rand5-1112", col_degrees=(1, 1, 1, 2))]
        # table1 sits in the middle of the operation times, three instances
        # below and three above, so instance_s_p50 does not hop between
        # random instances from seed to seed
        return [Spec("table2", fixture="table2", slice_window=(11, 16)),
                Spec("table3", fixture="table3", slice_window=(11, 16)),
                Spec("table1", fixture="table1", slice_window=(2, 16)),
                Spec("final_example", fixture="final_example",
                     slice_window=(3, 7)),
                Spec("final_variant", fixture="final_variant",
                     slice_window=(3, 7)),
                Spec("rand4-2-5-12", col_degrees=(2, 5, 12)),
                Spec("rand5-1-2-5-11", col_degrees=(1, 2, 5, 11))]

    warm_up = Spec("warm-up", fixture="quadric_cubic", slice_window=(1, 3))

    @staticmethod
    def prepare(inst):
        pass

    @staticmethod
    def op(inst):
        inp = inst.inp
        gs = tower.sym_equations(inp)
        levels = {m: tower.build_level(inp, m) for m in range(1, inp.n)}
        recursion = {m: generators.recursion_generators(levels[m], gs[m])
                     for m in range(1, inp.n - 1)}
        slices = {}
        if inst.spec.slice_window is not None:
            basis = generators.slice_basis(levels[1])
            lo, hi = inst.spec.slice_window
            for i in range(lo, hi + 1):
                slices[i] = generators.slice_generators(
                    inp, i, level=levels[1], basis=basis)
        return {"recursion": recursion, "slices": slices}

    @staticmethod
    def check(inst, out):
        problems = []
        records = [r for recs in out["recursion"].values() for r in recs]
        records += [r for recs in out["slices"].values() for r in recs]
        for rec in records:
            if not rec.certificate_ok:
                problems.append(f"{inst.label}: record {rec.bidegree} "
                                f"[{rec.provenance}] has a failed certificate")
        problems += _vanishing_problems(inst, [r.poly for r in records],
                                        "record")
        # completeness: the k[T]-span of a slice's records is the whole
        # x-degree-i slice of the Rees ideal, one T-degree past the top record
        for i, recs in out["slices"].items():
            polys = [r.poly for r in recs]
            top = max(sum(next(iter(p.terms))[2:]) for p in polys if p.terms)
            for j in range(1, top + 2):
                got = algebra.span_dim_in_piece(polys, inst.n, i, j)
                want = inst.dims.dim(i, j)
                if got != want:
                    problems.append(f"{inst.label}: slice x-degree {i} spans "
                                    f"{got} dimensions at T-degree {j}, the "
                                    f"Rees ideal has {want}")
        return problems


# -- saturate ------------------------------------------------------------------

class Saturate:
    name = "saturate"

    @staticmethod
    def specs(small=False):
        if small:
            return [Spec("quadric_cubic", fixture="quadric_cubic"),
                    Spec("final_example", fixture="final_example"),
                    Spec("rand3-12", col_degrees=(1, 2)),
                    Spec("rand4-111", col_degrees=(1, 1, 1))]
        # an even number of instances, so instance_s_p50 averages the two
        # middle ones and rests on more timed work than one instance's
        return [Spec("table1", fixture="table1"),
                Spec("final_example", fixture="final_example"),
                Spec("final_variant", fixture="final_variant"),
                Spec("rand3-23", col_degrees=(2, 3)),
                Spec("rand3-24", col_degrees=(2, 4)),
                Spec("rand4-122", col_degrees=(1, 2, 2))]

    warm_up = Spec("warm-up", fixture="quadric_cubic")

    @staticmethod
    def prepare(inst):
        pass

    @staticmethod
    def op(inst):
        return Saturate.consume(inst, oracle.saturated_ideal(inst.inp))

    @staticmethod
    def consume(inst, K):
        """Everything the workload computes from a saturated basis K."""
        inp = inst.inp
        records = [r for m in range(1, inp.n - 1)
                   for r in generators.tower_generators(inp, m)]
        out = {"basis": K, "records": records,
               "normal_forms": [oracle.normal_form(r.poly, K) for r in records],
               "hilbert": oracle.bigraded_hilbert(K, HILBERT_WINDOW)}
        if inst.spec.fixture in SHOWCASE:
            out["mingens"] = oracle.minimal_generator_bidegrees(
                K, SHOWCASE_WINDOW)
        return out

    @staticmethod
    def check(inst, out):
        problems = []
        for rec, nf in zip(out["records"], out["normal_forms"]):
            if nf.terms:
                problems.append(f"{inst.label}: record {rec.bidegree} "
                                f"[{rec.provenance}] has a nonzero normal form")
        problems += _vanishing_problems(inst, out["basis"].generators,
                                        "basis element")
        problems += _vanishing_problems(
            inst, [r.poly for r in out["records"]], "record")
        (xlo, xhi), (tlo, thi) = HILBERT_WINDOW
        for i in range(xlo, xhi + 1):
            for j in range(tlo, thi + 1):
                got = out["hilbert"].get((i, j))
                want = inst.dims.dim(i, j)
                if got != want:
                    problems.append(f"{inst.label}: bigraded_hilbert gives "
                                    f"{got} at ({i},{j}), the Rees ideal has "
                                    f"{want}")
        expected = SHOWCASE.get(inst.spec.fixture)
        if expected is not None:
            got = {(x, t): c for x, t, c in out["mingens"].marks()}
            if got != expected:
                problems.append(f"{inst.label}: minimal generators at "
                                f"x-degree 3 are {got}, the paper has "
                                f"{expected}")
        return problems


# -- check-small ---------------------------------------------------------------

class CheckSmall:
    name = "check-small"

    @staticmethod
    def specs(small=False):
        if small:
            return [Spec("quadric_cubic", fixture="quadric_cubic"),
                    Spec("rand3-12", col_degrees=(1, 2))]
        return [Spec("quadric_cubic", fixture="quadric_cubic"),
                Spec("almost_linear", fixture="almost_linear"),
                Spec("table1", fixture="table1"),
                Spec("final_example", fixture="final_example"),
                Spec("rand3-12", col_degrees=(1, 2)),
                Spec("rand3-23", col_degrees=(2, 3)),
                Spec("rand4-112", col_degrees=(1, 1, 2)),
                Spec("rand5-1111", col_degrees=(1, 1, 1, 1))]

    warm_up = Spec("warm-up", fixture="quadric_cubic")

    @staticmethod
    def prepare(inst):
        # every `rees check` runs in a fresh process, so it starts with the
        # package's caches empty
        clear_rees_caches()

    @staticmethod
    def op(inst):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--json", "check", inst.path])
        return {"code": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}

    @staticmethod
    def check(inst, out):
        if out["code"] != 0:
            return [f"{inst.label}: rees check exited {out['code']}: "
                    f"{out['stderr'].strip()[-200:]}"]
        try:
            payload = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return [f"{inst.label}: rees check printed invalid JSON ({exc})"]
        problems = []
        if payload.get("ok") is not True:
            problems.append(f"{inst.label}: rees check reports ok = "
                            f"{payload.get('ok')!r}")
        reports = payload.get("reports") or []
        want = MIN_CHECKS.get(inst.n, DEFAULT_MIN_CHECKS)
        for report in reports:
            checks = report.get("checks") or []
            if len(checks) < want:
                problems.append(f"{inst.label}: {report.get('name')} lists "
                                f"{len(checks)} checks, expected at least "
                                f"{want}")
            for item in checks:
                if item.get("ok") is not True:
                    problems.append(f"{inst.label}: check "
                                    f"{item.get('label')!r} failed")
        if not reports:
            problems.append(f"{inst.label}: rees check lists no report")
        return problems


WORKLOADS = {w.name: w for w in (TowerLarge, Saturate, CheckSmall)}
