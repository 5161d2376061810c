"""The benchmark's own tests: every workload's checks on the smallest inputs,
and outputs with a planted fault that the checks must reject.

    python3 -m pytest perfbench -q
"""
import contextlib
import dataclasses
import io
import json
import os
import tempfile

import pytest

import run

run.import_rees()

import algebra  # noqa: E402
import workloads  # noqa: E402
from rees import oracle  # noqa: E402
from rees.ring import Poly  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


@pytest.fixture
def workdir():
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as path:
        yield path


def small_instances(workload, workdir, labels=None):
    specs = [s for s in workload.specs(small=True)
             if labels is None or s.label in labels]
    return workloads.make_instances(specs, 0, workdir)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_reports_every_metric(name, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                         "--trace", str(trace), "--small"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_workload_names_match_the_benchmark_file():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_linear_syzygies_count_matches_the_column_degrees(workdir):
    # For n = 3 the (i, 1) piece of the Rees ideal is the degree-i part of
    # the syzygy module R(-d1) + R(-d2).
    for inst in small_instances(workloads.Saturate, workdir):
        if inst.n != 3:
            continue
        d1, d2 = inst.pres.col_degrees
        for i in range(8):
            assert inst.dims.dim(i, 1) == max(0, i - d1 + 1) + max(0, i - d2 + 1)


def test_changed_record_coefficient_is_caught(workdir):
    inst = small_instances(workloads.TowerLarge, workdir, {"quadric_cubic"})[0]
    out = workloads.TowerLarge.op(inst)
    assert workloads.TowerLarge.check(inst, out) == []
    rec = out["slices"][2][-1]
    terms = dict(rec.poly.terms)
    mono = next(iter(terms))
    terms[mono] = (terms[mono] + 1) % algebra.P
    out["slices"][2][-1] = dataclasses.replace(rec, poly=Poly(rec.poly.ring, terms))
    problems = workloads.TowerLarge.check(inst, out)
    assert any("is nonzero at" in p for p in problems), problems


def test_dropped_basis_element_is_caught(workdir):
    inst = small_instances(workloads.Saturate, workdir, {"quadric_cubic"})[0]
    K = oracle.saturated_ideal(inst.inp)
    assert workloads.Saturate.check(inst, workloads.Saturate.consume(inst, K)) == []
    (xlo, xhi), (tlo, thi) = workloads.HILBERT_WINDOW
    drop = next(k for k, g in enumerate(K.generators)
                if xlo <= g.xdeg() <= xhi and tlo <= g.tdeg() <= thi)
    short = dataclasses.replace(
        K, generators=K.generators[:drop] + K.generators[drop + 1:])
    problems = workloads.Saturate.check(inst, workloads.Saturate.consume(inst, short))
    assert any("bigraded_hilbert" in p for p in problems), problems


def test_wrong_showcase_count_is_caught(workdir):
    inst = small_instances(workloads.Saturate, workdir, {"final_example"})[0]
    out = workloads.Saturate.op(inst)
    assert workloads.Saturate.check(inst, out) == []
    out["mingens"] = dataclasses.replace(
        out["mingens"], counts={(3, 3): 3, (3, 4): 3})
    problems = workloads.Saturate.check(inst, out)
    assert any("paper has" in p for p in problems), problems


def test_bad_check_reports_are_caught(workdir):
    inst = small_instances(workloads.CheckSmall, workdir, {"quadric_cubic"})[0]
    out = workloads.CheckSmall.op(inst)
    assert workloads.CheckSmall.check(inst, out) == []

    def edited(edit):
        p = json.loads(out["stdout"])
        edit(p)
        return dict(out, stdout=json.dumps(p))

    bad_outputs = [
        dict(out, code=2),
        edited(lambda p: p.update(ok=False)),
        edited(lambda p: p["reports"][0]["checks"][0].update(ok=False)),
        edited(lambda p: p["reports"][0]["checks"].pop()),
    ]
    for bad in bad_outputs:
        assert workloads.CheckSmall.check(inst, bad)
