"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import paralie  # noqa: E402
from paralie import expengine, levicivita  # noqa: E402
from perfbench import calibration, inputs, run, tracer, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Small pools and one set-up probe, so a whole run takes about a second."""
    monkeypatch.setitem(workloads.WORKLOADS, "exp_scatter", functools.partial(workloads.ExpScatter, n=64))
    monkeypatch.setitem(workloads.WORKLOADS, "classify_mix", functools.partial(workloads.ClassifyMix, n=32))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _run(capsys, workload: str, trace: int):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["exp_scatter", "classify_mix"])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace, kind):
    text, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in text), name
        assert math.isfinite(result["metrics"][name]["value"])


def test_known_defects_lower_ok_share_not_failed(tiny, capsys):
    text, result = _run(capsys, "exp_scatter", 0)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] < 1.0
    assert any(line.startswith("wrong outcomes ") for line in text)


def test_readable_lines_carry_issue_metrics(tiny, capsys):
    text, _ = _run(capsys, "exp_scatter", 0)
    names = {line.split()[0] for line in text if line.startswith("  ")}
    assert {"fail_share", "max_err", "op_samples"} <= names
    assert any(line.startswith("machine ") and "longdouble_eps" in line for line in text)


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no_such_directory" / "src")
    assert run.main(["--workload", "exp_scatter", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _corrupt_first(fn, match, corrupt):
    calls = {"done": False}

    def patched(*args):
        out = fn(*args)
        if not calls["done"] and match(args, out):
            calls["done"] = True
            out = corrupt(out)
        return out

    return patched, calls


def _table(*passes):
    table = run.LatencyTable(len(passes[0].lat))
    for p in passes:
        table.add(p.lat, 1.0)
    return table


def test_latency_table_takes_per_operation_medians():
    table = run.LatencyTable(2)
    for lat in ([1.0, 10.0], [1.2, 10.0], [50.0, 10.0]):  # one interrupted call
        table.add(np.array(lat), 2.0)
    assert table.samples == 6
    assert table.quantiles([0.0, 1.0]) == pytest.approx([2.4, 20.0])
    for _ in range(run.LatencyTable.ROWS):
        table.add(np.array([1.0, 1.0]), 1.0)
    assert table.samples == 2 * run.LatencyTable.ROWS
    assert table.quantiles([0.5]) == pytest.approx([1.0])


def test_corrupted_closed_form_is_a_failure(monkeypatch):
    wl = workloads.ExpScatter(5, n=64)
    clean = wl.run_pass()

    def bump(res):
        res.expA = res.expA + 1e-6
        return res

    k = [c.category for c in wl.cases].index("generic")  # passes when left alone
    patched, calls = _corrupt_first(expengine.closed_form, lambda a, r: a == wl.args[k], bump)
    monkeypatch.setattr(expengine, "closed_form", patched)
    hit = wl.run_pass()
    assert calls["done"]
    assert hit.failed == clean.failed + 1
    assert hit.max_err >= 1e-6 / wl.truth.scale[k]
    e2e = run.end_to_end(wl, [hit], [1.0], _table(hit), [{"setup_s": 0.1, "factor": 1.0}])
    assert e2e["fail_share"][0] == pytest.approx(hit.failed / wl.ops_per_pass)
    assert e2e["ok_share"][0] == pytest.approx(1.0 - hit.failed / wl.ops_per_pass)


def test_wrong_verdict_is_a_failure(monkeypatch):
    wl = workloads.ClassifyMix(5, n=32)
    clean = wl.run_pass()

    def relabel(report):
        return dataclasses.replace(report, verdict=["F9"] if report.verdict != ["F9"] else ["F4"])

    k = [c.category for c in wl.cases].index("sum")  # passes when left alone
    patched, calls = _corrupt_first(levicivita.classify_manifold, lambda a, r: a[0] is wl.cases[k].c, relabel)
    monkeypatch.setattr(levicivita, "classify_manifold", patched)
    hit = wl.run_pass()
    assert calls["done"]
    assert hit.failed == clean.failed + 1
    e2e = run.end_to_end(wl, [hit], [1.0], _table(hit), [{"setup_s": 0.1, "factor": 1.0}])
    assert e2e["fail_share"][0] == pytest.approx(hit.failed / wl.ops_per_pass)


def test_accepted_non_lie_constants_are_failures():
    wl = workloads.ClassifyMix(5, n=32)
    report = paralie.classify_manifold(inputs.constants("F4", 1.0))
    out = [report if case.reject else paralie.NotALieAlgebraError(1.0) for case in wl.cases]
    assert wl.check(1.0, np.zeros(len(out)), out).failed == len(out)


def test_bare_overflow_error_is_a_failure():
    wl = workloads.ExpScatter(5, n=64)
    beyond = wl.truth.expect == "raise"
    assert beyond.any()
    out = [ValueError("overflow") if b else OverflowError("math range") for b in beyond]
    res = wl.check(1.0, np.zeros(len(out)), out)
    assert res.failed == len(out) - beyond.sum()


def test_verify_report_parsing():
    wl = workloads.VerifyFull(0)
    rows = [f"  {cid:<4} max residual 1.000e-15  pass" for cid in inputs.CLASS_IDS]
    rows += [f"  {cid:<4} max error    0.000e+00  pass" for cid in inputs.CLASS_IDS]
    good = wl.check(0, "\n".join(rows), 1.0)
    assert (good.failed, good.max_err) == (0, 1e-15)
    rows[1] = rows[1].replace("pass", "FAIL")
    bad = wl.check(1, "\n".join(rows), 1.0)
    assert bad.failed == wl.EXP_PER_CLASS and bad.core_failed == bad.failed
    assert wl.check(0, "\n".join(rows), 1.0).failed == wl.ops_per_pass  # exit code disagrees
    assert wl.ops_per_pass == 21875 + 102


def test_referee_agrees_with_package_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 3, 3)) * np.logspace(-3, 1.3, 20)[:, None, None]
    ref = inputs.expm_stacked(a).astype(float)
    for x, r in zip(a, ref):
        assert np.max(np.abs(paralie.expm_oracle(x) - r)) <= 1e-13 * max(1.0, np.max(np.abs(r)))


def test_element_matrix_matches_package():
    for case in inputs.exp_cases(4, 200):
        if case.category in ("generic", "mixed", "near_edge"):
            res_a = paralie.adjoint_rep(
                paralie.class_algebra(paralie.ClassParams(case.cid, case.alpha, case.beta)), *case.coords)
            mine = inputs.element_matrix(case.cid, case.alpha, case.beta, *case.coords).astype(float)
            assert np.allclose(mine, res_a, rtol=1e-15, atol=0.0)


def test_generators_follow_the_seed():
    assert inputs.exp_cases(7, 100) == inputs.exp_cases(7, 100)
    assert inputs.exp_cases(7, 100) != inputs.exp_cases(8, 100)
    a, b = inputs.classify_cases(7, 40), inputs.classify_cases(7, 40)
    assert all(np.array_equal(x.c, y.c) and x.verdict == y.verdict for x, y in zip(a, b))


def test_classify_ground_truth():
    for case in inputs.classify_cases(2, 60):
        defect = inputs.jacobi_defect(case.c)
        assert (defect >= 1e-3) if case.reject else (defect == 0.0)


def test_tracer_self_time_and_restore():
    t = tracer.Tracer()
    original = paralie.closed_form
    t.install()
    try:
        assert paralie.closed_form is not original and expengine.closed_form is not original
        t.begin_op()
        paralie.closed_form(paralie.ClassParams("F4", 1.0), 0.5, 1.0, 2.0)
        t.end_op()
    finally:
        t.uninstall()
    assert paralie.closed_form is original and expengine.closed_form is original
    s = t.arrays()
    labels = [t.labels[i] for i in s["name"]]
    assert labels == [tracer.OP, "expengine.closed_form", "lie.class_algebra", "lie.adjoint_rep"]
    calls, own = t.self_times()
    dur = s["end"] - s["start"]
    cf = t.labels.index("expengine.closed_form")
    assert own[cf] == pytest.approx(dur[1] - dur[2] - dur[3])
    assert t.counts["expengine.closed_form.branch.generic"] == 1
    assert t.ops_with("expengine.closed_form") == 1 and t.ops_with("mat3.expm_oracle") == 0


def test_tracer_reports_absent_names(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("lie", "no_such_function"),))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["lie.no_such_function"]
    assert t.layer_metrics(1)["lie.no_such_function.calls"] == (0.0, "count")


def test_host_speed_samples_in_proportion():
    host = calibration.HostSpeed()
    first = host.sample(0.01)
    second = host.sample(2.5 * calibration.UNIT_EVERY_S)
    assert (first[0], second[0], host.units) == (1, 3, 1 + 3)
    assert host.seconds == pytest.approx(first[1] + second[1])
    assert host.factor == pytest.approx(calibration.REF_UNIT_S * host.units / host.seconds)
    assert calibration.bracket_factor(first, second) == pytest.approx(host.factor)
    assert 0.05 < host.factor < 20.0
