"""Fast tests of the benchmark itself, at toy sizes.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dpattn as dp  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, traced  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported(capsys, monkeypatch, workload, trace):
    monkeypatch.setattr(workloads, "FULL", workloads.TOY)
    details, result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0",
                                       "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # Gate counts cover the traced operations only.
        traced_ops = details["named"]["traced_ops"]
        assert 0 <= result["metrics"]["pipeline.eps_event_misses"]["value"] <= traced_ops
    assert set(details["provenance"]) >= {"nproc", "cpu_model", "python", "numpy",
                                          "stream_version", "git_commit", "env"}


def test_missing_package_exits_nonzero_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "release", "--seed", "1", "--seconds", "1"]) == 1
    assert capsys.readouterr().out == ""


def _release_report():
    wl = workloads.Release(5, workloads.TOY, None)
    return wl, wl.call(None)[1]


def test_release_gate_counts_corrupted_results():
    wl, report = _release_report()
    assert wl.check(report) == []
    bad_rows = report.attention_released * 1.001
    assert wl.check(dataclasses.replace(report, attention_released=bad_rows))
    failed_req = dataclasses.replace(report.requirement_checks[0], passed=False)
    checks = (failed_req,) + report.requirement_checks[1:]
    assert wl.check(dataclasses.replace(report, requirement_checks=checks))
    over = dataclasses.replace(report, measured_error=2 * report.error_bound)
    assert wl.check(over)
    # A missed eps event is counted, not failed; only too many fail the run.
    missed = dataclasses.replace(over, loewner_eps_event=False)
    assert wl.check(missed) == []
    assert wl.eps_misses == 1 and wl.run_problems() == []
    wl.eps_misses = wl.checked
    assert wl.run_problems()


def test_cli_gate_counts_corrupted_results(tmp_path):
    wl = workloads.Cli(5, workloads.TOY, tmp_path)
    assert wl.check(wl.call(None)[1]) == []

    out, codes, seconds = wl.call(None)[1]
    report = out / "dp_attention_report.json"
    report.write_text(report.read_text().replace('"certified": true', '"certified": false'))
    assert wl.check((out, codes, seconds))

    out, codes, seconds = wl.call(None)[1]
    with open(out / "bench_utility.csv", "a") as f:
        f.write("\n")
    problems = wl.check((out, codes, seconds))
    assert "output bytes differ from the first pass" in problems

    out, codes, seconds = wl.call(None)[1]
    assert wl.check((out, {**codes, "gen-dataset": 2}, seconds))
    assert wl.check(wl.call(None)[1]) == []
    assert list(wl.workdir.iterdir()) == []


def test_loop_counts_failed_operations(monkeypatch):
    class Flaky(workloads.Workload):
        def __init__(self):
            self.n = 0

        def call(self, tracer):
            self.n += 1
            if self.n == 2:
                raise ValueError("boom")
            return 0.001, self.n

        def check(self, output):
            return ["wrong"] if output == 3 else []

    monkeypatch.setattr(run, "MIN_OPS", 4)
    loop, flaky = run.Loop(), Flaky()
    run.run_for(0.0, lambda: loop.step(flaky))
    assert loop.attempted == 4 and loop.failed == 2 and loop.seconds == [0.001, 0.001]


def _self_times(tracer):
    child = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [s.duration - c for s, c in zip(tracer.spans, child)]


@pytest.mark.parametrize("cls", [workloads.Release, workloads.Cli])
def test_self_times_are_non_negative_and_sum_to_the_root(cls, tmp_path):
    wl = cls(7, workloads.TOY, tmp_path)
    tracer = Tracer()
    with traced(tracer):
        with tracer.span("bench.op"):
            _, output = wl.call(tracer)
        wl.check(output)
    selfs = _self_times(tracer)
    assert len(tracer.spans) > 3
    assert min(selfs) >= 0.0
    root = tracer.spans[0]
    assert root.name == "bench.op" and all(s.parent >= 0 for s in tracer.spans[1:])
    assert sum(selfs) == pytest.approx(root.duration, rel=0.01)
    tracer.fold()
    assert sum(v[2] for v in tracer.totals.values()) == pytest.approx(root.duration, rel=0.01)


def test_tracing_wraps_every_binding_and_restores_it():
    original = dp.mechanism.gaussian_sampling_mechanism
    tracer = Tracer()
    with traced(tracer):
        assert dp.gaussian_sampling_mechanism is dp.mechanism.gaussian_sampling_mechanism
        assert dp.mechanism.gaussian_sampling_mechanism is not original
        assert dp.pipeline.gaussian_sampling_mechanism is not original
        dp.rng.standard_normals(3, (1,))  # outside any root span: not recorded
        with tracer.span("bench.op"):
            dp.rng.standard_normals(5, (1,))
    assert dp.mechanism.gaussian_sampling_mechanism is original
    assert dp.pipeline.gaussian_sampling_mechanism is original
    assert [s.name for s in tracer.spans] == ["bench.op", "rng.standard_normals",
                                              "rng.generator"]
    assert tracer.counts == {"rng.normals": 5, "rng.generators": 1}


def test_binomial_allowance():
    assert workloads.binomial_allowance(0, 0.05) == 0
    allowed = workloads.binomial_allowance(200, 0.05)
    assert 10 < allowed < 40
    rnd = random.Random(0)
    draws = [sum(rnd.random() < 0.05 for _ in range(200)) for _ in range(2000)]
    assert max(draws) <= allowed
