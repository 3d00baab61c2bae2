"""Smoke tests of the benchmark itself: python3 -m pytest bench -q

Each workload runs at its smoke size (a few thousand trajectories) and must
emit every metric named in BENCHMARK.json with its unit. The gate and the
traced-run wrappers are tested directly.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_emits_every_metric(name, trace):
    proc = _run("--workload", name, "--size", "smoke", "--seed", "3",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.get(name, "smoke").p_list)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        key: value["unit"] for key, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_spec_lists_the_workloads_the_runner_knows():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2 and set(names) <= set(workloads.NAMES)


def _api_record(ratio_p2=1.0, satisfied=True, stable=True):
    rows = [
        {"p": 2.0, "ratio": ratio_p2, "satisfied": satisfied, "margin_stderr": 0.01},
        {"p": "inf", "ratio": 1.2, "satisfied": True, "margin_stderr": 0.02},
    ]
    return {"rows": rows, "tails": {"error": {"2": "2.0"}}, "stable": stable, "diverged": 0}


def test_gate_counts_each_kind_of_miss():
    w = workloads.get("gauss_unstable", "full")
    failed, problems, digest, _ = gate.check(w, _api_record(), b"", None)
    assert (failed, problems) == (0, [])

    failed, problems, _, _ = gate.check(w, _api_record(ratio_p2=1.03), b"", None)
    assert failed == 1 and "outside" in problems[-1]

    failed, _, _, _ = gate.check(w, _api_record(satisfied=False), b"", None)
    assert failed == 1

    # A repeat that differs from the first one of its seed fails entirely.
    failed, problems, _, _ = gate.check(w, _api_record(), b"", "another digest")
    assert failed == 2 and "differ" in problems[0]

    failed, _, _, _ = gate.check(w, _api_record(stable=False), b"", None)
    assert failed == 2

    failed, _, _, _ = gate.check(w, None, b"", None)
    assert failed == 2


def test_gate_reads_the_cli_report_without_its_timestamp():
    w = workloads.get("cli_nmp_output", "full")
    rows = [{"p": p, "ratio": 1.1, "satisfied": True} for p in (1.0, 2.0, 4.0, "inf")]

    def report(stamp):
        body = {"stable": True, "results": rows, "manifest": {"timestamp": stamp}}
        return json.dumps(body).encode()

    _, problems, first, _ = gate.check(w, {"exit_code": 0}, report("t0"), None)
    assert problems == []
    _, problems, second, _ = gate.check(w, {"exit_code": 0}, report("t1"), first)
    assert problems == [] and second == first
    failed, _, _, _ = gate.check(w, {"exit_code": 3}, report("t0"), first)
    assert failed == 4


def test_wrappers_keep_the_interface_and_report_after_clone():
    import fundlim as fl
    from fundlim.controllers import _has_batch_interface

    w = workloads.get("scalar_controller", "smoke")
    plant, scalar, dist = workloads.build_api_inputs(w)
    recorder = tracing.Recorder(run_id=0)
    batch = tracing.TracedController(fl.StaticGain(1.5), recorder)
    assert _has_batch_interface(batch)
    assert not _has_batch_interface(tracing.TracedController(scalar, recorder))

    for twin in (batch.clone(), copy.deepcopy(batch)):
        assert isinstance(twin, tracing.TracedController)
        assert twin._recorder is recorder and twin._inner is not batch._inner

    cfg = fl.SimulationConfig(horizon=20, trajectories=50, seed=1)
    plain = fl.run_closed_loop(plant, scalar, dist, cfg)
    span = recorder.open("simulation.run")
    traced = fl.run_closed_loop(
        plant,
        tracing.TracedController(scalar, recorder),
        tracing.TracedDisturbance(dist, recorder),
        cfg,
    )
    recorder.close(span)
    assert traced.error_tail == plain.error_tail
    assert span["counters"]["controllers.step"][0] == 20 * 50
    assert span["counters"]["disturbance.sample"][0] == 50


def test_self_times_subtract_children_and_counters():
    recorder = tracing.Recorder(run_id=0)
    outer = recorder.open("simulation.run")
    inner = recorder.open("simulation.verify")
    recorder.close(inner)
    recorder.add("disturbance.sample", 0.0)
    recorder.close(outer)
    outer["start"], outer["end"] = 0.0, 10.0
    inner["start"], inner["end"] = 2.0, 5.0
    outer["counters"]["disturbance.sample"] = [4, 1.0]
    probe = {"inside_s": 0.1, "outside_s": 0.2}
    times = tracing.self_times(recorder.spans, probe)
    assert times["simulation"] == pytest.approx(10.0 - 3.0 - 1.0 - 4 * 0.2 + 3.0)
    assert times["disturbance"] == pytest.approx(1.0 - 4 * 0.1)
    assert times["trace"] == pytest.approx(4 * 0.3)
    assert tracing.span_total(recorder.spans, "simulation.run", probe)[1] == pytest.approx(8.8)


def test_fails_without_sources():
    # A copy of BENCHMARK.json and bench/ alone, inside the ignored output dir.
    bare = ROOT / ".bench_out" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "gauss_unstable", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
