"""fundlim benchmark: run one workload for a fixed time and print its metrics.

usage: python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                            [--size full|smoke]

Run from the root of a checkout. Each repeat runs in a fresh child process
(``bench/child.py``) that imports fundlim from the checkout's ``src``
directory, with FUNDLIM_THREADS unset. Repeats start until ``--seconds``
have passed or the next one would likely end after that; every metric is the
median over the repeats. Every repeat goes through the correctness gate
(``bench/gate.py``).

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` untraced and traced repeats alternate: the traced ones give the
per-layer metrics, and the difference between the two kinds is the tracing
overhead. Spans and per-repeat values are written under ``.bench_out/``.

Exit code 0 when every certification passed the gate, 1 when one did not,
2 when the checkout has no fundlim sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# A repeat still running this long after --seconds have passed is killed,
# so a run ends within --seconds + 150 s.
GRACE_S = 145.0

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "traj_steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "plant.analyze_s": "s",
    "disturbance.sample_s": "s",
    "disturbance.sample_calls": "count",
    "disturbance.sample_us_per_traj": "us",
    "disturbance.entropy_s": "s",
    "bounds.eval_s": "s",
    "bounds.calls": "count",
    "controllers.step_s": "s",
    "controllers.step_calls": "count",
    "controllers.clone_calls": "count",
    "simulation.run_s": "s",
    "simulation.loop_self_s": "s",
    "simulation.tail_mb": "MB",
    "simulation.alive_frac": "frac",
    "simulation.verify_s": "s",
    "simulation.verify_calls": "count",
    "simulation.margin_stderr": "ratio",
    "cli.import_s": "s",
    "cli.self_frac": "frac",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "frac",
}

# The layer each workload is chosen to stress, checked against the trace.
EXPECTED_DOMINANT = {
    "gauss_unstable": {"simulation"},
    "ar_colored": {"disturbance"},
    "scalar_controller": {"controllers"},
    "cli_nmp_output": {"simulation", "cli"},
}
LAYERS = ("plant", "disturbance", "bounds", "controllers", "simulation", "cli")


def _log(text: str) -> None:
    print(text, flush=True)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("FUNDLIM_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` and return (exit code, rusage); kill it on timeout."""
    reaped = []
    waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(timeout)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_repeat(w, seed: int, traced: bool, work: Path, index: int, provenance: bool,
               timeout: float) -> dict:
    """One repeat in a fresh process; returns its record, stdout and resource use."""
    rep = work / f"rep{index}"
    rep.mkdir()
    result = rep / "result.json"
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", w.name,
        "--size", w.size,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--run-id", str(index),
        "--result", str(result),
        "--inputs", str(work / "inputs"),
        "--out", str(rep / "report"),
    ]
    if provenance:
        cmd.append("--provenance")
    with open(rep / "stdout", "wb") as out, open(rep / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        code, usage = _wait(proc, timeout)
        wall = time.perf_counter() - t0
    stdout = (rep / "stdout").read_bytes()
    record = None
    if code == 0 and result.is_file():
        record = json.loads(result.read_text(encoding="utf-8"))
        if not Path(record["fundlim_file"]).resolve().is_relative_to(SRC):
            _log(f"fundlim was imported from {record['fundlim_file']}, not {SRC}")
            record = None
    else:
        tail = (rep / "stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
        _log(f"repeat {index} exited {code}:\n{tail}")
    shutil.rmtree(rep, ignore_errors=True)
    return {
        "traced": traced,
        "record": record,
        "stdout": stdout,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def end_to_end(w, rep: dict) -> dict:
    rec = rep["record"]
    return {
        "setup_s": rec["setup_s"],
        "verdict_s": rec["verdict_s"],
        "traj_steps_per_s": w.trajectories * w.horizon / rec["verdict_s"],
        "cpu_s": rep["cpu_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(w, rep: dict, rows: list) -> dict:
    """Per-layer metrics of one traced repeat (trace.overhead_frac is added later)."""
    spans, probe = rep["record"]["spans"], rep["record"]["probe"]
    calls, sample_s = tracing.counter_total(spans, "disturbance.sample", probe)
    steps, step_s = tracing.counter_total(spans, "controllers.step", probe)
    bound_calls, bound_s = tracing.span_total(spans, "bounds.eval")
    verify_calls, verify_s = tracing.span_total(spans, "simulation.verify")
    _, repeat_s = tracing.span_total(spans, "bench.repeat", probe)
    if w.kind == "cli":
        report = json.loads(rep["stdout"].decode("utf-8"))
        diverged = report.get("diverged", 0)
    else:
        diverged = rep["record"]["diverged"]
    return {
        "plant.analyze_s": tracing.span_total(spans, "plant.analyze")[1],
        "disturbance.sample_s": sample_s,
        "disturbance.sample_calls": calls,
        "disturbance.sample_us_per_traj": sample_s / w.trajectories * 1e6,
        "disturbance.entropy_s": tracing.span_total(spans, "disturbance.entropy")[1],
        "bounds.eval_s": bound_s,
        "bounds.calls": bound_calls,
        "controllers.step_s": step_s,
        "controllers.step_calls": steps,
        "controllers.clone_calls": tracing.counter_total(spans, "controllers.clone")[0],
        "simulation.run_s": tracing.span_total(spans, "simulation.run", probe)[1],
        "simulation.loop_self_s": tracing.span_self(spans, "simulation.run", probe),
        "simulation.tail_mb": rep["record"]["tail_bytes"] / 1e6,
        "simulation.alive_frac": 1.0 - diverged / w.trajectories,
        "simulation.verify_s": verify_s,
        "simulation.verify_calls": verify_calls,
        "simulation.margin_stderr": max(row["margin_stderr"] for row in rows),
        "cli.import_s": tracing.span_total(spans, "bench.import")[1]
        + tracing.span_total(spans, "cli.import")[1],
        "cli.self_frac": tracing.span_self(spans, "cli.main", probe) / repeat_s,
        "cli.report_bytes": len(rep["stdout"]) if w.kind == "cli" else 0,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    if not values:
        return "n=0"
    return f"median {_median(values):.6g}  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "FUNDLIM_THREADS": "unset in children",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _write_inputs(w, inputs: Path) -> None:
    inputs.mkdir(parents=True)
    if w.kind == "cli":
        (inputs / "plant.json").write_text(json.dumps(workloads.NMP_PLANT), encoding="utf-8")
        (inputs / "dist.json").write_text(json.dumps(workloads.NMP_DIST), encoding="utf-8")


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat ``w`` for ``seconds``, gate every repeat, and aggregate."""
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        _write_inputs(w, work / "inputs")
        reps = []
        attempted = failed = 0
        reference = None
        info = machine_info()
        start = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            timeout = seconds + GRACE_S - (time.perf_counter() - start)
            rep = run_repeat(w, seed, traced, work, index, provenance=index == 0,
                             timeout=timeout)
            bad, problems, digest, rows = gate.check(w, rep["record"], rep["stdout"], reference)
            if reference is None and digest is not None and not problems:
                reference = digest
            attempted += len(w.p_list)
            failed += bad
            for problem in problems:
                _log(f"GATE {w.name} seed {seed} repeat {index}: {problem}")
            if rep["record"] is not None and "provenance" in rep["record"]:
                info.update(rep["record"]["provenance"])
            rep["ok"] = not problems
            if rep["ok"]:
                rep["rows"] = rows
                rep["e2e"] = end_to_end(w, rep)
                rep["layers"] = per_layer(w, rep, rows) if traced else None
                rep["self_s"] = (
                    tracing.self_times(rep["record"]["spans"], rep["record"]["probe"])
                    if traced else None
                )
            reps.append(rep)
            index += 1
            elapsed = time.perf_counter() - start
            have_plain = any(not r["traced"] for r in reps)
            have_traced = any(r["traced"] for r in reps)
            # No repeat starts that would likely end after --seconds, so a
            # run takes about --seconds rather than up to one repeat more.
            next_traced = trace and index % 2 == 1
            expected = _median([r["wall_s"] for r in reps if r["traced"] == next_traced])
            enough = have_plain and (have_traced or not trace)
            if enough and (elapsed >= seconds or elapsed + expected > seconds):
                break
            if elapsed >= seconds + GRACE_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(w, seed, trace, reps, attempted, failed, info)


def summarize(w, seed, trace, reps, attempted, failed, info) -> dict:
    good_plain = [r for r in reps if r["ok"] and not r["traced"]]
    good_traced = [r for r in reps if r["ok"] and r["traced"]]
    _log(f"workload {w.name}  seed {seed}  size {w.trajectories} traj x {w.horizon} steps  "
         f"p {','.join(workloads.p_text(p) for p in w.p_list)}")
    _log(f"machine {json.dumps(info, sort_keys=True)}")
    _log(f"repeats {len(reps)} ({len(good_traced)} traced)  certifications attempted {attempted}  "
         f"failed {failed}  failed_frac {failed / attempted if attempted else float('nan'):.6g}")

    e2e = {}
    for name, unit in END_TO_END.items():
        values = [r["e2e"][name] for r in good_plain]
        e2e[name] = {"value": _median(values), "unit": unit}
        _log(f"  {name:<34} [{unit}] {_spread(values)}")

    layers = {}
    dump = {"workload": w.name, "seed": seed, "machine": info, "repeats": []}
    if trace:
        _log("traced repeats (per-layer metrics):")
        plain_total = [r["e2e"]["setup_s"] + r["e2e"]["verdict_s"] for r in good_plain]
        traced_total = [r["e2e"]["setup_s"] + r["e2e"]["verdict_s"] for r in good_traced]
        overhead = (_median(traced_total) - _median(plain_total)) / _median(plain_total) \
            if plain_total and traced_total else float("nan")
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_frac":
                values = [overhead]
            else:
                values = [r["layers"][name] for r in good_traced]
            layers[name] = {"value": _median(values), "unit": unit}
            _log(f"  {name:<34} [{unit}] {_spread(values)}")
        cli_runs = [r for r in good_traced if w.kind == "cli"]
        if cli_runs:
            _log(f"  cli.wall_s (fresh process)         [s] {_spread([r['wall_s'] for r in cli_runs])}")
            _log("  cli.self_s                         [s] " + _spread(
                [tracing.span_self(r["record"]["spans"], "cli.main", r["record"]["probe"])
                 for r in cli_runs]))
        _log(f"  tracing overhead on setup+verdict: {overhead:+.2%} "
             f"(traced {_median(traced_total):.4g} s vs untraced {_median(plain_total):.4g} s)")
        if good_traced:
            shares = {layer: _median([r["self_s"].get(layer, 0.0) for r in good_traced])
                      for layer in LAYERS}
            total = sum(shares.values())
            ranked = sorted(shares.items(), key=lambda kv: -kv[1])
            _log("  self time by layer: " + "  ".join(
                f"{layer} {secs:.3g}s ({secs / total:.0%})" for layer, secs in ranked))
            wrappers = _median([r["self_s"].get("trace", 0.0) for r in good_traced])
            _log(f"  estimated cost of the call wrappers, taken out of the above: {wrappers:.3g}s")
            expected = EXPECTED_DOMINANT[w.name]
            top = ranked[0][0]
            verdict = "as expected" if top in expected else "NOT as expected"
            _log(f"  dominant layer: {top} ({verdict}; expected {' or '.join(sorted(expected))})")

    for r in reps:
        dump["repeats"].append({
            "traced": r["traced"],
            "ok": r["ok"],
            "wall_s": r["wall_s"],
            "end_to_end": r.get("e2e"),
            "per_layer": r.get("layers"),
            "self_s_by_layer": r.get("self_s"),
            "certifications": r.get("rows"),
            "spans": r["record"]["spans"] if r["record"] and r["traced"] else None,
        })
    kind = "trace" if trace else "run"
    out_file = OUT / f"{kind}-{w.name}-seed{seed}.json"
    out_file.write_text(json.dumps(dump, indent=1, allow_nan=True), encoding="utf-8")
    _log(f"per-repeat values written to {out_file.relative_to(ROOT)}")

    return {
        "correct": failed == 0 and bool(good_plain) and (bool(good_traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": layers if trace else e2e,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    args = parser.parse_args(argv)

    if not (SRC / "fundlim" / "__init__.py").is_file():
        print(f"no fundlim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # The build: byte-compile the sources once, so no repeat pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("fundlim sources do not compile", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        w = workloads.get(name, args.size)
        seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[name]
        # numpy seeds must be non-negative; this is the identity for 0 <= seed < 2**32.
        seed %= 2**32
        results[name] = run_workload(w, seed, args.seconds, bool(args.trace))

    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, res in results.items():
            _log(f"RESULT {name} {json.dumps(res)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, res in results.items()
                        for metric, value in res["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
