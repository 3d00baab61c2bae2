"""One repeat of one workload, in a fresh process.

Run by ``run.py``, never imported by it. The fundlim package is imported
from the checkout's ``src`` directory, which the parent puts on
PYTHONPATH. Timings, certification rows and (with ``--trace 1``) spans go
to the JSON file named by ``--result``; a CLI workload's report goes to
stdout, as the CLI writes it.

usage: child.py --workload NAME --size full|smoke --seed N --trace 0|1
                --result FILE [--run-id N] [--inputs DIR --out DIR] [--provenance]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads

clock = time.perf_counter


def _provenance() -> dict:
    """Library versions and BLAS threads, read after the timed work."""
    import ctypes

    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                break
    return info


def run_api(w, seed: int, traced: bool, run_id: int) -> dict:
    """Set up, simulate and certify an API workload; return its record."""
    from tracing import Recorder, TracedController, TracedDisturbance, calibrate

    recorder = None
    t0 = clock()
    if traced:
        recorder = Recorder(run_id)
        root = recorder.open("bench.repeat")
        span = recorder.open("bench.import")
    import fundlim as fl

    if traced:
        recorder.close(span)
        # The CLI module on top of the package, as the CLI workload's traced
        # run imports it, so cli.import_s means the same on every workload.
        span = recorder.open("cli.import")
        import fundlim.cli  # noqa: F401

        recorder.close(span)

    def layer(name, fn):
        return recorder.timed(name, fn) if traced else fn

    plant, controller, dist = workloads.build_api_inputs(w)
    cfg = fl.SimulationConfig(
        horizon=w.horizon, trajectories=w.trajectories, seed=seed, p_list=w.p_list
    )
    chars = layer("plant.analyze", fl.analyze_plant)(plant)
    ent = layer("disturbance.entropy", fl.entropy_summary)(dist)
    bound = layer("bounds.eval", fl.error_bound_lti)
    floors = [bound(p, chars, ent) for p in cfg.p_list]
    if traced:
        dist = TracedDisturbance(dist, recorder)
        controller = TracedController(controller, recorder)
    t1 = clock()
    result = layer("simulation.run", fl.run_closed_loop)(plant, controller, dist, cfg)
    verify = layer("simulation.verify", fl.verify_bound)
    certs = [verify(result, floor, which=w.which) for floor in floors]
    t2 = clock()
    if traced:
        recorder.close(root)

    return {
        "setup_s": t1 - t0,
        "verdict_s": t2 - t1,
        "stable": bool(result.stable),
        "diverged": int(result.diverged),
        "rows": [cert.to_dict() for cert in certs],
        "tails": {
            "error": {workloads.p_text(p): repr(v) for p, v in result.error_tail.items()},
            "output": {workloads.p_text(p): repr(v) for p, v in result.output_tail.items()},
        },
        "tail_bytes": int(result.tail_abs_error.nbytes + result.tail_abs_output.nbytes),
        "spans": recorder.spans if traced else None,
        "probe": calibrate() if traced else None,
    }


def run_cli(w, seed: int, traced: bool, run_id: int, inputs_dir: str, out_dir: str) -> dict:
    """Run ``fundlim verify`` in this process, as ``python -m fundlim.cli`` does.

    The one untraced hook is a timestamp taken when the CLI calls
    ``run_closed_loop``: it splits set-up from the verdict. The report goes
    to this process's stdout.
    """
    import os

    argv = workloads.cli_argv(
        w,
        seed,
        os.path.join(inputs_dir, "plant.json"),
        os.path.join(inputs_dir, "dist.json"),
        out_dir,
    )
    from tracing import Recorder, TracedController, TracedDisturbance, calibrate

    recorder = None
    marks: dict = {}
    t0 = clock()
    if traced:
        recorder = Recorder(run_id)
        root = recorder.open("bench.repeat")
        span = recorder.open("cli.import")
    import fundlim.cli as cli

    if traced:
        recorder.close(span)
        wraps = {
            "load_plant": "plant.load",
            "load_disturbance": "disturbance.load",
            "parse_controller": "controllers.parse",
            "analyze_plant": "plant.analyze",
            "entropy_summary": "disturbance.entropy",
            "output_bound": "bounds.eval",
            "error_bound_lti": "bounds.eval",
            "run_closed_loop": "simulation.run",
            "verify_bound": "simulation.verify",
        }
        for attr, name in wraps.items():
            setattr(cli, attr, recorder.timed(name, getattr(cli, attr)))
        load_dist, parse_ctrl = cli.load_disturbance, cli.parse_controller
        cli.load_disturbance = lambda path: TracedDisturbance(load_dist(path), recorder)
        cli.parse_controller = lambda text: TracedController(parse_ctrl(text), recorder)

    simulate = cli.run_closed_loop

    def run_closed_loop(model, controller, dist, cfg):
        marks["first_step"] = clock()
        result = simulate(model, controller, dist, cfg)
        marks["tail_bytes"] = int(result.tail_abs_error.nbytes + result.tail_abs_output.nbytes)
        return result

    cli.run_closed_loop = run_closed_loop
    main = recorder.timed("cli.main", cli.main) if traced else cli.main
    code = main(argv)
    sys.stdout.flush()
    t2 = clock()
    if traced:
        recorder.close(root)
    first_step = marks.get("first_step", t2)
    return {
        "setup_s": first_step - t0,
        "verdict_s": t2 - first_step,
        "exit_code": int(code),
        "tail_bytes": marks.get("tail_bytes", 0),
        "spans": recorder.spans if traced else None,
        "probe": calibrate() if traced else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--run-id", dest="run_id", type=int, default=0,
                        help="identifier shared by this repeat's spans")
    parser.add_argument("--result", required=True)
    parser.add_argument("--inputs", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--provenance", action="store_true")
    args = parser.parse_args()

    w = workloads.get(args.workload, args.size)
    traced = bool(args.trace)
    if w.kind == "cli":
        record = run_cli(w, args.seed, traced, args.run_id, args.inputs, args.out)
    else:
        record = run_api(w, args.seed, traced, args.run_id)
    record["fundlim_file"] = sys.modules["fundlim"].__file__
    if args.provenance:
        record["provenance"] = _provenance()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
