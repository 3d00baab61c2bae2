"""Command-line front end.

Four batch subcommands: ``analyze`` (plant characteristics), ``bound``
(evaluate a floor), ``verify`` (simulate a loop and certify it against the
floors), and ``szego`` (entropy rate from a power spectrum). Reports are
JSON on stdout, optionally mirrored to files under ``--out`` together with
CSV tables. Exit codes: 0 success, 2 input or validation error, 3 a
certification came back unsatisfied, 4 the simulated loop is unstable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
# verify takes its floors from ROUTES; entropy_summary, error_bound_lti and
# output_bound stay attributes of this module for bench/child.py to wrap.
from .bounds import ROUTES, entropy_summary, error_bound_lti, output_bound  # noqa: F401
from .controllers import parse_controller
from .disturbance import (
    SpectralDensity,
    load_disturbance,
    szego_entropy_rate,
    szego_log_integral,
)
from .errors import (
    FundlimError,
    UnstableLoopError,
    from_fields,
    parse_numbers,
    read_json,
    read_utf8,
)
from .plant import AnalysisWarning, analyze_plant, load_plant
from .simulation import SimulationConfig, run_closed_loop, verify_bound

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSATISFIED = 3
EXIT_UNSTABLE = 4


def _parse_p_list(text: str) -> tuple:
    """Norm orders from the comma list of a ``--p`` flag, such as ``2,inf``."""
    orders = parse_numbers(text.split(","), "norm order in --p")
    if not orders:
        raise FundlimError("--p must name at least one norm order")
    return tuple(orders)


def _p_tag(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _manifest(command: str, inputs: dict, parameters: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "parameters": parameters,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def _emit(payload: dict, out_dir, filename: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Nobody reads stdout: the report files and the exit code still
        # count. Later writes, the flush at exit included, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text + "\n", encoding="utf-8")


def _write_csv(out_dir, filename: str, header: list, rows) -> None:
    if out_dir is None:
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    with open(path / filename, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _captured_analysis(model):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        chars = analyze_plant(model)
    notes = [str(w.message) for w in caught if issubclass(w.category, AnalysisWarning)]
    return chars, notes


def cmd_analyze(args) -> int:
    model = load_plant(args.plant)
    chars, notes = _captured_analysis(model)
    payload = chars.to_dict()
    payload["warnings"] = notes
    payload["manifest"] = _manifest(
        "analyze", {"plant": str(args.plant)}, {}
    )
    _emit(payload, args.out, "analyze_report.json")
    return EXIT_OK


def cmd_bound(args) -> int:
    dist = load_disturbance(args.dist)
    theorem = args.theorem
    if theorem is None:
        theorem = "T3" if args.plant is None else "T1"
    fixed_p, needs_plant, build = ROUTES[theorem]
    if needs_plant and args.plant is None:
        raise FundlimError(f"theorem {theorem} needs --plant (only T3 is plant-free)")

    chars = None
    notes: list = []
    if args.plant is not None:
        model = load_plant(args.plant)
        chars, notes = _captured_analysis(model)
    p_list = _parse_p_list(args.p) if fixed_p is None else (fixed_p,)
    reports = [build(p, chars, dist, args.grid) for p in p_list]

    payload = {
        "reports": [report.to_dict() for report in reports],
        "warnings": notes,
        "manifest": _manifest(
            "bound",
            {"plant": None if args.plant is None else str(args.plant), "dist": str(args.dist)},
            {
                "theorem": theorem,
                "p": [_p_tag(p) for p in p_list],
                "grid": args.grid,
            },
        ),
    }
    _emit(payload, args.out, "bound_report.json")
    return EXIT_OK


def _resolve_sim_config(args) -> SimulationConfig:
    # Three layers by field name, lowest first: the CLI's own defaults, the
    # --sim-config file, then the flags, whose dests are the field names.
    # SimulationConfig holds every other default.
    settings = {"horizon": 200, "trajectories": 10000}
    if args.sim_config is not None:
        file_cfg = read_json(args.sim_config, "simulation config")
        if not isinstance(file_cfg, dict):
            raise FundlimError("simulation config file must hold a JSON object")
        settings.update(file_cfg)
    for field in dataclasses.fields(SimulationConfig):
        if getattr(args, field.name) is not None:
            settings[field.name] = getattr(args, field.name)
    # The flag's text is read here; a file's p_list is SimulationConfig's to
    # check, as it holds what SimulationConfig.to_dict() writes.
    if args.p_list is not None:
        settings["p_list"] = _parse_p_list(args.p_list)
    return from_fields(SimulationConfig, settings, "simulation config", "simulation settings")


def cmd_verify(args) -> int:
    model = load_plant(args.plant)
    dist = load_disturbance(args.dist)
    controller = parse_controller(args.controller)
    cfg = _resolve_sim_config(args)
    chars, notes = _captured_analysis(model)

    manifest = _manifest(
        "verify",
        {"plant": str(args.plant), "dist": str(args.dist)},
        {
            "controller": args.controller,
            "which": args.which,
            "sim": cfg.to_dict(),
        },
    )

    # Before the simulation, so a floor that cannot be evaluated is an input
    # error, not an unstable loop. Neither route reads a spectrum grid.
    _, _, build = ROUTES["T2" if args.which == "output" else "T1"]
    reports = [build(p, chars, dist, None) for p in cfg.p_list]
    # An unstable report names the floors it could not certify.
    floors = [report.to_dict() for report in reports]

    try:
        result = run_closed_loop(model, controller, dist, cfg)
    except UnstableLoopError as exc:
        payload = {
            "stable": False,
            "error": str(exc),
            "results": [],
            "floors": floors,
            "warnings": notes,
            "manifest": manifest,
        }
        _emit(payload, args.out, "verify_report.json")
        return EXIT_UNSTABLE

    results = []
    exit_code = EXIT_OK
    if result.stable:
        for report in reports:
            cert = verify_bound(result, report, which=args.which)
            row = cert.to_dict()
            row["factors"] = report.to_dict()["factors"]
            results.append(row)
        if any(not row["satisfied"] for row in results):
            exit_code = EXIT_UNSATISFIED
    else:
        exit_code = EXIT_UNSTABLE

    payload = {
        "stable": bool(result.stable),
        "diverged": int(result.diverged),
        "which": args.which,
        "results": results,
        "warnings": notes,
        "manifest": manifest,
    }
    if not result.stable:
        payload["floors"] = floors
        short = np.flatnonzero(result.alive_counts < cfg.trajectories)
        payload["first_divergence_step"] = int(short[0]) if short.size else None
    _emit(payload, args.out, "verify_report.json")

    if args.out is not None:
        signals = (("e", result.error_norms), ("y", result.output_norms))
        columns = {f"{s}_p{_p_tag(p)}": norms[p] for p in cfg.p_list for s, norms in signals}
        values = (map(repr, column.tolist()) for column in columns.values())
        rows = zip(range(cfg.horizon), *values)
        _write_csv(args.out, "verify_norms.csv", ["k", *columns], rows)
    return exit_code


def _spectrum_from_csv(path) -> SpectralDensity:
    omegas, values = [], []
    reader = csv.reader(io.StringIO(read_utf8(path)))
    for row in reader:
        if not row or not row[0].strip():
            continue
        try:
            w, s = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            if reader.line_num == 1:
                continue  # header
            raise FundlimError(
                f"spectrum CSV {path} line {reader.line_num} is not a numeric omega,S pair"
            ) from None
        omegas.append(w)
        values.append(s)
    if len(omegas) < 16:
        raise FundlimError(f"spectrum CSV {path} holds fewer than 16 numeric rows")
    return SpectralDensity.from_samples(np.asarray(omegas), np.asarray(values))


def cmd_szego(args) -> int:
    if (args.dist is None) == (args.spectrum_csv is None):
        raise FundlimError("szego needs exactly one of --dist or --spectrum-csv")
    if args.dist is not None:
        dist = load_disturbance(args.dist)
        spectrum = dist.power_spectrum(args.grid)
        negentropy = dist.negentropy_rate()
        inputs = {"dist": str(args.dist)}
    else:
        spectrum = _spectrum_from_csv(args.spectrum_csv)
        negentropy = 0.0  # Gaussian assumption for bare spectra
        inputs = {"spectrum_csv": str(args.spectrum_csv)}

    log_integral = szego_log_integral(spectrum)
    rate = szego_entropy_rate(spectrum, negentropy)
    payload = {
        "szego_log_integral_bits": log_integral,
        "entropy_rate_bits": rate,
        "negentropy_bits": negentropy,
        "grid_points": int(spectrum.grid.size),
        "manifest": _manifest("szego", inputs, {"grid": args.grid}),
    }
    _emit(payload, args.out, "szego_report.json")
    _write_csv(
        args.out,
        "spectrum.csv",
        ["omega", "S"],
        ((repr(float(w)), repr(float(s))) for w, s in zip(spectrum.grid, spectrum.values)),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundlim",
        description="Information-theoretic performance floors for feedback loops "
        "and their Monte Carlo certification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="plant poles, zeros, relative degree")
    analyze.add_argument("--plant", required=True, help="plant JSON file (fields A, B, C)")
    analyze.add_argument("--out", default=None, help="directory for report files")
    analyze.set_defaults(handler=cmd_analyze)

    bound = sub.add_parser("bound", help="evaluate a performance floor")
    bound.add_argument("--dist", required=True, help="disturbance JSON file")
    bound.add_argument("--plant", default=None, help="plant JSON file (omit for the plant-free floor)")
    bound.add_argument("--theorem", default=None, choices=tuple(ROUTES),
                       help="bound route (default: T1 with a plant, T3 without)")
    bound.add_argument("--p", default="2", help="comma list of norm orders, e.g. 2,inf")
    bound.add_argument("--grid", type=int, default=4096, help="spectrum grid size for C4/KS")
    bound.add_argument("--out", default=None)
    bound.set_defaults(handler=cmd_bound)

    verify = sub.add_parser("verify", help="simulate a loop and certify it against the floors")
    verify.add_argument("--plant", required=True)
    verify.add_argument("--dist", required=True)
    verify.add_argument("--controller", default="zero",
                        help="'zero' | 'gain:<c>' | 'arma:<b0,...;a1,...>'")
    verify.add_argument("--which", default="error", choices=("error", "output"),
                        help="certify the error signal (T1) or the measurement (T2)")
    verify.add_argument("--horizon", type=int, default=None)
    verify.add_argument("--traj", dest="trajectories", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--p", dest="p_list", default=None, help="comma list of norm orders")
    verify.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    verify.add_argument("--tail-window", dest="tail_window", type=int, default=None)
    verify.add_argument("--x0-std", dest="x0_std", type=float, default=None)
    verify.add_argument("--sim-config", dest="sim_config", default=None,
                        help="JSON file with simulation settings (flags win)")
    verify.add_argument("--out", default=None)
    verify.set_defaults(handler=cmd_verify)

    szego = sub.add_parser("szego", help="entropy rate from a power spectrum")
    szego.add_argument("--dist", default=None, help="disturbance JSON file")
    szego.add_argument("--spectrum-csv", dest="spectrum_csv", default=None,
                       help="CSV of omega,S rows covering one period")
    szego.add_argument("--grid", type=int, default=4096)
    szego.add_argument("--out", default=None)
    szego.set_defaults(handler=cmd_szego)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FundlimError, OSError) as exc:
        print(f"fundlim: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"fundlim: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
