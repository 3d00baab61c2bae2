"""The four benchmark workloads and their input sizes.

Why each workload is in the set is recorded in bench/README.md, and for
the two that BENCHMARK.json lists, also there.

Each workload is one closed loop run by a single caller, one run at a time.
The benchmark seed becomes the simulation seed, so the same seed gives the
same disturbance draws. ``full`` is the measured size; ``smoke`` is a few
thousand trajectories for the benchmark's own tests.

This module imports no fundlim code, so the parent process stays light;
``build_api_inputs`` does the imports inside a child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api" or "cli"
    horizon: int
    trajectories: int
    p_list: tuple
    which: str
    # Accepted band for the p = 2 ratio, or None when no band applies.
    p2_band: tuple | None
    size: str = "full"


_FULL = {
    "gauss_unstable": Workload(
        name="gauss_unstable",
        kind="api",
        horizon=300,
        trajectories=100_000,
        p_list=(2.0, INF),
        which="error",
        p2_band=(0.975, 1.025),
    ),
    "ar_colored": Workload(
        name="ar_colored",
        kind="api",
        horizon=300,
        trajectories=20_000,
        p_list=(2.0, INF),
        which="error",
        p2_band=None,
    ),
    "scalar_controller": Workload(
        name="scalar_controller",
        kind="api",
        horizon=300,
        trajectories=32_768,
        p_list=(2.0,),
        which="error",
        p2_band=(0.95, 1.05),
    ),
    "cli_nmp_output": Workload(
        name="cli_nmp_output",
        kind="cli",
        horizon=400,
        trajectories=50_000,
        p_list=(1.0, 2.0, 4.0, INF),
        which="output",
        p2_band=None,
    ),
}

_SMOKE_TRAJECTORIES = {
    "gauss_unstable": 4096,
    "ar_colored": 2048,
    "scalar_controller": 2048,
    "cli_nmp_output": 4096,
}
_SMOKE_HORIZON = 100

NAMES = tuple(_FULL)
DEFAULT_SEEDS = {"gauss_unstable": 2, "ar_colored": 2, "scalar_controller": 2, "cli_nmp_output": 5}
SIZES = ("full", "smoke")

# cli_nmp_output inputs, written to JSON files for the CLI to load.
NMP_PLANT = {
    "A": [[0.4, 0.11, -0.03], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "B": [1.0, 0.0, 0.0],
    "C": [0.0, 1.0, -2.0],
}
NMP_DIST = {"type": "iid_gengauss", "shape": 4.0, "lp_norm": 1.0}
NMP_CONTROLLER = "arma:0.1;-0.2"


def get(name: str, size: str) -> Workload:
    """The workload ``name`` at ``size``.

    A smoke size widens the p = 2 band by sqrt(full / smoke trajectories),
    the factor by which the Monte Carlo error of the ratio grows.
    """
    full = _FULL[name]
    if size == "full":
        return full
    traj = _SMOKE_TRAJECTORIES[name]
    band = full.p2_band
    if band is not None:
        widen = math.sqrt(full.trajectories / traj)
        band = (1.0 - (1.0 - band[0]) * widen, 1.0 + (band[1] - 1.0) * widen)
    return Workload(
        name=full.name,
        kind=full.kind,
        horizon=_SMOKE_HORIZON,
        trajectories=traj,
        p_list=full.p_list,
        which=full.which,
        p2_band=band,
        size=size,
    )


def p_text(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def cli_argv(w: Workload, seed: int, plant_path: str, dist_path: str, out_dir: str) -> list:
    return [
        "verify",
        "--plant", plant_path,
        "--dist", dist_path,
        "--controller", NMP_CONTROLLER,
        "--which", w.which,
        "--horizon", str(w.horizon),
        "--traj", str(w.trajectories),
        "--seed", str(seed),
        "--p", ",".join(p_text(p) for p in w.p_list),
        "--out", out_dir,
    ]


def build_api_inputs(w: Workload):
    """Plant, controller and disturbance of an API workload (imports fundlim)."""
    import fundlim as fl

    class ScalarGain(fl.CausalController):
        """z = -gain * y through reset/step only: no batch interface."""

        def __init__(self, gain: float):
            self.gain = gain

        def reset(self) -> None:
            pass

        def step(self, y: float) -> float:
            return -self.gain * y

    plant = fl.StateSpaceModel(A=[[2.0]], B=[1.0], C=[1.0])
    if w.name == "ar_colored":
        dist = fl.GaussianAR((0.9,), 1.0)
    else:
        dist = fl.GaussianIID(1.0)
    if w.name == "scalar_controller":
        controller = ScalarGain(1.5)
    else:
        controller = fl.StaticGain(1.5)
    return plant, controller, dist
