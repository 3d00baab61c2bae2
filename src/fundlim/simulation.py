"""Monte Carlo closed-loop simulation and empirical certification of the floors.

The loop semantics per trajectory are

    y_k = C x_k,   z_k = controller(y_0..y_k),   e_k = z_k + d_k,
    x_{k+1} = A x_k + B e_k,   x_0 = 0 (optionally Gaussian),

with trajectory m drawing its disturbance from seed ``seed + m``. Per-step
empirical L_p norms are aggregated across trajectories, the limsup is
operationalized as the maximum of those norms over a tail window at the end
of the horizon, and certification compares that tail statistic against a
bound with a bootstrap margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .controllers import CausalController, _has_batch_interface
from .disturbance import DisturbanceModel
from .errors import (
    CertificationRefusedError,
    InvalidModelError,
    InvalidNormOrderError,
    UnstableLoopError,
    check_order,
)
from .plant import StateSpaceModel

__all__ = [
    "Certification",
    "SimulationConfig",
    "SimulationResult",
    "empirical_lp",
    "run_closed_loop",
    "verify_bound",
]

# Trajectories per vectorized block. Fixed (not configurable) so that
# reduction order, and therefore every reported float, is reproducible.
_CHUNK = 8192

# The sample maximum underestimates an essential supremum, so sup-norm
# certification allows this much one-sided slack in the ratio.
SUP_NORM_SLACK = 1e-3

_BOOTSTRAP_TAG = 0xB007


@dataclass(frozen=True)
class SimulationConfig:
    """Closed-loop Monte Carlo settings.

    ``tail_window`` is the number of final steps whose per-step norms feed
    the tail statistic (default horizon // 5); ``burn_in`` must leave the
    tail window inside the horizon. ``p_list`` is normalized to a sorted
    tuple with math.inf last.
    """

    horizon: int
    trajectories: int
    seed: int = 0
    p_list: tuple = (2.0,)
    burn_in: int | None = None
    tail_window: int | None = None
    divergence_threshold: float = 1e12
    x0_std: float = 0.0

    def __post_init__(self) -> None:
        horizon = int(self.horizon)
        trajectories = int(self.trajectories)
        if horizon < 1:
            raise InvalidModelError(f"horizon must be >= 1, got {horizon}")
        if trajectories < 1:
            raise InvalidModelError(f"trajectories must be >= 1, got {trajectories}")
        p_list = tuple(sorted({check_order(p) for p in self.p_list}))
        if not p_list:
            raise InvalidNormOrderError("p_list must name at least one norm order")
        burn_in = horizon // 5 if self.burn_in is None else int(self.burn_in)
        tail = max(1, horizon // 5) if self.tail_window is None else int(self.tail_window)
        if burn_in < 0 or tail < 1 or burn_in + tail > horizon:
            raise InvalidModelError(
                f"need burn_in >= 0, tail_window >= 1, burn_in + tail_window <= horizon; "
                f"got burn_in={burn_in}, tail_window={tail}, horizon={horizon}"
            )
        threshold = float(self.divergence_threshold)
        if not (math.isfinite(threshold) and threshold > 0.0):
            raise InvalidModelError("divergence_threshold must be finite and positive")
        x0_std = float(self.x0_std)
        if not (math.isfinite(x0_std) and x0_std >= 0.0):
            raise InvalidModelError("x0_std must be finite and >= 0")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "p_list", p_list)
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "tail_window", tail)
        object.__setattr__(self, "divergence_threshold", threshold)
        object.__setattr__(self, "x0_std", x0_std)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "trajectories": self.trajectories,
            "seed": self.seed,
            "p_list": ["inf" if math.isinf(p) else p for p in self.p_list],
            "burn_in": self.burn_in,
            "tail_window": self.tail_window,
            "divergence_threshold": self.divergence_threshold,
            "x0_std": self.x0_std,
        }


@dataclass
class SimulationResult:
    """Aggregated closed-loop statistics.

    ``error_norms``/``output_norms`` map each norm order to the per-step
    empirical norm across trajectories (length horizon); ``error_tail`` and
    ``output_tail`` hold the maxima of those norms over the tail window.
    ``tail_abs_error``/``tail_abs_output`` keep the per-trajectory magnitudes
    inside the tail window, shape (tail_window, trajectories), for bootstrap
    resampling. ``stable`` is False when the mean-square state estimate ever
    exceeded the divergence threshold or any trajectory left float range
    (``diverged`` counts the latter).
    """

    config: SimulationConfig
    error_norms: dict
    output_norms: dict
    error_tail: dict
    output_tail: dict
    mean_square_state: np.ndarray
    stable: bool
    diverged: int
    tail_abs_error: np.ndarray
    tail_abs_output: np.ndarray

    @property
    def tail_start(self) -> int:
        return self.config.horizon - self.config.tail_window


def empirical_lp(samples, p: float) -> float:
    """Empirical L_p norm: (mean |x|^p)^(1/p), or max |x| for p = inf."""
    p = check_order(p)
    magnitudes = np.abs(np.asarray(samples, dtype=float).ravel())
    if magnitudes.size == 0:
        raise InvalidModelError("empirical norm needs at least one sample")
    if math.isinf(p):
        return float(magnitudes.max())
    return float(np.mean(magnitudes**p) ** (1.0 / p))


def _simulate_chunk(model, controller, dist, cfg, p_finite, want_max, span):
    m_lo, m_hi = span
    count_m = m_hi - m_lo
    horizon, tail = cfg.horizon, cfg.tail_window
    tail_start = horizon - tail
    A, B, C = model.A, model.B, model.C

    d = np.empty((count_m, horizon))
    for j in range(count_m):
        draw = np.asarray(dist.sample(cfg.seed + m_lo + j, horizon), dtype=float)
        if draw.shape != (horizon,):
            raise InvalidModelError(
                f"disturbance sample has shape {draw.shape}, expected ({horizon},)"
            )
        d[j] = draw

    x = np.zeros((model.n, count_m))
    if cfg.x0_std > 0.0:
        for j in range(count_m):
            rng = np.random.default_rng((cfg.seed + m_lo + j, 1))
            x[:, j] = cfg.x0_std * rng.standard_normal(model.n)

    law = controller.clone()
    if _has_batch_interface(law):
        law.reset_batch(count_m)
        steps = None
    else:
        # One instance per trajectory, and its bound step fetched once.
        laws = [law] + [controller.clone() for _ in range(count_m - 1)]
        for each in laws:
            each.reset()
        steps = [each.step for each in laws]

    sums_e = {p: np.zeros(horizon) for p in p_finite}
    sums_y = {p: np.zeros(horizon) for p in p_finite}
    max_e = np.full(horizon, -np.inf)
    max_y = np.full(horizon, -np.inf)
    counts = np.zeros(horizon, dtype=np.int64)
    sum_sq_state = np.zeros(horizon)
    tail_e = np.full((tail, count_m), np.nan)
    tail_y = np.full((tail, count_m), np.nan)
    alive = np.ones(count_m, dtype=bool)

    with np.errstate(all="ignore"):
        for k in range(horizon):
            y = (C @ x).ravel()
            if steps is None:
                z = np.asarray(law.step_batch(y), dtype=float)
            else:
                z = np.fromiter(
                    [step(v) for step, v in zip(steps, y.tolist())],
                    dtype=float,
                    count=count_m,
                )
            e = z + d[:, k]
            alive &= np.isfinite(e) & np.isfinite(y) & np.isfinite(x).all(axis=0)
            # Dead entries read 0, which adds 0 = 0**p (p >= 1) to every sum
            # and cannot exceed a live magnitude in the max.
            abs_e = np.where(alive, np.abs(e), 0.0)
            abs_y = np.where(alive, np.abs(y), 0.0)
            counts[k] = int(alive.sum())
            if counts[k]:
                for p in p_finite:
                    sums_e[p][k] = (abs_e**p).sum()
                    sums_y[p][k] = (abs_y**p).sum()
                if want_max:
                    max_e[k] = abs_e.max()
                    max_y[k] = abs_y.max()
                sum_sq_state[k] = np.where(alive, np.einsum("ij,ij->j", x, x), 0.0).sum()
            if k >= tail_start:
                tail_e[k - tail_start] = np.where(alive, abs_e, np.nan)
                tail_y[k - tail_start] = np.where(alive, abs_y, np.nan)
            x = A @ x + B * e

    return {
        "sums_e": sums_e,
        "sums_y": sums_y,
        "max_e": max_e,
        "max_y": max_y,
        "counts": counts,
        "sum_sq_state": sum_sq_state,
        "tail_e": tail_e,
        "tail_y": tail_y,
        "diverged": int(count_m - alive.sum()),
    }


def run_closed_loop(
    model: StateSpaceModel,
    controller: CausalController,
    dist: DisturbanceModel,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Simulate the closed loop over Monte Carlo trajectories.

    Trajectories are mutually independent (disturbance seeds ``seed + m``)
    and are processed in fixed-size blocks whose partial sums are combined
    in block order, so results are bit-identical for a given config. Raises
    UnstableLoopError when every trajectory has left float range by the
    final step.
    """
    p_finite = [p for p in cfg.p_list if not math.isinf(p)]
    want_max = any(math.isinf(p) for p in cfg.p_list)
    spans = [
        (lo, min(lo + _CHUNK, cfg.trajectories))
        for lo in range(0, cfg.trajectories, _CHUNK)
    ]
    partials = [
        _simulate_chunk(model, controller, dist, cfg, p_finite, want_max, span)
        for span in spans
    ]

    horizon, tail = cfg.horizon, cfg.tail_window
    counts = np.zeros(horizon, dtype=np.int64)
    sum_sq_state = np.zeros(horizon)
    sums_e = {p: np.zeros(horizon) for p in p_finite}
    sums_y = {p: np.zeros(horizon) for p in p_finite}
    max_e = np.full(horizon, -np.inf)
    max_y = np.full(horizon, -np.inf)
    diverged = 0
    for part in partials:
        counts += part["counts"]
        sum_sq_state += part["sum_sq_state"]
        for p in p_finite:
            sums_e[p] += part["sums_e"][p]
            sums_y[p] += part["sums_y"][p]
        np.maximum(max_e, part["max_e"], out=max_e)
        np.maximum(max_y, part["max_y"], out=max_y)
        diverged += part["diverged"]
    tail_abs_e = np.concatenate([part["tail_e"] for part in partials], axis=1)
    tail_abs_y = np.concatenate([part["tail_y"] for part in partials], axis=1)

    if counts[-1] == 0:
        raise UnstableLoopError(
            "every trajectory diverged before the end of the horizon"
        )

    observed = counts > 0
    with np.errstate(all="ignore"):
        mean_sq = np.where(observed, sum_sq_state / np.maximum(counts, 1), np.nan)
        error_norms = {}
        output_norms = {}
        for p in p_finite:
            error_norms[p] = np.where(
                observed, (sums_e[p] / np.maximum(counts, 1)) ** (1.0 / p), np.nan
            )
            output_norms[p] = np.where(
                observed, (sums_y[p] / np.maximum(counts, 1)) ** (1.0 / p), np.nan
            )
        if want_max:
            error_norms[math.inf] = np.where(observed, max_e, np.nan)
            output_norms[math.inf] = np.where(observed, max_y, np.nan)

    threshold_hit = bool(np.any(np.where(observed, mean_sq, 0.0) > cfg.divergence_threshold))
    stable = (diverged == 0) and not threshold_hit

    window = slice(horizon - tail, horizon)
    error_tail = {p: float(np.max(error_norms[p][window])) for p in cfg.p_list}
    output_tail = {p: float(np.max(output_norms[p][window])) for p in cfg.p_list}

    return SimulationResult(
        config=cfg,
        error_norms=error_norms,
        output_norms=output_norms,
        error_tail=error_tail,
        output_tail=output_tail,
        mean_square_state=mean_sq,
        stable=stable,
        diverged=diverged,
        tail_abs_error=tail_abs_e,
        tail_abs_output=tail_abs_y,
    )


def _bootstrap_std(tail_abs: np.ndarray, p: float, seed_key, resamples: int) -> float:
    """Std of the tail statistic under trajectory-level bootstrap resampling."""
    rng = np.random.default_rng(seed_key)
    n_traj = tail_abs.shape[1]
    stats = np.empty(resamples)
    if math.isinf(p):
        per_traj = tail_abs.max(axis=0)
        for r in range(resamples):
            counts = np.bincount(rng.integers(0, n_traj, n_traj), minlength=n_traj)
            stats[r] = per_traj[counts > 0].max()
    else:
        powered = tail_abs**p
        for r in range(resamples):
            counts = np.bincount(rng.integers(0, n_traj, n_traj), minlength=n_traj)
            means = powered @ (counts / n_traj)
            stats[r] = means.max() ** (1.0 / p)
    return float(np.std(stats))


@dataclass(frozen=True)
class Certification:
    """Outcome of comparing a simulated tail norm against a bound."""

    p: float
    which: str
    theorem_tag: str
    bound_value: float
    tail_norm: float
    ratio: float
    margin_stderr: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "p": "inf" if math.isinf(self.p) else float(self.p),
            "which": self.which,
            "theorem": self.theorem_tag,
            "bound": float(self.bound_value),
            "tail_norm": float(self.tail_norm),
            "ratio": float(self.ratio),
            "margin_stderr": float(self.margin_stderr),
            "satisfied": bool(self.satisfied),
        }


def verify_bound(
    result: SimulationResult,
    report: BoundReport,
    which: str = "error",
    resamples: int = 200,
    sup_slack: float = SUP_NORM_SLACK,
) -> Certification:
    """Check a simulated loop against a lower bound.

    The ratio is tail norm / bound; the bound counts as satisfied when the
    ratio is at least 1 minus three bootstrap standard errors (trajectory
    resampling, ``resamples`` draws, deterministic in the simulation seed).
    For p = inf the sample maximum is a one-sided underestimate of the
    essential supremum, so an extra ``sup_slack`` is allowed. Refuses to
    certify unstable results; raises InvalidModelError for resamples < 1.
    """
    if which not in ("error", "output"):
        raise ValueError(f"which must be 'error' or 'output', got {which!r}")
    if resamples < 1:
        raise InvalidModelError(f"resamples must be >= 1, got {resamples}")
    if not result.stable:
        raise CertificationRefusedError(
            "simulation is flagged unstable; its tail statistics do not "
            "estimate a stationary norm"
        )
    p = report.p
    tails = result.error_tail if which == "error" else result.output_tail
    if p not in tails:
        raise InvalidNormOrderError(
            f"simulation did not record norms for p = {p}; extend p_list"
        )
    block = result.tail_abs_error if which == "error" else result.tail_abs_output
    tail_norm = tails[p]
    ratio = tail_norm / report.bound_value
    std = _bootstrap_std(block, p, (result.config.seed, _BOOTSTRAP_TAG), resamples)
    margin = std / report.bound_value
    slack = 3.0 * margin
    if math.isinf(p):
        slack = max(slack, sup_slack)
    return Certification(
        p=p,
        which=which,
        theorem_tag=report.theorem_tag,
        bound_value=float(report.bound_value),
        tail_norm=float(tail_norm),
        ratio=float(ratio),
        margin_stderr=float(margin),
        satisfied=bool(ratio >= 1.0 - slack),
    )
