"""Monte Carlo closed-loop simulation and empirical certification of the floors.

The loop semantics per trajectory are

    y_k = C x_k,   z_k = controller(y_0..y_k),   e_k = z_k + d_k,
    x_{k+1} = A x_k + B e_k,   x_0 = 0 (optionally Gaussian).

Trajectories run in fixed-size chunks, and each chunk draws from its own
random streams, one per purpose, keyed by the seed and the chunk index:
every trajectory of a chunk passes the chunk's disturbance generator, in
trajectory order, to ``dist.sample``, and the chunk's initial states come
from a second generator. Trajectory m's draws so depend only on the seed,
its chunk and its position in the chunk, not on the number of
trajectories. The draws are bit-reproducible per numpy version, as numpy
does not freeze Generator distribution streams (NEP 19).

Per-step empirical L_p norms are aggregated across trajectories, the limsup
is operationalized as the maximum of those norms over a tail window at the
end of the horizon, and certification compares that tail statistic against
a bound with a bootstrap margin.
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

# Purposes of a chunk's random streams (the first word of their spawn key).
_DISTURBANCE = 0
_INITIAL_STATE = 1


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
        seed = int(self.seed)
        if seed < 0:
            raise InvalidModelError(f"seed must be >= 0, got {seed}")
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
        object.__setattr__(self, "seed", seed)
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
    resampling; they are the two row views of one
    (2, tail_window, trajectories) array, NaN where a trajectory has
    diverged. ``stable`` is False when the mean-square state estimate ever
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


def _chunk_stream(seed: int, purpose: int, chunk: int) -> np.random.Generator:
    """Generator of one chunk's stream for one purpose.

    The chunk and purpose go in the spawn key, not the entropy: SeedSequence
    pads its entropy with zeros, so an entropy tuple (seed, 0) would give the
    very stream of ``default_rng(seed)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, chunk)))


def _simulate_chunk(model, controller, dist, cfg, span, stats):
    """Add the trajectories ``span`` into the run's ``stats`` in place.

    ``stats`` holds the arrays built by ``run_closed_loop``; each chunk owns
    the columns ``m_lo:m_hi`` of the tails. Returns how many trajectories
    of the span diverged.
    """
    sums, maxes, counts, sum_sq_state, tails = stats
    m_lo, m_hi = span
    count_m = m_hi - m_lo
    horizon = cfg.horizon
    tail_start = horizon - cfg.tail_window
    A, B, C = model.A, model.B, model.C
    chunk = m_lo // _CHUNK

    rng = _chunk_stream(cfg.seed, _DISTURBANCE, chunk)
    d = np.empty((count_m, horizon))
    for j in range(count_m):
        draw = np.asarray(dist.sample(rng, horizon), dtype=float)
        if draw.shape != (horizon,):
            raise InvalidModelError(
                f"disturbance sample has shape {draw.shape}, expected ({horizon},)"
            )
        d[j] = draw

    if cfg.x0_std > 0.0:
        # Row j of the block is trajectory j's initial state.
        initial = _chunk_stream(cfg.seed, _INITIAL_STATE, chunk)
        x = (cfg.x0_std * initial.standard_normal((count_m, model.n))).T
    else:
        x = np.zeros((model.n, count_m))

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

    alive = np.ones(count_m, dtype=bool)
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
        # Row 0 is |e|, row 1 is |y|. Dead entries read 0, which adds
        # 0 = 0**p (p >= 1) to every sum and cannot exceed a live magnitude
        # in the max.
        mag = np.where(alive, np.abs(np.stack((e, y))), 0.0)
        live = int(alive.sum())
        counts[k] += live
        for p, total in sums.items():
            total[:, k] += (mag**p).sum(axis=1)
        if maxes is not None:
            maxes[:, k] = np.maximum(maxes[:, k], mag.max(axis=1))
        sum_sq_state[k] += np.where(alive, np.einsum("ij,ij->j", x, x), 0.0).sum()
        if k >= tail_start:
            tails[:, k - tail_start, m_lo:m_hi] = np.where(alive, mag, np.nan)
        x = A @ x + B * e
    return count_m - live


def run_closed_loop(
    model: StateSpaceModel,
    controller: CausalController,
    dist: DisturbanceModel,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Simulate the closed loop over Monte Carlo trajectories.

    Trajectories are mutually independent and are processed in fixed-size
    chunks. Every trajectory of a chunk draws its disturbance through
    ``dist.sample(gen, horizon)`` from the chunk's one generator, in
    trajectory order, and its initial state from a second generator of the
    chunk; a ragged last chunk draws a prefix of a full chunk's streams.
    Chunks accumulate in place into one set of run statistics, in block
    order, so results are bit-identical for a given config and numpy
    version. Raises UnstableLoopError when every trajectory has left
    float range by the final step.
    """
    horizon, tail = cfg.horizon, cfg.tail_window
    # Every statistic keeps the error in row 0 and the output in row 1.
    sums = {p: np.zeros((2, horizon)) for p in cfg.p_list if not math.isinf(p)}
    maxes = np.zeros((2, horizon)) if math.inf in cfg.p_list else None
    counts = np.zeros(horizon, dtype=np.int64)
    sum_sq_state = np.zeros(horizon)
    tails = np.empty((2, tail, cfg.trajectories))
    stats = (sums, maxes, counts, sum_sq_state, tails)

    diverged = 0
    with np.errstate(all="ignore"):
        for lo in range(0, cfg.trajectories, _CHUNK):
            span = (lo, min(lo + _CHUNK, cfg.trajectories))
            diverged += _simulate_chunk(model, controller, dist, cfg, span, stats)

        # A trajectory never revives, so counts only fall along the horizon:
        # a live final step means every step has live trajectories.
        if counts[-1] == 0:
            raise UnstableLoopError(
                "every trajectory diverged before the end of the horizon"
            )
        mean_sq = sum_sq_state / counts
        norms = {p: (total / counts) ** (1.0 / p) for p, total in sums.items()}
        if maxes is not None:
            norms[math.inf] = maxes
        tail_max = {p: rows[:, horizon - tail :].max(axis=1) for p, rows in norms.items()}
        stable = diverged == 0 and not np.any(mean_sq > cfg.divergence_threshold)

    return SimulationResult(
        config=cfg,
        error_norms={p: rows[0] for p, rows in norms.items()},
        output_norms={p: rows[1] for p, rows in norms.items()},
        error_tail={p: float(rows[0]) for p, rows in tail_max.items()},
        output_tail={p: float(rows[1]) for p, rows in tail_max.items()},
        mean_square_state=mean_sq,
        stable=bool(stable),
        diverged=diverged,
        tail_abs_error=tails[0],
        tail_abs_output=tails[1],
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
