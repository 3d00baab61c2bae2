"""Monte Carlo closed-loop simulation and empirical certification of the floors.

The loop semantics per trajectory are

    y_k = C x_k,   z_k = controller(y_0..y_k),   e_k = z_k + d_k,
    x_{k+1} = A x_k + B e_k,   x_0 = 0 (optionally Gaussian).

Trajectories run in fixed-size chunks, and each chunk draws from its own
random streams, one per purpose, keyed by the seed and the chunk index.
The chunk's disturbance generator, in trajectory order, fills 64
trajectories per ``dist.sample_rows`` call when the model has that method
(the uniform, generalized Gaussian and AR models do), or else goes to
``dist.sample`` once per trajectory; the chunk's initial states come from
a second generator. Trajectory m's draws so depend only on the seed, its
chunk and its position in the chunk, not on the number of trajectories.
The draws are bit-reproducible per numpy version, as numpy does not
freeze Generator distribution streams (NEP 19). Chunks are independent
jobs: they run in a ``concurrent.futures.ProcessPoolExecutor`` of forked
workers, one per CPU of the affinity mask, and their partial statistics
are added in block order, so the results do not depend on the number of
workers.

Per-step empirical L_p norms are aggregated across trajectories. The limsup
is operationalized over a tail window at the end of the horizon: for finite
p as the pooled norm of every magnitude in it, all steps and trajectories
together, and for p = inf as their largest magnitude. Certification compares
that tail statistic against a bound with a margin from a bootstrap over
trajectories.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import sys
from dataclasses import dataclass, field

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

# Disturbance draws staged per transpose into the chunk's step-major block.
_STAGING = 64

# Purposes of a chunk's random streams (the first word of their spawn key).
_DISTURBANCE = 0
_INITIAL_STATE = 1

# A loop whose tail mean-square state averages more than this many times its
# baseline's is growing, so unstable: a ratio free of the disturbance's units.
_GROWTH = 4.0


@dataclass(frozen=True)
class SimulationConfig:
    """Closed-loop Monte Carlo settings.

    ``tail_window`` is the number of final steps whose magnitudes feed the
    tail statistic (default horizon // 5). ``burn_in`` (default
    horizon // 5) is the start-up transient kept out of the stability
    baseline: the mean-square state on steps [max(burn_in, 1), horizon -
    tail_window) is the level the tail window must not outgrow. It must
    leave the tail window inside the horizon. ``p_list`` is normalized to a
    sorted tuple with math.inf last.
    """

    horizon: int
    trajectories: int
    seed: int = 0
    p_list: tuple = (2.0,)
    burn_in: int | None = None
    tail_window: int | None = None
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
        # No array or mapping can hold more than sys.maxsize bytes: reject
        # such sizes here instead of failing inside numpy or mmap.
        rows = max(2, min(_CHUNK, trajectories))
        if horizon * rows * 8 > sys.maxsize:
            raise InvalidModelError(
                f"horizon {horizon} is too large: a chunk's (horizon, {rows}) arrays "
                f"would exceed {sys.maxsize} bytes"
            )
        if 2 * tail * trajectories * 8 > sys.maxsize:
            raise InvalidModelError(
                f"trajectories {trajectories} with tail_window {tail} is too large: "
                f"the tail array would exceed {sys.maxsize} bytes"
            )
        x0_std = float(self.x0_std)
        if not (math.isfinite(x0_std) and x0_std >= 0.0):
            raise InvalidModelError("x0_std must be finite and >= 0")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "trajectories", trajectories)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "p_list", p_list)
        object.__setattr__(self, "burn_in", burn_in)
        object.__setattr__(self, "tail_window", tail)
        object.__setattr__(self, "x0_std", x0_std)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "trajectories": self.trajectories,
            "seed": self.seed,
            "p_list": ["inf" if math.isinf(p) else p for p in self.p_list],
            "burn_in": self.burn_in,
            "tail_window": self.tail_window,
            "x0_std": self.x0_std,
        }


@dataclass
class SimulationResult:
    """Aggregated closed-loop statistics.

    ``error_norms``/``output_norms`` map each norm order to the per-step
    empirical norm across trajectories (length horizon). ``error_tail`` and
    ``output_tail`` hold the tail statistic: for finite p the pooled norm
    over the tail window, (sum of the window's per-step power sums / sum of
    its alive counts)^(1/p), and for p = inf the window's largest magnitude.
    ``tail_abs_error``/``tail_abs_output`` keep the per-trajectory magnitudes
    inside the tail window, shape (tail_window, trajectories), for bootstrap
    resampling; they are the two row views of one
    (2, tail_window, trajectories) array, NaN where a trajectory has
    diverged. That array lives in an anonymous shared memory mapping, which
    the chunk workers write into; it is kept as it is, not copied back into
    private memory. ``stable`` is False when any trajectory left float range
    (``diverged`` counts them), when the mean-square state did, or when the
    mean-square state over the tail window averages more than 4 times its
    average over the baseline steps [max(burn_in, 1), tail_start); with no
    baseline steps, the later half of [max(burn_in, 1), horizon) is held
    against the earlier half. ``alive_counts`` (int64, length horizon) is
    how many trajectories were still finite at each step; it never
    increases, and its last entry is trajectories - diverged.
    Every field is the same whatever the number of worker processes.
    ``verify_bound`` memoizes the bootstrap stds of every norm order here,
    per signal and number of resamples.
    """

    config: SimulationConfig
    error_norms: dict
    output_norms: dict
    error_tail: dict
    output_tail: dict
    mean_square_state: np.ndarray
    stable: bool
    diverged: int
    alive_counts: np.ndarray
    tail_abs_error: np.ndarray
    tail_abs_output: np.ndarray
    _margins: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def tail_start(self) -> int:
        return self.config.horizon - self.config.tail_window


def empirical_lp(samples, p: float) -> float:
    """Empirical L_p norm: (mean |x|^p)^(1/p), or max |x| for p = inf.

    Taken as m (mean (|x|/m)^p)^(1/p), with m the largest magnitude, so no
    power overflows or underflows for the scale of the samples alone.
    """
    p = check_order(p)
    magnitudes = np.abs(np.asarray(samples, dtype=float).ravel())
    if magnitudes.size == 0:
        raise InvalidModelError("empirical norm needs at least one sample")
    peak = float(magnitudes.max())
    if math.isinf(p) or peak == 0.0:
        return peak
    return peak * float(np.mean((magnitudes / peak) ** p) ** (1.0 / p))


def _chunk_stream(seed: int, purpose: int, chunk: int) -> np.random.Generator:
    """Generator of one chunk's stream for one purpose.

    The chunk and purpose go in the spawn key, not the entropy: SeedSequence
    pads its entropy with zeros, so an entropy tuple (seed, 0) would give the
    very stream of ``default_rng(seed)``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(purpose, chunk)))


def _zero_stats(cfg):
    """A run's or a chunk's per-step statistics, zeroed.

    One (2, horizon) sum per finite p, the (2, horizon) maxima (None without
    p = inf), the alive counts and the sum of the squared state norms.
    """
    horizon = cfg.horizon
    # Every statistic keeps the error in row 0 and the output in row 1.
    sums = {p: np.zeros((2, horizon)) for p in cfg.p_list if not math.isinf(p)}
    maxes = np.zeros((2, horizon)) if math.inf in cfg.p_list else None
    return sums, maxes, np.zeros(horizon, dtype=np.int64), np.zeros(horizon)


def _disturbance_block(dist, rng, horizon: int, count: int) -> np.ndarray:
    """The chunk's (horizon, count) disturbance block: column j is trajectory j's draw.

    Trajectories draw in order into a (_STAGING, horizon) block that is
    transposed into place once full, so step k reads the contiguous row k.
    A model with ``sample_rows`` fills every staging block in one call, all
    _STAGING rows even when fewer trajectories remain, so a shorter run
    still draws a prefix of a longer one's rows. Any other model is called
    as ``dist.sample(rng, horizon)`` once per trajectory.
    """
    d = np.empty((horizon, count))
    sample_rows = getattr(dist, "sample_rows", None)
    staging = np.empty((_STAGING if sample_rows else min(_STAGING, count), horizon))
    for lo in range(0, count, _STAGING):
        rows = staging[: min(_STAGING, count - lo)]
        if sample_rows:
            sample_rows(rng, staging)
        else:
            for row in rows:
                draw = np.asarray(dist.sample(rng, horizon), dtype=float)
                if draw.shape != (horizon,):
                    raise InvalidModelError(
                        f"disturbance sample has shape {draw.shape}, expected ({horizon},)"
                    )
                row[...] = draw
        d[:, lo : lo + len(rows)] = rows.T
    return d


def _power(base, p: float, out):
    """``base**p`` for p >= 1, in ``out`` or, for p = 1, ``base`` itself.

    p = 2 is a square, as ``base**2.0`` takes it, and p = 4 the square of
    that square, each a fraction of a ``pow`` per entry; p = 4 so rounds
    twice, within rtol 1e-15 of ``pow``. Any other p is a ``pow`` per
    entry. ``out`` may be ``base``.
    """
    if p == 1.0:
        return base
    if p == 2.0 or p == 4.0:
        np.square(base, out=out)
        return np.square(out, out=out) if p == 4.0 else out
    return np.power(base, p, out=out)


def _add_power_sums(sums, mag, powered, k):
    """Set column k of every finite p's sums to the row sums of ``_power(mag, p)``."""
    for p, total in sums.items():
        total[:, k] = _power(mag, p, powered).sum(axis=1)


def _simulate_chunk(model, controller, dist, cfg, tails, span):
    """Simulate the trajectories ``span`` and return their partial statistics.

    Returns the chunk's ``_zero_stats`` arrays, filled with its per-step
    statistics, and how many of its trajectories diverged. The chunk writes
    its columns ``m_lo:m_hi`` of ``tails`` directly. It runs in a worker
    process or in the caller's, so it sets its own floating-point error
    state.

    Every work array of the step loop is allocated once per chunk: the
    disturbance block (step-major, so step k reads the contiguous row k),
    the state and its successor, which swap each step, and the magnitude,
    power and mask buffers, which each ufunc writes through ``out=``. Only
    the measurement ``y`` is a fresh array each step, since the control law
    may keep it.
    """
    sums, maxes, counts, sum_sq_state = _zero_stats(cfg)
    m_lo, m_hi = span
    count_m = m_hi - m_lo
    horizon = cfg.horizon
    tail_start = horizon - cfg.tail_window
    A, B, C = model.A, model.B, model.C
    chunk = m_lo // _CHUNK

    with np.errstate(all="ignore"):
        d = _disturbance_block(
            dist, _chunk_stream(cfg.seed, _DISTURBANCE, chunk), horizon, count_m
        )

        x = np.zeros((model.n, count_m))
        if cfg.x0_std > 0.0:
            # Row j of the block is trajectory j's initial state.
            initial = _chunk_stream(cfg.seed, _INITIAL_STATE, chunk)
            x[...] = (cfg.x0_std * initial.standard_normal((count_m, model.n))).T

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

        x_next = np.empty_like(x)
        be = np.empty_like(x)
        e = np.empty(count_m)
        # Row 0 is |e|, row 1 is |y|.
        mag = np.empty((2, count_m))
        powered = np.empty_like(mag)
        xsq = np.empty(count_m)
        x_finite = np.empty(x.shape, dtype=bool)
        finite = np.empty(count_m, dtype=bool)
        alive = np.ones(count_m, dtype=bool)
        dead = np.empty(count_m, dtype=bool)
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
            np.add(z, d[k], out=e)
            np.isfinite(e, out=finite)
            alive &= finite
            np.isfinite(y, out=finite)
            alive &= finite
            np.isfinite(x, out=x_finite)
            np.logical_and.reduce(x_finite, axis=0, out=finite)
            alive &= finite
            np.logical_not(alive, out=dead)
            # Dead entries read 0, which adds 0 = 0**p (p >= 1) to every sum
            # and cannot exceed a live magnitude in the max.
            np.abs(e, out=mag[0])
            np.abs(y, out=mag[1])
            np.copyto(mag, 0.0, where=dead)
            live = int(np.count_nonzero(alive))
            counts[k] = live
            _add_power_sums(sums, mag, powered, k)
            if maxes is not None:
                maxes[:, k] = mag.max(axis=1)
            np.einsum("ij,ij->j", x, x, out=xsq)
            np.copyto(xsq, 0.0, where=dead)
            sum_sq_state[k] = xsq.sum()
            if k >= tail_start:
                row = tails[:, k - tail_start, m_lo:m_hi]
                np.copyto(row, mag)
                np.copyto(row, np.nan, where=dead)
            np.matmul(A, x, out=x_next)
            np.multiply(B, e, out=be)
            np.add(x_next, be, out=x_next)
            x, x_next = x_next, x
        return sums, maxes, counts, sum_sq_state, count_m - live


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_chunks(job, spans):
    """Yield ``job(span)`` for every span, in order.

    One worker process per CPU, capped at the number of spans, runs the jobs
    in a ``ProcessPoolExecutor`` when the host can fork; else, or with one
    worker, they run here. Workers get ``job`` through the pool's
    initializer, which ``fork`` passes on without pickling it; only spans
    and results are pickled.
    """
    workers = min(_cpus(), len(spans))
    if workers > 1:
        import multiprocessing

        # A daemonic process (a Pool worker, say) may not start children.
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_install_job,
                initargs=(job,),
            )
            try:
                yield from pool.map(_run_job, spans)
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(job, spans)


def _install_job(job):
    """Pool initializer: the job that ``_run_job`` runs in this worker.

    It runs only in a worker process, which serves one pool, so the global
    is never shared between two runs.
    """
    global _worker_job
    _worker_job = job


def _run_job(span):
    """Run the worker's job on ``span``.

    An exception that does not survive pickling is raised as a RuntimeError
    that names its class and message, with the original as its cause.
    """
    try:
        return _worker_job(span)
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__qualname__}: {exc}") from exc
        raise


def run_closed_loop(
    model: StateSpaceModel,
    controller: CausalController,
    dist: DisturbanceModel,
    cfg: SimulationConfig,
) -> SimulationResult:
    """Simulate the closed loop over Monte Carlo trajectories.

    Trajectories are mutually independent and are processed in fixed-size
    chunks. The trajectories of a chunk draw their disturbances from the
    chunk's one generator, in trajectory order: 64 at a time through
    ``dist.sample_rows(gen, out)`` on a (64, horizon) block when the model
    has that method, as the uniform, generalized Gaussian and AR models do,
    else one ``dist.sample(gen, horizon)`` call each. Their initial states
    come from a second generator of the chunk; a ragged last chunk draws a
    prefix of a full chunk's streams.

    Chunks run in a ``ProcessPoolExecutor`` of worker processes, one per
    CPU in the affinity mask (``os.sched_getaffinity``; ``os.cpu_count()``
    where that does not exist), capped at the number of chunks. Workers
    start only with the ``fork`` method; where it is missing, with one
    worker, or inside a daemonic process, the chunks run in this process
    instead. ``taskset -c 0`` so forces a serial run. Forked workers run
    the disturbance's and the controller's methods in child processes, so a
    side effect of that code does not reach the caller; each chunk already
    works on clones of the controller. A chunk's exception is raised here
    with its type and message, or as a RuntimeError naming them when it
    cannot be pickled. A worker that dies, say by a signal or
    ``os._exit``, surfaces as ``concurrent.futures.process.BrokenProcessPool``
    (a RuntimeError). After a failure, chunks not yet started are
    cancelled, and a chunk already running finishes before this returns. A worker holds one chunk's disturbance block, 8192 x
    horizon x 8 bytes (26 MB at horizon 400), stored step-major, a 64 x
    horizon staging block, and the chunk's step-loop work buffers,
    allocated once per chunk; the caller
    holds none. A batch controller's ``step_batch`` receives a fresh ``y``
    each step, which it may keep.

    Each chunk returns its partial per-step statistics, and they are added
    in block order, so results are bit-identical for a given config and
    numpy version, whatever the number of workers. Raises
    UnstableLoopError when every trajectory has left float range by the
    final step.
    """
    horizon, tail, n = cfg.horizon, cfg.tail_window, cfg.trajectories
    sums, maxes, counts, sum_sq_state = _zero_stats(cfg)
    # Shared with forked workers, which write their columns into it.
    tails = np.ndarray((2, tail, n), buffer=mmap.mmap(-1, 2 * tail * n * 8))
    spans = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    job = functools.partial(_simulate_chunk, model, controller, dist, cfg, tails)

    diverged = 0
    with np.errstate(all="ignore"):
        for part_sums, part_maxes, part_counts, part_sq, part_diverged in _map_chunks(
            job, spans
        ):
            for p, total in sums.items():
                total += part_sums[p]
            if maxes is not None:
                np.maximum(maxes, part_maxes, out=maxes)
            counts += part_counts
            sum_sq_state += part_sq
            diverged += part_diverged

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
        # The pooled norm over the window; for p = inf the largest maximum.
        window = slice(horizon - tail, None)
        tail_stat = {
            p: (total[:, window].sum(axis=1) / counts[window].sum()) ** (1.0 / p)
            for p, total in sums.items()
        }
        if maxes is not None:
            tail_stat[math.inf] = maxes[:, window].max(axis=1)
        # Step 0 is x0, not the loop's response. With no baseline steps before
        # the tail window, the later half of [start, horizon) faces the earlier.
        start = max(cfg.burn_in, 1)
        split = horizon - tail if horizon - tail > start else (start + horizon) // 2
        base, late = mean_sq[start:split], mean_sq[split:]
        # An empty or all-zero baseline has nothing to grow from. Entries over
        # late's largest keep either average from overflowing.
        grew = base.any() and np.mean(late / late.max()) > _GROWTH * np.mean(base / late.max())
        stable = diverged == 0 and bool(np.isfinite(mean_sq).all()) and not grew

    return SimulationResult(
        config=cfg,
        error_norms={p: rows[0] for p, rows in norms.items()},
        output_norms={p: rows[1] for p, rows in norms.items()},
        error_tail={p: float(rows[0]) for p, rows in tail_stat.items()},
        output_tail={p: float(rows[1]) for p, rows in tail_stat.items()},
        mean_square_state=mean_sq,
        stable=bool(stable),
        diverged=diverged,
        alive_counts=counts,
        tail_abs_error=tails[0],
        tail_abs_output=tails[1],
    )


def _bootstrap_pass(tail_abs: np.ndarray, orders, seed_key, resamples: int):
    """Tail statistic of each bootstrap resample for every order, and the scale.

    One pass over the (tail, n) block, row by row, takes each trajectory's
    tail sum of (|x| / scale)^p for every finite order in ``orders`` and its
    tail peak, where scale is the block's largest magnitude (1.0 if that is
    0), so no power overflows or underflows for the scale of the data alone.
    Resample r then picks n of the n trajectories uniformly with
    replacement, ``rng.integers(0, n, n)``, and reads its statistics off
    those numbers: (sum of the picked sums / (tail n))^(1/p), the pooled
    norm, and the largest picked peak for p = inf. Returns a dict from each
    order to its (resamples,) statistics, in units of the scale. One set of
    picks serves every order, and each order's arithmetic is the same
    whatever other orders share the pass.
    """
    rng = np.random.default_rng(seed_key)
    tail, n = tail_abs.shape
    scale = float(tail_abs.max()) or 1.0
    totals = {p: np.zeros(n) for p in orders if not math.isinf(p)}
    if math.inf in orders:
        totals[math.inf] = np.zeros(n)
    base, work = np.empty(n), np.empty(n)
    for row in tail_abs:
        np.divide(row, scale, out=base)
        for p, total in totals.items():
            if math.isinf(p):
                np.maximum(total, base, out=total)
            else:
                total += _power(base, p, work)
    stats = {p: np.empty(resamples) for p in totals}
    for r in range(resamples):
        picks = rng.integers(0, n, n)
        for p, total in totals.items():
            picked = np.take(total, picks, out=work)
            stats[p][r] = picked.max() if math.isinf(p) else picked.sum()
    for p, values in stats.items():
        if not math.isinf(p):
            stats[p] = (values / (tail * n)) ** (1.0 / p)
    return stats, scale


def _bootstrap_stds(tail_abs: np.ndarray, orders, seed_key, resamples: int) -> dict:
    """Std of the tail statistic of every order under trajectory-level bootstrap."""
    stats, scale = _bootstrap_pass(tail_abs, orders, seed_key, resamples)
    # np.std squares the statistics, so they stay in units of the scale.
    return {p: float(np.std(values)) * scale for p, values in stats.items()}


def check_resamples(resamples: int) -> None:
    """Raise InvalidModelError unless 1 <= resamples and its statistics fit an array."""
    if resamples < 1:
        raise InvalidModelError(f"resamples must be >= 1, got {resamples}")
    if resamples * 8 > sys.maxsize:
        raise InvalidModelError(
            f"resamples {resamples} is too large: the (resamples,) statistics "
            f"of a norm order would exceed {sys.maxsize} bytes"
        )


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
    ratio is at least 1 minus three bootstrap standard errors. The bootstrap
    resamples whole trajectories with replacement, ``resamples`` draws of n
    picks each, deterministic in the simulation seed. One pass over the
    signal's tail block takes every trajectory's tail power sum per finite
    order and its tail peak, and each resample's pooled norm and maximum
    are read off those: the extra memory is a few arrays of one float per
    trajectory, never a copy of the tail block. One set of draws per signal
    and ``resamples`` serves every norm order of ``result.config.p_list``:
    the first call computes the std of each order in one pass and memoizes
    them on ``result``, and later calls look theirs up. Each order's margin
    is the one a pass of its own would give, bit for bit. The bootstrap
    works in units of the tail block's largest magnitude, so it is
    scale-free: scaling the magnitudes by a power of two scales the
    bootstrap std by exactly that factor. For p = inf the sample maximum is
    a one-sided underestimate of the essential supremum, so an extra
    ``sup_slack`` is allowed. Refuses to certify unstable results; raises
    InvalidModelError for resamples < 1 or too many to hold in one array.
    """
    if which not in ("error", "output"):
        raise ValueError(f"which must be 'error' or 'output', got {which!r}")
    check_resamples(resamples)
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
    stds = result._margins.get((which, resamples))
    if stds is None:
        block = result.tail_abs_error if which == "error" else result.tail_abs_output
        stds = _bootstrap_stds(
            block, result.config.p_list, (result.config.seed, _BOOTSTRAP_TAG), resamples
        )
        result._margins[(which, resamples)] = stds
    tail_norm = tails[p]
    ratio = tail_norm / report.bound_value
    margin = stds[p] / report.bound_value
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
