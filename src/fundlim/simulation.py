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

Per-step empirical L_p norms are aggregated across trajectories from one
statistic per norm order: sums of |x|^p, or maxima for p = inf. The limsup
is operationalized over a tail window at the end of the horizon: for finite
p as the pooled norm of every magnitude in it, all steps and trajectories
together, and for p = inf as their largest magnitude. Both are read off
per-trajectory tail summaries in units of the largest magnitude, so they do
not overflow or underflow for the disturbance's units alone. Certification
compares that tail statistic against a bound with a margin from the closed
form of a bootstrap over trajectories: no resampling and no random draws.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
import sys
from collections import deque
from dataclasses import asdict, dataclass

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
    json_order,
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
_CHUNK = 4096

# The sample maximum underestimates an essential supremum, so sup-norm
# certification allows this much one-sided slack in the ratio.
SUP_NORM_SLACK = 1e-3

# Disturbance draws staged per transpose into the chunk's step-major block.
_STAGING = 64

# Chunks submitted to the worker pool ahead of the one being merged, per worker.
_AHEAD = 2

# Purposes of a chunk's random streams (the first word of their spawn key).
_DISTURBANCE = 0
_INITIAL_STATE = 1

# A loop whose tail mean-square state averages more than this many times its
# baseline's is growing, so unstable: a ratio free of the disturbance's units.
_GROWTH = 4.0


def _whole(name: str, value) -> int:
    """``value`` as an int: an integer, numpy's included, or a whole float.

    A bool, a fraction, a string or any other value raises InvalidModelError.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not whole:
        raise InvalidModelError(f"{name} must be a whole number, got {value!r}")
    return int(value)


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
        horizon = _whole("horizon", self.horizon)
        trajectories = _whole("trajectories", self.trajectories)
        if horizon < 1:
            raise InvalidModelError(f"horizon must be >= 1, got {horizon}")
        if trajectories < 1:
            raise InvalidModelError(f"trajectories must be >= 1, got {trajectories}")
        seed = _whole("seed", self.seed)
        if seed < 0:
            raise InvalidModelError(f"seed must be >= 0, got {seed}")
        p_list = tuple(sorted({check_order(p) for p in self.p_list}))
        if not p_list:
            raise InvalidNormOrderError("p_list must name at least one norm order")
        burn_in = horizon // 5 if self.burn_in is None else _whole("burn_in", self.burn_in)
        tail = max(1, horizon // 5) if self.tail_window is None else self.tail_window
        tail = _whole("tail_window", tail)
        if burn_in < 0 or tail < 1 or burn_in + tail > horizon:
            raise InvalidModelError(
                f"need burn_in >= 0, tail_window >= 1, burn_in + tail_window <= horizon; "
                f"got burn_in={burn_in}, tail_window={tail}, horizon={horizon}"
            )
        # No array can hold more than sys.maxsize bytes: reject such sizes
        # here instead of failing inside numpy. A chunk's largest arrays are
        # its disturbance block, tail rows included, and the block's staging.
        rows, cols = _block_rows(horizon, tail), min(_CHUNK, trajectories)
        if max(rows * cols, _STAGING * horizon) * 8 > sys.maxsize:
            raise InvalidModelError(
                f"horizon {horizon} is too large: a chunk's ({rows}, {cols}) disturbance "
                f"block or its staging of up to ({_STAGING}, {horizon}) would exceed "
                f"{sys.maxsize} bytes"
            )
        if 2 * (len(p_list) + 1) * trajectories * 8 > sys.maxsize:
            raise InvalidModelError(
                f"trajectories {trajectories} is too large: the per-trajectory "
                f"tail arrays would exceed {sys.maxsize} bytes"
            )
        if isinstance(self.x0_std, bool) or not isinstance(self.x0_std, numbers.Real):
            raise InvalidModelError(f"x0_std must be a number, got {self.x0_std!r}")
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
        """The fields, with ``"inf"`` for math.inf in ``p_list``."""
        return {
            name: [json_order(p) for p in value] if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }


@dataclass
class SimulationResult:
    """Aggregated closed-loop statistics.

    ``error_norms``/``output_norms`` map each norm order to the per-step
    empirical norm across trajectories (length horizon).
    ``tail_abs_error``/``tail_abs_output`` hold each signal's tail summaries,
    one column per trajectory: row i is its tail sum of (|x| / peak)^p for
    the i-th finite order of ``config.p_list``, the last row its tail peak,
    with magnitudes 0 from the step it diverged. ``error_tail`` and
    ``output_tail`` hold the tail statistic read off them: for p = inf the
    largest peak, and for finite p the pooled norm over the tail window,
    scale (sum of row_j (peak_j / scale)^p / (tail_window n))^(1/p) with
    scale the largest peak. It divides by tail_window x trajectories, not by
    the window's alive counts: a diverged trajectory adds zeros, so the two
    agree when ``diverged`` is 0, which ``stable`` and so ``verify_bound``
    require.
    ``stable`` is False when any trajectory left float range (``diverged``
    counts them), when the mean-square state did, or when the mean-square
    state over the tail window averages more than 4 times its average over
    the baseline steps [max(burn_in, 1), tail_start); with no baseline
    steps, the later half of [max(burn_in, 1), horizon) is held against the
    earlier half. ``alive_counts`` (int64, length horizon) is
    how many trajectories were still finite at each step; it never
    increases, and its last entry is trajectories - diverged.
    Every field is the same whatever the number of worker processes.
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

    @property
    def tail_start(self) -> int:
        return self.config.horizon - self.config.tail_window


def empirical_lp(samples, p: float) -> float:
    """Empirical L_p norm: (mean |x|^p)^(1/p), or max |x| for p = inf.

    Taken as m (mean (|x|/m)^p)^(1/p), with m the largest magnitude, so no
    power overflows or underflows for the scale of the samples alone. A
    sample with an infinite entry has norm inf at every p; a NaN entry
    raises InvalidModelError.
    """
    p = check_order(p)
    magnitudes = np.abs(np.asarray(samples, dtype=float).ravel())
    if magnitudes.size == 0:
        raise InvalidModelError("empirical norm needs at least one sample")
    peak = float(magnitudes.max())
    if math.isnan(peak):
        raise InvalidModelError("empirical norm of a sample with a NaN entry")
    if math.isinf(p) or peak == 0.0 or math.isinf(peak):
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

    A dict from each order of ``cfg.p_list`` to its (2, horizon) statistic,
    the sums of |x|^p for finite p and the maxima for p = inf; then the
    alive counts and the sum of the squared state norms.
    """
    horizon = cfg.horizon
    # Every statistic keeps the error in row 0 and the output in row 1.
    stats = {p: np.zeros((2, horizon)) for p in cfg.p_list}
    return stats, np.zeros(horizon, dtype=np.int64), np.zeros(horizon)


def _output_tail_row(horizon: int, tail: int) -> int:
    """First row of a chunk's block that holds the tail's |y|; |e| starts at row 0.

    Tail step j = k - (horizon - tail) writes rows j and this + j once step
    k has read its disturbance row k: with 2 tail <= horizon both are rows
    already read, and a longer tail keeps |y| in rows appended past the
    horizon.
    """
    return tail if 2 * tail <= horizon else horizon


def _block_rows(horizon: int, tail: int) -> int:
    """Rows of a chunk's disturbance block: the horizon and any appended tail rows."""
    return max(horizon, _output_tail_row(horizon, tail) + tail)


def _disturbance_block(dist, rng, horizon: int, count: int, tail: int) -> np.ndarray:
    """The chunk's (_block_rows, count) block: column j starts with trajectory j's draw.

    Trajectories draw in order into a (_STAGING, horizon) block that is
    transposed into place once full, so step k reads the contiguous row k.
    A model with ``sample_rows`` fills every staging block in one call, all
    _STAGING rows even when fewer trajectories remain, so a shorter run
    still draws a prefix of a longer one's rows. Any other model is called
    as ``dist.sample(rng, horizon)`` once per trajectory. Rows appended
    past the horizon, for a tail window longer than half of it, are unset.
    """
    d = np.empty((_block_rows(horizon, tail), count))
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
        d[:horizon, lo : lo + len(rows)] = rows.T
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


def _add_power_sums(stats, mag, powered, k):
    """Fill column k of each order's statistic: mag's row maxima for inf, else power sums.

    With p = 2 and 4 both present, p = 4 squares p = 2's squares: the same
    two squares that ``_power`` takes.
    """
    square_twice = 2.0 in stats and 4.0 in stats
    for p, stat in stats.items():
        if math.isinf(p):
            stat[:, k] = mag.max(axis=1)
        elif p != 4.0 or not square_twice:
            stat[:, k] = _power(mag, p, powered).sum(axis=1)
            if p == 2.0 and square_twice:
                stats[4.0][:, k] = np.square(powered, out=powered).sum(axis=1)


def _tail_summary(block: np.ndarray, orders) -> np.ndarray:
    """The (finite orders + 1, count) summary of a (tail, count) magnitude block.

    Per trajectory: the tail sum of ``_power(|x| / peak, p)`` for each finite
    p of ``orders`` (sorted, inf last), then peak, its largest magnitude; a
    zero peak divides by 1.0.
    """
    peak = block.max(axis=0)
    divisor = np.where(peak > 0.0, peak, 1.0)
    summary = np.zeros((sum(not math.isinf(p) for p in orders) + 1, block.shape[1]))
    base, powered = np.empty_like(peak), np.empty_like(peak)
    for row in block:
        np.divide(row, divisor, out=base)
        for total, p in zip(summary[:-1], orders):
            total += _power(base, p, powered)
    summary[-1] = peak
    return summary


def _simulate_chunk(model, controller, dist, cfg, span):
    """Simulate the trajectories ``span`` and return their partial statistics.

    Returns the chunk's ``_zero_stats``, filled with its per-step
    statistics, and the stacked ``_tail_summary`` of its error and output.
    It runs in a worker or in the caller's process, so it sets its own
    floating-point error state.

    Every work array of the step loop is allocated once per chunk: the
    disturbance block (step-major, so step k reads the contiguous row k),
    the state and its successor, which swap each step, and the magnitude,
    power and mask buffers, which each step writes in place. A tail step
    keeps its |e| and |y| in rows of the block that the loop has already
    read (``_output_tail_row``), so the block, 4096 x horizon x 8 bytes
    (13 MB at horizon 400), is the chunk's only large array. Only the
    measurement ``y`` is a fresh array each step, since the control law may
    keep it. Steps skip the liveness masks until the first step whose
    first-order sums or state-square total is not finite; that step and
    every later one take the masked path, with the same floats.
    """
    stats, counts, sum_sq_state = _zero_stats(cfg)
    m_lo, m_hi = span
    count_m = m_hi - m_lo
    horizon, tail = cfg.horizon, cfg.tail_window
    tail_start = horizon - tail
    output_row = _output_tail_row(horizon, tail)
    A, B, C = model.A, model.B, model.C
    chunk = m_lo // _CHUNK

    with np.errstate(all="ignore"):
        d = _disturbance_block(
            dist, _chunk_stream(cfg.seed, _DISTURBANCE, chunk), horizon, count_m, tail
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
        first = stats[cfg.p_list[0]]
        masked = False
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
            np.abs(e, out=mag[0])
            np.abs(y, out=mag[1])
            np.einsum("ij,ij->j", x, x, out=xsq)
            if not masked:
                # Until a trajectory dies, a step needs no liveness masks. A
                # sum of non-negative terms is finite only when every term
                # is, so finite first-order sums and state-square total mean
                # that e, y and x are; else (a NaN, an inf or an overflowing
                # sum) the step is redone below, as is every later step.
                _add_power_sums(stats, mag, powered, k)
                sum_sq_state[k] = xsq.sum()
                counts[k] = count_m
                masked = not (
                    math.isfinite(first[0, k])
                    and math.isfinite(first[1, k])
                    and math.isfinite(sum_sq_state[k])
                )
            if masked:
                np.isfinite(e, out=finite)
                alive &= finite
                np.isfinite(y, out=finite)
                alive &= finite
                np.isfinite(x, out=x_finite)
                np.logical_and.reduce(x_finite, axis=0, out=finite)
                alive &= finite
                np.logical_not(alive, out=dead)
                # Dead entries read 0, which adds 0 = 0**p (p >= 1) to every
                # sum and cannot exceed a live magnitude in the max.
                np.copyto(mag, 0.0, where=dead)
                np.copyto(xsq, 0.0, where=dead)
                counts[k] = np.count_nonzero(alive)
                _add_power_sums(stats, mag, powered, k)
                sum_sq_state[k] = xsq.sum()
            if k >= tail_start:
                d[k - tail_start] = mag[0]
                d[output_row + k - tail_start] = mag[1]
            np.matmul(A, x, out=x_next)
            np.multiply(B, e, out=be)
            np.add(x_next, be, out=x_next)
            x, x_next = x_next, x
        tails = (d[:tail], d[output_row : output_row + tail])
        summary = np.stack([_tail_summary(block, cfg.p_list) for block in tails])
        return stats, counts, sum_sq_state, summary


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
    and results are pickled. At most ``_AHEAD`` x workers jobs are submitted
    ahead of the one being yielded, so finished results do not pile up in
    the caller.
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
                pending = deque()
                for span in spans:
                    pending.append(pool.submit(_run_job, span))
                    if len(pending) > _AHEAD * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
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
    cancelled, and a chunk already running finishes before this returns.
    A worker holds one chunk's disturbance block, 4096 x horizon x 8 bytes
    (13 MB at horizon 400), stored step-major, a 64 x horizon staging
    block, and the chunk's small step-loop work buffers, allocated once per
    chunk. The block also keeps the chunk's tail magnitudes, in rows the
    loop has already read; a tail window longer than half the horizon adds
    4096 x tail_window x 8 bytes of rows past it. Chunks that run in this
    process hold their blocks here, one at a time. At most two chunks per
    worker are submitted ahead of the one being merged. The caller holds the
    chunks' per-step statistics, one per norm order, which it merges in
    block order (sums added, the maxima of p = inf taken), and one array of
    tail summaries that each chunk's columns are copied into, so results
    are bit-identical for a given config and numpy version, whatever the
    number of workers. A batch controller's ``step_batch`` receives a fresh
    ``y`` each step, which it may keep. Raises UnstableLoopError when every
    trajectory has left float range by the final step.
    """
    horizon, tail, n = cfg.horizon, cfg.tail_window, cfg.trajectories
    stats, counts, sum_sq_state = _zero_stats(cfg)
    spans = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    job = functools.partial(_simulate_chunk, model, controller, dist, cfg)

    # Each chunk's ``_tail_summary`` rows land in their columns as it arrives.
    summaries = np.empty((2, len(stats) + (math.inf not in stats), n))
    with np.errstate(all="ignore"):
        for (lo, hi), part in zip(spans, _map_chunks(job, spans)):
            part_stats, part_counts, part_sq, summaries[:, :, lo:hi] = part
            for p, stat in stats.items():
                (np.maximum if math.isinf(p) else np.add)(stat, part_stats[p], out=stat)
            counts += part_counts
            sum_sq_state += part_sq

        # A trajectory never revives, so counts only fall along the horizon:
        # a live final step means every step has live trajectories, and the
        # trajectories not alive at the end are those that diverged.
        diverged = n - int(counts[-1])
        if counts[-1] == 0:
            raise UnstableLoopError(
                "every trajectory diverged before the end of the horizon"
            )
        mean_sq = sum_sq_state / counts
        norms = {p: stat if math.isinf(p) else (stat / counts) ** (1.0 / p)
                 for p, stat in stats.items()}
        moments = [_tail_moments(summary, cfg.p_list, tail) for summary in summaries]
        tails = [{p: stat for p, (stat, _) in signal.items()} for signal in moments]
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
        error_tail=tails[0],
        output_tail=tails[1],
        mean_square_state=mean_sq,
        stable=bool(stable),
        diverged=diverged,
        alive_counts=counts,
        tail_abs_error=summaries[0],
        tail_abs_output=summaries[1],
    )


def _tail_moments(summary: np.ndarray, orders, tail: int):
    """Each order's tail statistic and its closed-form std.

    ``summary`` is a signal's ``_tail_summary`` for ``orders`` over ``tail``
    steps of n trajectories. Returns a dict from each order to (statistic,
    std) in the signal's units: both are taken in units of the scale, its
    largest peak (1.0 if that is 0), and multiplied by it last. The std is
    the limit, as the number of resamples grows, of the std of a bootstrap
    that picks n of the n trajectories with replacement (Efron & Tibshirani
    1993, "An Introduction to the Bootstrap").

    For finite p, trajectory j's total T_j = row_j (peak_j / scale)^p is its
    tail sum of (|x| / scale)^p, and the statistic is m^(1/p), m =
    mean(T) / tail. A resample's mean of T has variance var(T) / n (the
    population variance), and the delta method turns that into the std
    (1/p) m^(1/p - 1) sqrt(var(T) / n) / tail. For p = inf the statistic
    is the largest peak, and a resample's maximum is the k-th largest peak
    v_k with probability (1 - (k-1)/n)^n - (1 - k/n)^n; the std is that
    law's over the top min(64, n) peaks, which carry all but e^-64 of it.
    """
    n = summary.shape[1]
    scale = float(summary[-1].max()) or 1.0
    rel, work = summary[-1] / scale, np.empty(n)
    moments = {}
    for p, row in zip(orders, summary[:-1]):
        total = row * _power(rel, p, work)
        mean = float(total.mean())
        stat = (mean / tail) ** (1.0 / p)
        # stat / (p mean) is (1/p) m^(1/p - 1) / tail, defined at m = 0 too.
        spread = math.sqrt(float(total.var()) / n) / (p * mean) if mean > 0.0 else 0.0
        moments[p] = (stat, stat * spread)
    if math.inf in orders:
        k = min(64, n)
        top = np.sort(np.partition(rel, n - k)[n - k :])[::-1]
        edges = (1.0 - np.arange(len(top) + 1) / n) ** n
        weights = edges[:-1] - edges[1:]
        mean = float(weights @ top)
        moments[math.inf] = (float(top[0]), math.sqrt(float(weights @ (top - mean) ** 2)))
    return {p: (stat * scale, std * scale) for p, (stat, std) in moments.items()}


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
            "p": json_order(self.p),
            "which": self.which,
            "theorem": self.theorem_tag,
            "bound": float(self.bound_value),
            "tail_norm": float(self.tail_norm),
            "ratio": float(self.ratio),
            "margin_stderr": float(self.margin_stderr),
            "satisfied": bool(self.satisfied),
        }


def verify_bound(
    result: SimulationResult, report: BoundReport, which: str = "error"
) -> Certification:
    """Check a simulated loop against a lower bound.

    The ratio is tail norm / bound; the bound counts as satisfied when the
    ratio is at least 1 minus three standard errors. The standard error is
    the closed-form limit of a bootstrap that resamples whole trajectories
    with replacement (``_tail_moments``): for finite p the exact bootstrap
    variance of the trajectories' mean tail total and the delta method, and
    for p = inf the law of a resample's maximum over the largest peaks. It
    is read off the signal's tail summaries (see ``SimulationResult``) with
    no random draws, so it is deterministic and its extra memory is a few
    arrays of one float per trajectory. It works in units of the largest
    tail magnitude, so it is scale-free: scaling the magnitudes by a power
    of two scales the std by exactly that factor. For p = inf the sample
    maximum is a one-sided underestimate of the essential supremum, so an
    extra ``SUP_NORM_SLACK`` is allowed. Refuses to certify unstable results.
    """
    if which not in ("error", "output"):
        raise ValueError(f"which must be 'error' or 'output', got {which!r}")
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
    cfg = result.config
    summary = result.tail_abs_error if which == "error" else result.tail_abs_output
    tail_norm = tails[p]
    ratio = tail_norm / report.bound_value
    std = _tail_moments(summary, cfg.p_list, cfg.tail_window)[p][1]
    margin = std / report.bound_value
    slack = 3.0 * margin
    if math.isinf(p):
        slack = max(slack, SUP_NORM_SLACK)
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
