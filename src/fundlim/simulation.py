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

Per-step empirical L_p norms are aggregated across trajectories: per step,
a sum of |x|^p per finite order, then the peak |x|, which gives the norm
for p = inf. The limsup is operationalized over a tail window at the end of
the horizon: for finite p as the pooled norm of every magnitude in it, all
steps and trajectories together, and for p = inf as their largest
magnitude. Each chunk reduces its tail window to a few moments in units of
its largest magnitude, and the caller merges them in block order, so they
do not overflow or underflow for the disturbance's units alone and the
caller keeps nothing per trajectory. Certification compares that tail
statistic against a bound with a margin from the closed form of a
bootstrap over trajectories: no resampling and no random draws.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import sys
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import BoundReport
from .controllers import CausalController, _has_batch_interface
from .disturbance import DisturbanceModel
from .errors import (
    CertificationRefusedError,
    InvalidModelError,
    InvalidNormOrderError,
    UnstableLoopError,
    check_number,
    check_order,
    check_whole,
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

# Largest tail peaks kept per signal for the p = inf margin: a resample's
# maximum falls below the 64th largest with probability at most e^-64.
_TOP = 64

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
    leave the tail window inside the horizon. ``p_list`` is a list, tuple or
    array of orders, each a number or the ``"inf"`` that ``to_dict`` writes,
    not text such as ``"1,inf"``; it is normalized to a sorted tuple with
    math.inf last.
    """

    horizon: int
    trajectories: int
    seed: int = 0
    p_list: tuple = (2.0,)
    burn_in: int | None = None
    tail_window: int | None = None
    x0_std: float = 0.0

    def __post_init__(self) -> None:
        horizon = check_whole("horizon", self.horizon, least=1)
        trajectories = check_whole("trajectories", self.trajectories, least=1)
        seed = check_whole("seed", self.seed, least=0)
        if isinstance(self.p_list, (str, bytes)) or not np.iterable(self.p_list):
            raise InvalidNormOrderError(f"p_list must list norm orders, got {self.p_list!r}")
        p_list = tuple(sorted({check_order(p, "norm order in p_list") for p in self.p_list}))
        if not p_list:
            raise InvalidNormOrderError("p_list must name at least one norm order")
        burn_in = horizon // 5 if self.burn_in is None else check_whole("burn_in", self.burn_in)
        tail = max(1, horizon // 5) if self.tail_window is None else self.tail_window
        tail = check_whole("tail_window", tail)
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
        if trajectories > np.iinfo(np.int64).max:
            raise InvalidModelError(f"trajectories {trajectories} is too large to count in int64")
        try:
            x0_std = check_number("x0_std", self.x0_std, 0.0)
        except TypeError as exc:
            raise InvalidModelError(str(exc)) from None
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


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated closed-loop statistics.

    ``error_norms``/``output_norms`` map each norm order to the per-step
    empirical norm across trajectories (length horizon).
    ``tail_abs_error``/``tail_abs_output`` hold each signal's tail moments,
    merged over every chunk in block order (``_tail_moments`` and
    ``_merge_tail_moments``): per finite order of ``config.p_list`` the mean
    and the M2 of the trajectories' tail totals of (|x| / scale)^p, with
    scale the signal's largest tail magnitude, then its ``_TOP`` largest
    trajectory peaks in ascending order, with magnitudes 0 from the step a
    trajectory diverged. Their size depends on neither the number of trajectories nor
    the tail window. ``error_tail`` and ``output_tail`` map each order to
    the tail statistic read off them when the result is built, beside its
    closed-form std (``_tail_statistics``): for p = inf the largest peak,
    and for finite p the pooled norm over the tail window, scale (mean /
    tail_window)^(1/p). It divides by tail_window x trajectories, not by the
    window's alive counts: a diverged trajectory adds zeros, so the two
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
    Every field is the same whatever the number of worker processes, and
    none can be reassigned, so the statistics stay those of the moments.
    """

    config: SimulationConfig
    error_norms: dict
    output_norms: dict
    mean_square_state: np.ndarray
    stable: bool
    diverged: int
    alive_counts: np.ndarray
    tail_abs_error: np.ndarray
    tail_abs_output: np.ndarray
    # ``_tail_statistics`` per signal, "error" or "output".
    _tails: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for which, moments in (("error", self.tail_abs_error), ("output", self.tail_abs_output)):
            self._tails[which] = _tail_statistics(moments, self.config)

    @property
    def tail_start(self) -> int:
        return self.config.horizon - self.config.tail_window

    @property
    def error_tail(self) -> dict:
        return {p: stat for p, (stat, _) in self._tails["error"].items()}

    @property
    def output_tail(self) -> dict:
        return {p: stat for p, (stat, _) in self._tails["output"].items()}


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

    A (2, finite orders + 1, horizon) array, the error's and then the
    output's: per step, the sum of |x|^p for each finite order of
    ``cfg.p_list``, then the peak |x|, even without p = inf in the run. Then
    the alive counts and the sum of the squared state norms.
    """
    horizon, rows = cfg.horizon, sum(not math.isinf(p) for p in cfg.p_list) + 1
    return np.zeros((2, rows, horizon)), np.zeros(horizon, dtype=np.int64), np.zeros(horizon)


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


def _add_power_sums(stats, orders, mag, powered, k):
    """Fill column k of the sum rows of ``stats`` (see ``_zero_stats``) from ``mag``.

    ``mag`` is (2, count). Row i takes the sums of ``_power(mag, p)`` for
    the i-th finite p of ``orders`` (sorted, inf last); the peak row is the
    caller's. A p = 4 just after p = 2 squares its squares, as ``_power``
    squares twice.
    """
    before = None
    for row, p in enumerate(orders[: stats.shape[1] - 1]):
        if (before, p) == (2.0, 4.0):
            stats[:, row, k] = np.square(powered, out=powered).sum(axis=1)
        else:
            stats[:, row, k] = _power(mag, p, powered).sum(axis=1)
        before = p


def _tail_moments(block: np.ndarray, orders) -> np.ndarray:
    """The 2 f + ``_TOP`` moments of a (tail, count) magnitude block.

    With scale the block's largest magnitude (1.0 if 0) and T_j the sum of
    ``_power(|x| / scale, p)`` down column j, they are the mean of T for
    each of the f finite p of ``orders`` (sorted, inf last), then the M2 of
    T, the sum of (T_j - mean)^2, for each, then the ``_TOP`` largest
    column peaks, padded with zeros, in ascending order. The powers are
    summed row by row, so the block's columns need no buffer of their own.
    """
    peaks = block.max(axis=0)
    scale = float(peaks.max()) or 1.0
    totals = np.zeros((sum(not math.isinf(p) for p in orders), block.shape[1]))
    base, powered = np.empty_like(peaks), np.empty_like(peaks)
    for row in block:
        np.divide(row, scale, out=base)
        for total, p in zip(totals, orders):
            total += _power(base, p, powered)
    means = totals.mean(axis=1)
    m2 = np.square(totals - means[:, None]).sum(axis=1)
    return np.concatenate((means, m2, np.sort(np.append(peaks, np.zeros(_TOP)))[-_TOP:]))


def _simulate_chunk(model, controller, dist, cfg, m_lo):
    """Simulate the chunk of trajectories from ``m_lo`` and return its partial statistics.

    The chunk is the next ``_CHUNK`` trajectories, or as many as remain.
    Returns the chunk's ``_zero_stats``, filled with its per-step
    statistics, and the stacked ``_tail_moments`` of its error and output,
    a (2, 2 f + ``_TOP``) array whatever its size and tail window. It runs
    in a worker or in the caller's process, so it sets its own
    floating-point error state.

    Every work array of the step loop is allocated once per chunk: the
    disturbance block (step-major, so step k reads the contiguous row k),
    the state and its successor, which swap each step, and the magnitude,
    power and mask buffers, which each step writes in place. A tail step
    keeps its |e| and |y| in rows of the block that the loop has already
    read (``_output_tail_row``), so the block, 4096 x horizon x 8 bytes
    (13 MB at horizon 400), is the chunk's only large array. Only the
    measurement ``y`` is a fresh array each step, since the control law may
    keep it; the controller's step, batch or one call per trajectory, is
    picked once per chunk.

    Each step is one pass. It takes its |e| and |y| peaks and its
    state-square total first. They are finite only when every entry of e, y
    and x is, so while every trajectory lives and all three are finite the
    step skips the liveness masks. Otherwise it masks the dead entries and
    takes the peaks and the total again; from a death on, every step of the
    chunk is masked. Then it adds its power sums, once. The floats are
    those of a loop that masks every step.
    """
    stats, counts, sum_sq_state = _zero_stats(cfg)
    count_m = min(_CHUNK, cfg.trajectories - m_lo)
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
            step = law.step_batch
        else:
            # One instance per trajectory, and its bound step fetched once.
            laws = [law] + [controller.clone() for _ in range(count_m - 1)]
            for each in laws:
                each.reset()
            steps = [each.step for each in laws]

            def step(y):
                return np.fromiter(
                    [call(v) for call, v in zip(steps, y.tolist())], dtype=float, count=count_m
                )

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
        peaks = stats[:, -1]
        counts.fill(count_m)
        died = False
        for k in range(horizon):
            y = (C @ x).ravel()
            np.add(np.asarray(step(y), dtype=float), d[k], out=e)
            np.abs(e, out=mag[0])
            np.abs(y, out=mag[1])
            np.einsum("ij,ij->j", x, x, out=xsq)
            mag.max(axis=1, out=peaks[:, k])
            sum_sq_state[k] = xsq.sum()
            if died or not all(map(math.isfinite, (peaks[0, k], peaks[1, k], sum_sq_state[k]))):
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
                mag.max(axis=1, out=peaks[:, k])
                sum_sq_state[k] = xsq.sum()
                counts[k] = np.count_nonzero(alive)
                died = counts[k] < count_m
            _add_power_sums(stats, cfg.p_list, mag, powered, k)
            if k >= tail_start:
                d[k - tail_start] = mag[0]
                d[output_row + k - tail_start] = mag[1]
            np.matmul(A, x, out=x_next)
            np.multiply(B, e, out=be)
            np.add(x_next, be, out=x_next)
            x, x_next = x_next, x
        tails = (d[:tail], d[output_row : output_row + tail])
        return stats, counts, sum_sq_state, np.stack([_tail_moments(b, cfg.p_list) for b in tails])


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_chunks(job, starts):
    """Yield ``job(start)`` for every chunk start, in order.

    ``starts`` has a length and is read lazily: ``run_closed_loop`` passes
    a ``range``, so no list of chunks is built. One worker process per CPU,
    capped at the number of chunks, runs the jobs in a
    ``ProcessPoolExecutor`` when the host can fork; else, or with one
    worker, they run here. Workers get ``job`` through the pool's
    initializer, which ``fork`` passes on without pickling it; only chunk
    starts and results are pickled. At most ``_AHEAD`` x workers jobs are
    submitted ahead of the one being yielded, so finished results do not
    pile up in the caller.

    Before it forks, the caller imports ``numpy.random``, which numpy loads
    only on first use and whose start-up loads OpenSSL's libcrypto
    (``secrets``, ``hmac``): each worker inherits the loaded module instead
    of running that start-up at its first chunk. It is not imported with
    the package, as that would cost every fresh process 13-20 ms, those
    that never draw included. Measured as ``VmHWM`` on 2 CPUs, a worker's
    peak fell from 46.4 to 41.3 MB on the ``scalar_controller`` benchmark
    inputs and from 49.9 to 44.8 MB on ``cli_nmp_output``, and the caller,
    now the larger, rose from 37.2 to 41.9 MB and from 41.7 to 46.1 MB.

    Each worker sets the OpenBLAS it has loaded, if any, to one thread
    (``_one_blas_thread``) before its first chunk, through the library the
    caller looked up before it forked (``_openblas``); the caller's BLAS
    keeps its own setting. A chunk's ``A @ x``, n x n times n x 4096, passes
    OpenBLAS's threading threshold from a plant of order 16 or so, and then
    every worker's BLAS threads compete with the other workers for the same
    CPUs, where idle ones spin. On 2 CPUs, a random stable plant of order 32
    at 16 384 x 200 took 0.76-6.2 s pooled with the default threads against
    0.42-0.59 s on one CPU, and 0.29-0.36 s pooled with one thread per
    worker; the floats do not change.
    """
    workers = min(_cpus(), len(starts))
    if workers > 1:
        import multiprocessing

        # A daemonic process (a Pool worker, say) may not start children.
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            from concurrent.futures import ProcessPoolExecutor

            # Loaded once here, not once per worker (see above).
            import numpy.random  # noqa: F401

            _openblas()

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_install_job,
                initargs=(job,),
            )
            try:
                pending = deque()
                for start in starts:
                    pending.append(pool.submit(_run_job, start))
                    if len(pending) > _AHEAD * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                pool.shutdown(cancel_futures=True)
            return
    yield from map(job, starts)


def _install_job(job):
    """Pool initializer: the job that ``_run_job`` runs in this worker, on one BLAS thread.

    It runs only in a worker process, which serves one pool, so the global
    is never shared between two runs.
    """
    global _worker_job
    _worker_job = job
    _one_blas_thread()


@functools.cache
def _openblas():
    """The loaded OpenBLAS's thread-count setter and pool shutdown, or None without one.

    The library is found in ``/proc/self/maps``, and its setter is the
    first it exports of scipy-openblas's 64-bit one, plain OpenBLAS's
    64-bit one and its 32-bit one; the shutdown is None where it does not
    export ``blas_thread_shutdown_``. Cached per process: ``_map_chunks``
    looks it up before it forks, so no worker opens the library again,
    which raised a worker's peak by ~0.45 MB.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_set_num_threads64_",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads",
        ):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return setter, shutdown
    return None


def _one_blas_thread():
    """Set the loaded OpenBLAS, if any, to one thread (see ``_map_chunks``).

    OpenBLAS shuts its thread pool down before every fork, and in the
    forked process the setter first starts it again; its idle thread then
    spins for ~0.12 s of CPU time, more than a ``cli_nmp_output`` chunk
    takes. One thread needs no pool, so it is shut down again, and later
    calls run on the calling thread alone.
    """
    blas = _openblas()
    if blas is not None:
        setter, shutdown = blas
        setter(1)
        if shutdown is not None:
            shutdown()


def _run_job(start):
    """Run the worker's job on the chunk from ``start``.

    An exception that does not survive pickling is raised as a RuntimeError
    that names its class and message, with the original as its cause.
    """
    try:
        return _worker_job(start)
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
    chunk; the workers inherit a loaded ``numpy.random`` (see
    ``_map_chunks``). The block also keeps the chunk's tail magnitudes, in
    rows the loop has already read; a tail window longer than half the
    horizon adds 4096 x tail_window x 8 bytes of rows past it. Chunks that run in this
    process hold their blocks here, one at a time. At most two chunks per
    worker are submitted ahead of the one being merged. The caller holds
    the per-step statistics (a sum of |x|^p per finite order, then the peak
    |x|), which it merges in block order (the sums added, the larger peak
    taken), and each signal's tail moments, 2 f + 64 floats for f finite
    orders, which it merges in block order too (``_merge_tail_moments``).
    Nothing it keeps grows with the number of trajectories, the chunks'
    starts included, and results are bit-identical for a given config and
    numpy version, whatever the number of workers. Finite-p tail
    statistics and margins so agree with a two-pass reduction over every
    trajectory to rounding. A batch controller's ``step_batch`` receives a fresh
    ``y`` each step, which it may keep. Raises UnstableLoopError when every
    trajectory has left float range by the final step.
    """
    horizon, tail, n = cfg.horizon, cfg.tail_window, cfg.trajectories
    stats, counts, sum_sq_state = _zero_stats(cfg)
    starts = range(0, n, _CHUNK)
    job = functools.partial(_simulate_chunk, model, controller, dist, cfg)

    tails = np.zeros((2, 2 * (stats.shape[1] - 1) + _TOP))
    sums, peaks = stats[:, :-1], stats[:, -1]
    with np.errstate(all="ignore"):
        for lo, part in zip(starts, _map_chunks(job, starts)):
            part_stats, part_counts, part_sq, part_tails = part
            sums += part_stats[:, :-1]
            np.maximum(peaks, part_stats[:, -1], out=peaks)
            counts += part_counts
            sum_sq_state += part_sq
            for run, chunk in zip(tails, part_tails):
                _merge_tail_moments(run, chunk, lo, min(_CHUNK, n - lo), cfg.p_list)

        # A trajectory never revives, so counts only fall along the horizon:
        # a live final step means every step has live trajectories, and the
        # trajectories not alive at the end are those that diverged.
        diverged = n - int(counts[-1])
        if counts[-1] == 0:
            raise UnstableLoopError(
                "every trajectory diverged before the end of the horizon"
            )
        mean_sq = sum_sq_state / counts
        norms = {p: (row / counts) ** (1.0 / p) for row, p in zip(sums.swapaxes(0, 1), cfg.p_list)}
        if math.inf in cfg.p_list:
            norms[math.inf] = peaks
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
        mean_square_state=mean_sq,
        stable=bool(stable),
        diverged=diverged,
        alive_counts=counts,
        tail_abs_error=tails[0],
        tail_abs_output=tails[1],
    )


def _merge_tail_moments(run, part, merged: int, count: int, orders) -> None:
    """Merge a chunk's ``_tail_moments`` into a run's, in place.

    ``run`` holds the moments of the first ``merged`` trajectories, in units
    of its largest peak, and ``part`` those of the next ``count``, in units
    of theirs. Both go to the larger of the two scales (1.0 if it is 0): a
    mean times (peak / scale)^p and an M2 times its square. Then the means
    and M2s merge by Chan, Golub & LeVeque's update (1983, "Algorithms for
    computing the sample variance"), and the peaks keep the ``_TOP`` largest
    of both, in ascending order. Merged from zeros and in block order, the
    moments do not depend on the number of workers.
    """
    f = (len(run) - _TOP) // 2
    peaks = run[-1], part[-1]
    to_run, to_part = np.divide(peaks, max(peaks) or 1.0)[:, None] ** orders[:f]
    mean_run, m2_run = run[: 2 * f].reshape(2, f) * [to_run, to_run * to_run]
    mean_part, m2_part = part[: 2 * f].reshape(2, f) * [to_part, to_part * to_part]
    delta = mean_part - mean_run
    total = merged + count
    run[:f] = mean_run + delta * (count / total)
    run[f : 2 * f] = m2_run + m2_part + delta * delta * (merged * count / total)
    run[2 * f :] = np.sort(np.append(run[2 * f :], part[2 * f :]))[-_TOP:]


def _tail_statistics(moments: np.ndarray, cfg) -> dict:
    """Each order's tail statistic and its closed-form std, from a signal's merged moments.

    ``moments`` is a signal's ``tail_abs_error`` or ``tail_abs_output``
    (see ``SimulationResult``) over the run's n trajectories. Returns a dict
    from each order of ``cfg.p_list`` to (statistic, std) in the signal's
    units: both are taken in units of the scale, its largest peak (1.0 if
    that is 0), and multiplied by it last. The std is the limit, as the
    number of resamples grows, of the std of a bootstrap that picks n of
    the n trajectories with replacement (Efron & Tibshirani 1993, "An
    Introduction to the Bootstrap").

    For finite p, trajectory j's total T_j is its tail sum of (|x| /
    scale)^p, and the statistic is m^(1/p), m = mean(T) / tail. A
    resample's mean of T has variance var(T) / n = M2 / n^2 (the population
    variance), and the delta method turns that into the std (1/p) m^(1/p -
    1) sqrt(var(T) / n) / tail. For p = inf the statistic is the largest
    peak, and a resample's maximum is the k-th largest peak v_k with
    probability (1 - (k-1)/n)^n - (1 - k/n)^n; the std is that law's over
    the top min(``_TOP``, n) peaks, which carry all but e^-64 of it.
    """
    n, tail = cfg.trajectories, cfg.tail_window
    f = (len(moments) - _TOP) // 2
    scale = float(moments[-1]) or 1.0
    stats = {}
    for p, mean, m2 in zip(cfg.p_list, moments[:f].tolist(), moments[f : 2 * f].tolist()):
        stat = (mean / tail) ** (1.0 / p)
        # stat / (p mean) is (1/p) m^(1/p - 1) / tail, defined at m = 0 too.
        spread = math.sqrt(m2 / n / n) / (p * mean) if mean > 0.0 else 0.0
        stats[p] = (stat, stat * spread)
    if math.inf in cfg.p_list:
        k = min(_TOP, n)
        # Largest first, as a reversed view: numpy's dot sums a negatively
        # strided operand in index order rather than through BLAS.
        top = (moments[-k:] / scale)[::-1]
        weights = -np.diff((1.0 - np.arange(k + 1) / n) ** n)
        mean = float(weights @ top)
        stats[math.inf] = (float(top[0]), math.sqrt(float(weights @ (top - mean) ** 2)))
    return {p: (stat * scale, std * scale) for p, (stat, std) in stats.items()}


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
    with replacement (``_tail_statistics``): for finite p the exact
    bootstrap variance of the trajectories' mean tail total and the delta
    method, and for p = inf the law of a resample's maximum over the
    largest peaks. The tail norm and its std are those the result was built
    with, from the signal's merged tail moments (see ``SimulationResult``):
    no random draws and no pass over trajectories, so it is deterministic
    and costs nothing that grows with their number. They are in units of
    the largest tail magnitude, so they are scale-free: scaling the
    magnitudes by a power of two scales the std by exactly that factor. For p = inf the sample
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
    if p not in result.config.p_list:
        raise InvalidNormOrderError(
            f"simulation did not record norms for p = {p}; extend p_list"
        )
    tail_norm, std = result._tails[which][p]
    ratio = tail_norm / report.bound_value
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
