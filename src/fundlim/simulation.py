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
does not freeze Generator distribution streams (NEP 19). Chunks are
independent jobs: they run in forked worker processes, one per CPU of the
affinity mask, and their partial statistics are added in block order, so
the results do not depend on the number of workers.

Per-step empirical L_p norms are aggregated across trajectories, the limsup
is operationalized as the maximum of those norms over a tail window at the
end of the horizon, and certification compares that tail statistic against
a bound with a bootstrap margin.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import pickle
import traceback
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

# Trajectories per bootstrap slice. Fixed, like _CHUNK: the bootstrap draws,
# and so every margin, depend on it. A slice's temporaries take a few MB.
_BOOTSTRAP_SLICE = 512

# The p = inf bootstrap reads a resample's maximum off the first of a slice's
# this many largest peaks that it picked; a resample that picked none of
# them (probability about e**-8) takes the maximum over the whole slice.
_TOP_PEAKS = 8

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
    diverged. That array lives in an anonymous shared memory mapping, which
    the chunk workers write into; it is kept as it is, not copied back into
    private memory. ``stable`` is False when the mean-square state estimate
    ever exceeded the divergence threshold or any trajectory left float
    range (``diverged`` counts the latter). ``alive_counts`` (int64, length
    horizon) is how many trajectories were still finite at each step; it
    never increases, and its last entry is trajectories - diverged.
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


def _simulate_chunk(model, controller, dist, cfg, tails, span):
    """Simulate the trajectories ``span`` and return their partial statistics.

    Returns the chunk's ``_zero_stats`` arrays, filled with its per-step
    statistics, and how many of its trajectories diverged. The chunk writes
    its columns ``m_lo:m_hi`` of ``tails`` directly. It runs in a worker
    process or in the caller's, so it sets its own floating-point error
    state.
    """
    sums, maxes, counts, sum_sq_state = _zero_stats(cfg)
    m_lo, m_hi = span
    count_m = m_hi - m_lo
    horizon = cfg.horizon
    tail_start = horizon - cfg.tail_window
    A, B, C = model.A, model.B, model.C
    chunk = m_lo // _CHUNK

    with np.errstate(all="ignore"):
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
            # 0 = 0**p (p >= 1) to every sum and cannot exceed a live
            # magnitude in the max.
            mag = np.where(alive, np.abs(np.stack((e, y))), 0.0)
            live = int(alive.sum())
            counts[k] = live
            for p, total in sums.items():
                total[:, k] = (mag**p).sum(axis=1)
            if maxes is not None:
                maxes[:, k] = mag.max(axis=1)
            sum_sq_state[k] = np.where(alive, np.einsum("ij,ij->j", x, x), 0.0).sum()
            if k >= tail_start:
                tails[:, k - tail_start, m_lo:m_hi] = np.where(alive, mag, np.nan)
            x = A @ x + B * e
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
    when the host can fork; else, or with one worker, they run here.
    """
    workers = min(_cpus(), len(spans))
    if workers > 1:
        import multiprocessing

        # A daemonic process (a Pool worker, say) may not start children.
        if (
            "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon
        ):
            return _forked_map(multiprocessing.get_context("fork"), job, spans, workers)
    return map(job, spans)


def _serve(job, spans, conn):
    """Worker body: send the outcome of ``job`` on each span, in order.

    A failure is sent as the exception and its traceback text, and ends the
    worker. An exception that does not survive pickling goes as a
    RuntimeError that names its class and message.
    """
    try:
        for span in spans:
            conn.send((job(span), None))
    except Exception as exc:
        remote = "".join(traceback.format_exception(exc))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        conn.send((exc, remote))
    finally:
        conn.close()


def _forked_map(ctx, job, spans, workers):
    """``_map_chunks`` over forked workers: worker w runs spans w, w + workers, ...

    Forked workers inherit ``job`` with everything it holds, so nothing of it
    is pickled; only the results come back through pipes. A failed job is
    raised again here with its type and message, or, when its exception
    cannot be pickled, as a RuntimeError naming them; the worker's traceback
    is its cause. Every worker is stopped before this generator ends.
    """
    pipes, procs = [], []
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve, args=(job, spans[w::workers], send), daemon=True)
            proc.start()
            send.close()
            pipes.append(recv)
            procs.append(proc)
        for i in range(len(spans)):
            try:
                value, remote = pipes[i % workers].recv()
            except EOFError:
                proc = procs[i % workers]
                proc.join()
                raise RuntimeError(
                    f"chunk worker exited with code {proc.exitcode} before sending chunk {i}"
                ) from None
            if remote is not None:
                raise value from RuntimeError(f"in the chunk worker:\n{remote}")
            yield value
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in pipes:
            conn.close()


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

    Chunks run in worker processes, one per CPU in the affinity mask
    (``os.sched_getaffinity``; ``os.cpu_count()`` where that does not
    exist), capped at the number of chunks. Workers start only with the
    ``fork`` method; where it is missing, with one worker, or inside a
    daemonic process, the chunks run in this process instead. ``taskset -c
    0`` so forces a serial run. Forked workers run ``dist.sample`` and the
    controller's methods in child processes, so a side effect of that code
    does not reach the caller; each chunk already works on clones of the
    controller. A worker holds one chunk's disturbance block, 8192 x
    horizon x 8 bytes (26 MB at horizon 400); the caller holds none.

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
        alive_counts=counts,
        tail_abs_error=tails[0],
        tail_abs_output=tails[1],
    )


def _resample_counts(rng: np.random.Generator, n: int, resamples: int):
    """Yield each slice's first trajectory and its (resamples, size) pick counts.

    Resample r picks n of the n trajectories uniformly with replacement. One
    multinomial splits its picks across the slices, in proportion to their
    sizes; a slice's picks then land uniformly inside it. Row r of every
    slice so makes up one multinomial(n, 1/n) count vector, and no array
    grows with n but the (resamples, slices) split.
    """
    starts = np.arange(0, n, _BOOTSTRAP_SLICE)
    sizes = np.minimum(_BOOTSTRAP_SLICE, n - starts)
    totals = rng.multinomial(n, sizes / n, size=resamples)
    for lo, size, total in zip(starts.tolist(), sizes.tolist(), totals.T):
        picks = np.repeat(np.arange(resamples) * size, total)
        picks += rng.integers(0, size, picks.size)
        yield lo, np.bincount(picks, minlength=resamples * size).reshape(resamples, size)


def _resample_peaks(counts: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Each resample's largest picked peak, 0.0 if it picked none.

    Exactly ``np.where(counts > 0, peaks, 0.0).max(axis=1)`` for peaks >= 0:
    a resample's maximum is the first of the slice's largest peaks, taken in
    descending order, that it picked, and only the rare resample that picked
    none of them takes the maximum over the whole slice.
    """
    top = np.argsort(peaks)[: -_TOP_PEAKS - 1 : -1]
    picked = counts[:, top] > 0
    best = peaks[top][picked.argmax(axis=1)]
    missed = ~picked.any(axis=1)
    if missed.any():
        best[missed] = np.where(counts[missed] > 0, peaks, 0.0).max(axis=1)
    return best


def _bootstrap_pass(tail_abs: np.ndarray, orders, seed_key, resamples: int):
    """Tail statistic of each bootstrap resample for every order, and the scale.

    Returns a dict from each order in ``orders`` to its (resamples,)
    statistics, those of ``tail_abs / scale``, where scale is the block's
    largest magnitude (1.0 if that is 0), so no power overflows or
    underflows for the scale of the data alone. One set of count draws
    serves every order, and each order's arithmetic is the same whatever
    other orders share the pass.
    """
    rng = np.random.default_rng(seed_key)
    n = tail_abs.shape[1]
    scale = float(tail_abs.max()) or 1.0
    sums = {p: np.zeros((tail_abs.shape[0], resamples)) for p in orders if not math.isinf(p)}
    sup = np.zeros(resamples) if math.inf in orders else None
    for lo, counts in _resample_counts(rng, n, resamples):
        block = tail_abs[:, lo : lo + counts.shape[1]]
        if sup is not None:
            np.maximum(sup, _resample_peaks(counts, block.max(axis=0) / scale), out=sup)
        if sums:
            weights = counts.T.astype(float)
            for p, total in sums.items():
                powered = block / scale
                powered **= p
                total += powered @ weights
            # Freed before the next slice's counts are drawn. Freeing more
            # here (counts, powered) lowers the peak but makes the allocator
            # hand pages back and fault them in again, slice after slice.
            del weights
    stats = {p: (total.max(axis=0) / n) ** (1.0 / p) for p, total in sums.items()}
    if sup is not None:
        stats[math.inf] = sup
    return stats, scale


def _bootstrap_stds(tail_abs: np.ndarray, orders, seed_key, resamples: int) -> dict:
    """Std of the tail statistic of every order under trajectory-level bootstrap."""
    stats, scale = _bootstrap_pass(tail_abs, orders, seed_key, resamples)
    # np.std squares the statistics, so they stay in units of the scale.
    return {p: float(np.std(values)) * scale for p, values in stats.items()}


def _bootstrap_stats(tail_abs: np.ndarray, p: float, seed_key, resamples: int):
    """Tail statistic of each bootstrap resample at one order, and its scale."""
    stats, scale = _bootstrap_pass(tail_abs, (p,), seed_key, resamples)
    return stats[p], scale


def _bootstrap_std(tail_abs: np.ndarray, p: float, seed_key, resamples: int) -> float:
    """Std of the tail statistic at one order under trajectory-level bootstrap."""
    return _bootstrap_stds(tail_abs, (p,), seed_key, resamples)[p]


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
    is an exact multinomial resampling of trajectories, ``resamples`` draws
    deterministic in the simulation seed, drawn and summed one fixed slice
    of trajectories at a time, so it makes no copy of the tail array: its
    extra memory grows with the number of trajectories only through a
    (resamples, slices) table. One set of count draws per signal and
    ``resamples`` serves every norm order of ``result.config.p_list``: the
    first call computes the std of each order in one pass and memoizes them
    on ``result``, and later calls look theirs up. Each order's margin is
    the one a pass of its own would give, bit for bit. The bootstrap works
    in units of the tail block's largest magnitude, so it is scale-free:
    scaling the magnitudes by a power of two scales the bootstrap std by
    exactly that factor. For p = inf the sample maximum is a one-sided
    underestimate of the essential supremum, so an extra ``sup_slack`` is
    allowed. Refuses to certify unstable results; raises InvalidModelError
    for resamples < 1.
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
