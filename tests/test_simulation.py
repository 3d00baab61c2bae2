"""Closed-loop Monte Carlo engine: loop semantics, determinism, certification."""

import math
import multiprocessing
import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

import fundlim as fl
from fundlim import simulation
from fundlim.bounds import BoundReport
from fundlim.controllers import CausalController, StaticGain, ZeroController
from fundlim.simulation import _BOOTSTRAP_TAG, _DISTURBANCE, _INITIAL_STATE, _chunk_stream

# Scalar test plants have C B != 0; that analysis warning is covered in
# test_plant and is noise here.
pytestmark = pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")


def scalar_plant(a):
    return fl.StateSpaceModel([[a]], [1.0], [1.0])


def disturbance_matrix(dist, seed, trajectories, horizon):
    """Row m is trajectory m's draw: its chunk's generator, in trajectory order."""
    rows = []
    for m in range(trajectories):
        if m % simulation._CHUNK == 0:
            rng = _chunk_stream(seed, _DISTURBANCE, m // simulation._CHUNK)
        rows.append(dist.sample(rng, horizon))
    return np.stack(rows)


def initial_states(x0_std, seed, trajectories, n):
    """Row m is trajectory m's initial state, drawn as a block per chunk."""
    blocks = []
    for lo in range(0, trajectories, simulation._CHUNK):
        count = min(simulation._CHUNK, trajectories - lo)
        rng = _chunk_stream(seed, _INITIAL_STATE, lo // simulation._CHUNK)
        blocks.append(x0_std * rng.standard_normal((count, n)))
    return np.concatenate(blocks)


class TestEmpiricalLp:
    def test_frozen_examples(self):
        assert fl.empirical_lp([3.0, -4.0], 2.0) == pytest.approx(3.5355339059327378, abs=1e-15)
        assert fl.empirical_lp([3.0, -4.0], 1.0) == pytest.approx(3.5, abs=1e-15)
        assert fl.empirical_lp([3.0, -4.0], math.inf) == 4.0
        assert fl.empirical_lp([3.0, -4.0], 3.0) == pytest.approx(45.5 ** (1.0 / 3.0), rel=1e-14)

    def test_constant_signal_all_orders(self):
        for p in (1.0, 2.0, 7.0, math.inf):
            assert fl.empirical_lp(np.full(10, -2.5), p) == pytest.approx(2.5, rel=1e-14)

    def test_rejects_empty_and_bad_order(self):
        with pytest.raises(fl.InvalidModelError):
            fl.empirical_lp([], 2.0)
        with pytest.raises(fl.InvalidNormOrderError):
            fl.empirical_lp([1.0], 0.5)

    @pytest.mark.parametrize("value", [20.0, 1e-3])
    def test_high_order_of_a_constant(self, value):
        # Unscaled, 20**300 overflows and 1e-3**300 underflows to 0.
        assert fl.empirical_lp(np.full(10, value), 300.0) == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, 300.0])
    @pytest.mark.parametrize("c", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
    def test_scale_free(self, c, p):
        # A power-of-two scale is exact in every step, so equality is exact.
        x = np.random.default_rng(7).standard_cauchy(1000)
        assert fl.empirical_lp(x, p) > 0.0
        assert fl.empirical_lp(c * x, p) == c * fl.empirical_lp(x, p)

    def test_zero_signal(self):
        for p in (1.0, 300.0, math.inf):
            assert fl.empirical_lp(np.zeros(4), p) == 0.0


class TestSimulationConfig:
    def test_defaults(self):
        cfg = fl.SimulationConfig(horizon=200, trajectories=100)
        assert cfg.burn_in == 40
        assert cfg.tail_window == 40
        assert cfg.p_list == (2.0,)
        assert cfg.x0_std == 0.0

    def test_p_list_normalized(self):
        cfg = fl.SimulationConfig(
            horizon=10, trajectories=1, p_list=(math.inf, 2.0, 1.0, 2.0)
        )
        assert cfg.p_list == (1.0, 2.0, math.inf)
        assert cfg.to_dict()["p_list"] == [1.0, 2.0, "inf"]

    def test_tail_window_floor_of_one(self):
        cfg = fl.SimulationConfig(horizon=3, trajectories=1)
        assert cfg.tail_window == 1

    def test_validation(self):
        with pytest.raises(fl.InvalidModelError):
            fl.SimulationConfig(horizon=0, trajectories=1)
        with pytest.raises(fl.InvalidModelError):
            fl.SimulationConfig(horizon=10, trajectories=0)
        with pytest.raises(fl.InvalidModelError):
            fl.SimulationConfig(horizon=10, trajectories=1, burn_in=8, tail_window=5)
        with pytest.raises(fl.InvalidNormOrderError):
            fl.SimulationConfig(horizon=10, trajectories=1, p_list=(0.5,))
        with pytest.raises(fl.InvalidNormOrderError):
            fl.SimulationConfig(horizon=10, trajectories=1, p_list=())
        with pytest.raises(fl.InvalidModelError):
            fl.SimulationConfig(horizon=10, trajectories=1, divergence_threshold=0.0)
        with pytest.raises(fl.InvalidModelError):
            fl.SimulationConfig(horizon=10, trajectories=1, x0_std=-1.0)
        with pytest.raises(fl.InvalidModelError, match="seed"):
            fl.SimulationConfig(horizon=10, trajectories=1, seed=-1)


class TestLoopSemantics:
    def test_open_loop_error_equals_disturbance(self):
        dist = fl.GaussianIID(1.0)
        cfg = fl.SimulationConfig(horizon=11, trajectories=7, seed=5, p_list=(1.0, 2.0))
        result = fl.run_closed_loop(scalar_plant(0.5), ZeroController(), dist, cfg)
        d = disturbance_matrix(dist, 5, 7, 11)
        for p in (1.0, 2.0):
            expected = (np.abs(d) ** p).sum(axis=0) / 7.0
            np.testing.assert_array_equal(result.error_norms[p], expected ** (1.0 / p))

    def test_deadbeat_error_identity(self):
        # Plant x+ = 2x + e with gain 2 feedback drives x_k = d_{k-1}, so
        # e_0 = d_0 and e_k = d_k - 2 d_{k-1} afterwards, up to one rounding
        # per step (the loop evaluates 2d + (d' - 2d), not d' directly).
        dist = fl.GaussianIID(0.7)
        cfg = fl.SimulationConfig(
            horizon=12, trajectories=4, seed=9, burn_in=0, tail_window=12
        )
        result = fl.run_closed_loop(scalar_plant(2.0), StaticGain(2.0), dist, cfg)
        d = disturbance_matrix(dist, 9, 4, 12)
        expected = d.copy()
        expected[:, 1:] = (-2.0 * d[:, :-1]) + d[:, 1:]
        np.testing.assert_allclose(
            result.tail_abs_error, np.abs(expected).T, rtol=1e-12, atol=1e-14
        )

    def test_deadbeat_output_identity(self):
        dist = fl.GaussianIID(0.7)
        cfg = fl.SimulationConfig(
            horizon=12, trajectories=4, seed=9, burn_in=0, tail_window=12
        )
        result = fl.run_closed_loop(scalar_plant(2.0), StaticGain(2.0), dist, cfg)
        d = disturbance_matrix(dist, 9, 4, 12)
        expected_abs_y = np.zeros((12, 4))
        expected_abs_y[1:] = np.abs(d[:, :-1]).T  # y_k = x_k = d_{k-1}
        np.testing.assert_allclose(
            result.tail_abs_output, expected_abs_y, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(
            result.mean_square_state[1:], (d[:, :-1] ** 2).mean(axis=0), rtol=1e-12
        )

    def test_tail_statistic_is_window_max(self):
        cfg = fl.SimulationConfig(horizon=30, trajectories=16, seed=3, p_list=(2.0, math.inf))
        result = fl.run_closed_loop(
            scalar_plant(0.5), StaticGain(0.4), fl.GaussianIID(1.0), cfg
        )
        window = slice(result.tail_start, None)
        for p in (2.0, math.inf):
            assert result.error_tail[p] == np.max(result.error_norms[p][window])
            assert result.output_tail[p] == np.max(result.output_norms[p][window])
        assert result.tail_start == 24

    def test_random_initial_state(self):
        cfg = fl.SimulationConfig(horizon=5, trajectories=20000, seed=1, x0_std=0.5)
        result = fl.run_closed_loop(
            scalar_plant(0.5), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert result.mean_square_state[0] == pytest.approx(0.25, rel=0.05)
        # The error signal is untouched by the initial state in open loop.
        quiet = fl.run_closed_loop(
            scalar_plant(0.5),
            ZeroController(),
            fl.GaussianIID(1.0),
            fl.SimulationConfig(horizon=5, trajectories=20000, seed=1),
        )
        np.testing.assert_array_equal(result.error_norms[2.0], quiet.error_norms[2.0])
        assert result.mean_square_state[0] > quiet.mean_square_state[0]

    def test_stationary_variance_of_static_gain_loop(self):
        # Closed loop x+ = (a - c) x + d with e = d - c x gives stationary
        # error variance sigma^2 (c^2 / (1 - (a-c)^2) + 1).
        a, c, sigma = 2.0, 1.5, 1.0
        cfg = fl.SimulationConfig(horizon=220, trajectories=20000, seed=12)
        result = fl.run_closed_loop(
            scalar_plant(a), StaticGain(c), fl.GaussianIID(sigma), cfg
        )
        expected = sigma**2 * (c**2 / (1.0 - (a - c) ** 2) + 1.0)
        assert result.error_tail[2.0] ** 2 == pytest.approx(expected, rel=0.05)
        assert result.stable


class TestDeterminism:
    def test_repeat_run_is_bit_identical(self):
        cfg = fl.SimulationConfig(horizon=40, trajectories=300, seed=7, p_list=(2.0, math.inf))
        kwargs = (scalar_plant(0.9), StaticGain(0.3), fl.GaussianAR((0.5,), 1.0), cfg)
        a = fl.run_closed_loop(*kwargs)
        b = fl.run_closed_loop(*kwargs)
        for p in cfg.p_list:
            np.testing.assert_array_equal(a.error_norms[p], b.error_norms[p])
        np.testing.assert_array_equal(a.tail_abs_error, b.tail_abs_error)
        assert a.error_tail == b.error_tail


class TestDrawContract:
    def test_streams_are_distinct(self):
        seed = 5
        firsts = [
            _chunk_stream(seed, _DISTURBANCE, 0).random(),
            _chunk_stream(seed, _INITIAL_STATE, 0).random(),
            _chunk_stream(seed, _DISTURBANCE, 1).random(),
            np.random.default_rng(seed).random(),
            np.random.default_rng((seed, _BOOTSTRAP_TAG)).random(),
        ]
        assert len(set(firsts)) == len(firsts)
        # Why the chunk goes in the spawn key: SeedSequence pads its entropy
        # with zeros, so an entropy tuple (seed, 0) is the plain seed's stream.
        assert np.random.default_rng((seed, 0)).random() == firsts[3]

    def test_initial_states_come_from_their_own_stream(self, monkeypatch):
        # y_0 = C x_0 and, in open loop, e_k = d_k: both against the oracle
        # draws of their own streams, across three chunks of 64.
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        dist = fl.GaussianIID(1.0)
        cfg = fl.SimulationConfig(
            horizon=3, trajectories=150, seed=8, burn_in=0, tail_window=3, x0_std=0.7
        )
        result = fl.run_closed_loop(plant, ZeroController(), dist, cfg)

        x0 = initial_states(cfg.x0_std, cfg.seed, cfg.trajectories, 2)
        np.testing.assert_allclose(
            result.tail_abs_output[0], np.abs(x0 @ plant.C.ravel()), rtol=1e-14, atol=0.0
        )
        d = disturbance_matrix(dist, cfg.seed, cfg.trajectories, cfg.horizon)
        assert result.tail_abs_error.tobytes() == np.abs(d).T.tobytes()

    @pytest.mark.parametrize("x0_std", [0.0, 0.7])
    @pytest.mark.parametrize(
        "chunk, short, long", [(None, 100, 9000), (64, 280, 300)], ids=["two_chunks", "ragged"]
    )
    def test_draws_do_not_depend_on_trajectory_count(
        self, monkeypatch, chunk, short, long, x0_std
    ):
        # Chunks of 64 end 280 trajectories in a chunk of 24 and 300 in one
        # of 44: the shorter chunk must draw a prefix of the longer one's
        # disturbance rows and (count, n) initial-state block.
        if chunk is not None:
            monkeypatch.setattr("fundlim.simulation._CHUNK", chunk)
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        dist = fl.GeneralizedGaussianIID(4.0, 1.0)

        def run(trajectories):
            cfg = fl.SimulationConfig(
                horizon=8, trajectories=trajectories, seed=4, burn_in=0, tail_window=8,
                x0_std=x0_std,
            )
            return fl.run_closed_loop(plant, StaticGain(0.3), dist, cfg)

        few, many = run(short), run(long)
        assert few.tail_abs_error.tobytes() == many.tail_abs_error[:, :short].tobytes()
        assert few.tail_abs_output.tobytes() == many.tail_abs_output[:, :short].tobytes()
        # The output's first row is |C x_0|: zero unless initial states are drawn.
        assert (few.tail_abs_output[0] > 0.0).all() == (x0_std > 0.0)


class TestScaling:
    def test_closed_loop_scales_linearly(self):
        cfg = fl.SimulationConfig(horizon=50, trajectories=500, seed=6, p_list=(2.0, math.inf))
        base = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(1.0), cfg
        )
        scaled = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(1.0).scaled(1.7), cfg
        )
        for p in cfg.p_list:
            np.testing.assert_allclose(
                scaled.error_norms[p], 1.7 * base.error_norms[p], rtol=1e-12
            )

    def test_power_of_two_scaling_is_exact_prenorm(self):
        cfg = fl.SimulationConfig(horizon=30, trajectories=64, seed=8, burn_in=0, tail_window=30)
        base = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(1.0), cfg
        )
        scaled = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(2.0), cfg
        )
        np.testing.assert_array_equal(scaled.tail_abs_error, 2.0 * base.tail_abs_error)


class TestInstability:
    def test_divergence_threshold_flags_unstable(self):
        cfg = fl.SimulationConfig(horizon=100, trajectories=200, seed=2)
        result = fl.run_closed_loop(
            scalar_plant(2.0), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert not result.stable
        assert result.diverged == 0  # grew past the threshold but stayed finite
        assert result.mean_square_state[-1] > cfg.divergence_threshold
        assert np.isfinite(result.error_norms[2.0]).all()

    def test_float_overflow_raises(self):
        cfg = fl.SimulationConfig(horizon=700, trajectories=8, seed=2)
        with pytest.raises(fl.UnstableLoopError):
            fl.run_closed_loop(
                scalar_plant(4.0), ZeroController(), fl.GaussianIID(1.0), cfg
            )

    def test_unstable_result_refused_by_verifier(self):
        cfg = fl.SimulationConfig(horizon=100, trajectories=50, seed=2)
        result = fl.run_closed_loop(
            scalar_plant(2.0), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        report = fl.error_bound_generic(2.0, fl.entropy_summary(fl.GaussianIID(1.0)))
        with pytest.raises(fl.CertificationRefusedError):
            fl.verify_bound(result, report)


class StatefulScalarLaw(CausalController):
    """Leaky integrator without the batch interface, to force the scalar path."""

    def __init__(self):
        self.v = 0.0

    def reset(self):
        self.v = 0.0

    def step(self, y):
        self.v = 0.9 * self.v + y
        return -0.5 * self.v


class ScalarGain(CausalController):
    """z = -gain * y through reset/step only, to force the scalar path."""

    def __init__(self, gain):
        self.gain = gain

    def reset(self):
        pass

    def step(self, y):
        return -self.gain * y


DIVERGING_GAIN = -0.01


def diverging_loop():
    # Positive feedback on A = 3 with a huge Laplace disturbance: about 60%
    # of the 300 trajectories leave float range in the last steps, so the
    # masked sums, maxima and tail rows all see dead entries, and the sums
    # of |e|^p overflow.
    cfg = fl.SimulationConfig(
        horizon=200, trajectories=300, seed=3, p_list=(1.0, 2.0, 4.0, math.inf), x0_std=1.0
    )
    plant = fl.StateSpaceModel([[3.0]], [1.0], [1.0])
    return plant, fl.GeneralizedGaussianIID(1.0, 5e213), cfg


class TestScalarControllerFallback:
    def test_matches_manual_loop(self):
        a, horizon, trajectories, seed = 0.8, 15, 5, 21
        dist = fl.GaussianIID(1.0)
        cfg = fl.SimulationConfig(
            horizon=horizon, trajectories=trajectories, seed=seed, burn_in=0, tail_window=horizon
        )
        result = fl.run_closed_loop(scalar_plant(a), StatefulScalarLaw(), dist, cfg)

        draws = disturbance_matrix(dist, seed, trajectories, horizon)
        expected = np.zeros((horizon, trajectories))
        for m, d in enumerate(draws):
            x, v = 0.0, 0.0
            for k in range(horizon):
                y = x
                v = 0.9 * v + y
                z = -0.5 * v
                e = z + d[k]
                expected[k, m] = abs(e)
                x = a * x + e
        np.testing.assert_allclose(result.tail_abs_error, expected, rtol=1e-12, atol=0.0)

    def test_scalar_path_is_bit_identical_to_batch(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant, dist, cfg = diverging_loop()
        scalar = fl.run_closed_loop(plant, ScalarGain(DIVERGING_GAIN), dist, cfg)
        batch = fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg)

        assert 0 < scalar.diverged == batch.diverged < cfg.trajectories
        for p in cfg.p_list:
            assert scalar.error_norms[p].tobytes() == batch.error_norms[p].tobytes()
            assert scalar.output_norms[p].tobytes() == batch.output_norms[p].tobytes()
        assert scalar.tail_abs_error.tobytes() == batch.tail_abs_error.tobytes()
        assert scalar.tail_abs_output.tobytes() == batch.tail_abs_output.tobytes()
        assert scalar.mean_square_state.tobytes() == batch.mean_square_state.tobytes()


class TestChunkedAccumulation:
    @pytest.mark.parametrize("controller", [ScalarGain(DIVERGING_GAIN), StaticGain(DIVERGING_GAIN)])
    def test_overflowing_loop_emits_no_warning(self, monkeypatch, controller):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant, dist, cfg = diverging_loop()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fl.run_closed_loop(plant, controller, dist, cfg)
        assert 0 < result.diverged < cfg.trajectories

    def test_alive_counts_fall_to_the_survivors(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant, dist, cfg = diverging_loop()
        result = fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg)
        counts = result.alive_counts
        assert counts.dtype == np.int64 and counts.shape == (cfg.horizon,)
        assert counts[0] == cfg.trajectories
        assert (np.diff(counts) <= 0).all()
        assert counts[-1] == cfg.trajectories - result.diverged < cfg.trajectories

    def test_chunk_columns_land_at_their_offsets(self, monkeypatch):
        # 300 trajectories in chunks of 64 leave a ragged last chunk of 44.
        # Every column of the tails must be the trajectory that a manual,
        # unchunked loop over the same per-trajectory draws gives there, and
        # the p = 1 sums must add the chunks' sums in block order (the p = 2 sums
        # overflow).
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant, dist, cfg = diverging_loop()
        chunked = fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg)

        d = disturbance_matrix(dist, cfg.seed, cfg.trajectories, cfg.horizon)
        x = initial_states(cfg.x0_std, cfg.seed, cfg.trajectories, 1)[:, 0]
        alive = np.ones(cfg.trajectories, dtype=bool)
        tail_e, tail_y = [], []
        sums = np.zeros(cfg.horizon)
        with np.errstate(all="ignore"):
            for k in range(cfg.horizon):
                y = x
                e = -DIVERGING_GAIN * y + d[:, k]
                alive &= np.isfinite(e) & np.isfinite(y) & np.isfinite(x)
                magnitudes = np.where(alive, np.abs(e), 0.0)
                for lo in range(0, cfg.trajectories, 64):
                    sums[k] += magnitudes[lo : lo + 64].sum()
                if k >= chunked.tail_start:
                    tail_e.append(np.where(alive, np.abs(e), np.nan))
                    tail_y.append(np.where(alive, np.abs(y), np.nan))
                x = 3.0 * x + e

        assert chunked.diverged == int((~alive).sum()) > 0
        assert chunked.tail_abs_error.tobytes() == np.array(tail_e).tobytes()
        assert chunked.tail_abs_output.tobytes() == np.array(tail_y).tobytes()
        assert chunked.error_norms[1.0].tobytes() == (sums / chunked.alive_counts).tobytes()


def use_cpus(monkeypatch, cpus):
    """Make the simulator see an affinity mask of ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class PidLoggingDisturbance:
    """Delegates to ``dist`` and appends the drawing process's pid to ``path``."""

    def __init__(self, dist, path):
        self.dist, self.path = dist, path

    def sample(self, rng, length):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return self.dist.sample(rng, length)


def result_bytes(result):
    """Every array of a SimulationResult as bytes, with its scalar fields."""
    arrays = [result.mean_square_state, result.alive_counts,
              result.tail_abs_error, result.tail_abs_output]
    for p in result.config.p_list:
        arrays += [result.error_norms[p], result.output_norms[p]]
    return ([a.tobytes() for a in arrays],
            result.error_tail, result.output_tail, result.stable, result.diverged)


class WrongShapeInChunk3:
    """Gaussian draws, one sample too long for the trajectories of chunk 3."""

    def sample(self, rng, length):
        extra = rng.bit_generator.seed_seq.spawn_key == (_DISTURBANCE, 3)
        return rng.standard_normal(length + extra)


class FailsOnRaggedChunk(StaticGain):
    """Batch gain that raises on the ragged last chunk of 300 in chunks of 64."""

    def step_batch(self, y):
        if y.size != 64:
            raise ArithmeticError(f"no command for a block of {y.size}")
        return super().step_batch(y)


def run_in_pool_worker():
    plant, dist, cfg = diverging_loop()
    return result_bytes(fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="workers need fork"
)
class TestChunkWorkers:
    def test_results_do_not_depend_on_worker_count(self, monkeypatch, tmp_path):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        plant, dist, cfg = diverging_loop()
        stable_cfg = fl.SimulationConfig(
            horizon=50, trajectories=300, seed=3, p_list=(1.0, 2.0, math.inf)
        )
        stable_dist = fl.GaussianIID(1.0)
        reports = [fl.error_bound_lti(p, fl.analyze_plant(scalar_plant(0.5)),
                                      fl.entropy_summary(stable_dist))
                   for p in stable_cfg.p_list]

        def run(cpus):
            use_cpus(monkeypatch, cpus)
            log = tmp_path / f"pids{cpus}"
            diverging = fl.run_closed_loop(
                plant, StaticGain(DIVERGING_GAIN), PidLoggingDisturbance(dist, log), cfg
            )
            stable = fl.run_closed_loop(
                scalar_plant(0.5), StaticGain(0.2), stable_dist, stable_cfg
            )
            certs = [fl.verify_bound(stable, report) for report in reports]
            pids = set(log.read_text(encoding="utf-8").split())
            return result_bytes(diverging), result_bytes(stable), certs, pids

        serial, forked = run(1), run(2)
        assert 0 < serial[0][4] < cfg.trajectories
        assert serial[:3] == forked[:3]
        assert serial[3] == {str(os.getpid())}
        assert len(forked[3]) == 2 and str(os.getpid()) not in forked[3]

    @pytest.mark.parametrize(
        "dist, controller, error",
        [
            (WrongShapeInChunk3(), StaticGain(0.5), fl.InvalidModelError),
            (fl.GaussianIID(1.0), FailsOnRaggedChunk(0.5), ArithmeticError),
        ],
        ids=["wrong_shape_sample", "raising_controller"],
    )
    def test_chunk_errors_surface_as_in_process(
        self, monkeypatch, dist, controller, error
    ):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        cfg = fl.SimulationConfig(horizon=10, trajectories=300, seed=2)
        messages = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(error) as caught:
                fl.run_closed_loop(scalar_plant(0.5), controller, dist, cfg)
            messages.append((type(caught.value), str(caught.value)))
        assert messages[0] == messages[1]
        assert multiprocessing.active_children() == []

    def test_unpicklable_chunk_error_names_its_class(self, monkeypatch):
        class LocalError(Exception):
            pass

        class LocalFailure(StaticGain):
            def step_batch(self, y):
                if y.size != 64:
                    raise LocalError(f"no command for a block of {y.size}")
                return super().step_batch(y)

        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        cfg = fl.SimulationConfig(horizon=10, trajectories=300, seed=2)
        use_cpus(monkeypatch, 1)
        with pytest.raises(LocalError, match="^no command for a block of 44$"):
            fl.run_closed_loop(scalar_plant(0.5), LocalFailure(0.5), fl.GaussianIID(1.0), cfg)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError) as caught:
            fl.run_closed_loop(scalar_plant(0.5), LocalFailure(0.5), fl.GaussianIID(1.0), cfg)
        assert str(caught.value) == f"{LocalError.__qualname__}: no command for a block of 44"
        assert "LocalError: no command for a block of 44" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_unpicklable_controller_runs_across_workers(self, monkeypatch):
        class LocalGain(CausalController):
            def reset(self):
                pass

            def step(self, y):
                return -DIVERGING_GAIN * y

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(LocalGain())
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, 2)
        plant, dist, cfg = diverging_loop()
        local = fl.run_closed_loop(plant, LocalGain(), dist, cfg)
        batch = fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg)
        assert result_bytes(local) == result_bytes(batch)

    def test_huge_disturbance_stays_silent_in_workers(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        cfg = fl.SimulationConfig(horizon=20, trajectories=10_000, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fl.run_closed_loop(
                scalar_plant(0.5), ZeroController(), fl.GeneralizedGaussianIID(4.0, 1e308), cfg
            )
        assert 0 < result.diverged < cfg.trajectories

    def test_caller_holds_no_disturbance_block(self, monkeypatch):
        # Two full chunks: in-process, the caller allocates a chunk's
        # (8192, horizon) block; with workers, only the small statistics.
        cfg = fl.SimulationConfig(horizon=50, trajectories=2 * simulation._CHUNK, seed=1)
        block = simulation._CHUNK * cfg.horizon * 8
        peaks = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                fl.run_closed_loop(scalar_plant(0.5), StaticGain(0.2), fl.GaussianIID(1.0), cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > block > 4 * peaks[1]

    def test_runs_inside_a_daemonic_pool_worker(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply_async(run_in_pool_worker).get(timeout=120)
        assert in_worker == run_in_pool_worker()



@pytest.fixture(scope="module")
def stable_run():
    cfg = fl.SimulationConfig(
        horizon=60, trajectories=20000, seed=10, p_list=(2.0, math.inf)
    )
    return fl.run_closed_loop(
        scalar_plant(0.5), ZeroController(), fl.GaussianIID(1.0), cfg
    )


class TestVerifyBound:

    def test_tight_bound_satisfied(self, stable_run):
        report = fl.error_bound_p2(
            fl.analyze_plant(scalar_plant(0.5)), fl.entropy_summary(fl.GaussianIID(1.0))
        )
        cert = fl.verify_bound(stable_run, report)
        assert cert.satisfied
        assert cert.ratio == pytest.approx(1.0, abs=0.03)
        assert cert.margin_stderr > 0.0
        assert cert.bound_value == pytest.approx(1.0, rel=1e-12)

    def test_inflated_bound_rejected(self, stable_run):
        report = fl.error_bound_for_entropy(2.0, 10.0)  # bound near 248, tail near 1
        cert = fl.verify_bound(stable_run, report)
        assert not cert.satisfied
        assert cert.ratio < 0.01

    def test_bootstrap_margin_deterministic(self, stable_run):
        report = fl.error_bound_p2(
            fl.analyze_plant(scalar_plant(0.5)), fl.entropy_summary(fl.GaussianIID(1.0))
        )
        a = fl.verify_bound(stable_run, report)
        b = fl.verify_bound(stable_run, report)
        assert a.margin_stderr == b.margin_stderr

    def test_sup_norm_slack_floor(self, stable_run):
        def shaped(ratio):
            tail = stable_run.error_tail[math.inf]
            return BoundReport(
                p=math.inf,
                theorem_tag="C3",
                cp=0.5,
                plant_factor=1.0,
                entropy_factor=2.0 * tail / ratio,
                bound_value=tail / ratio,
            )

        close = fl.verify_bound(stable_run, shaped(0.9992))
        assert close.ratio == pytest.approx(0.9992, rel=1e-12)
        assert close.satisfied  # inside the one-sided sup-norm allowance

        # The margin is std / bound, so at ratio r it is r * spread. A ratio
        # 6 spreads below 1 lies outside three margins and the default floor.
        spread = fl.verify_bound(stable_run, shaped(1.0)).margin_stderr
        far_ratio = 1.0 - 6.0 * spread
        gap = 1.0 - far_ratio
        assert 0.5 < far_ratio and gap > fl.simulation.SUP_NORM_SLACK
        far = fl.verify_bound(stable_run, shaped(far_ratio))
        assert far.ratio == pytest.approx(far_ratio, rel=1e-12)
        assert 3.0 * far.margin_stderr < gap
        assert not far.satisfied
        # The floor is a parameter: widening it flips the same comparison,
        # once it covers the gap and not before.
        assert fl.verify_bound(stable_run, shaped(far_ratio), sup_slack=0.5).satisfied
        assert fl.verify_bound(stable_run, shaped(far_ratio), sup_slack=1.01 * gap).satisfied
        assert not fl.verify_bound(stable_run, shaped(far_ratio), sup_slack=0.99 * gap).satisfied

    def test_output_side_selector(self, stable_run):
        report = fl.error_bound_for_entropy(2.0, -8.0)  # tiny bound, trivially met
        cert = fl.verify_bound(stable_run, report, which="output")
        assert cert.which == "output"
        assert cert.satisfied
        with pytest.raises(ValueError):
            fl.verify_bound(stable_run, report, which="state")

    @pytest.mark.parametrize("resamples", [0, -1])
    def test_resamples_below_one_rejected(self, stable_run, resamples):
        report = fl.error_bound_for_entropy(2.0, -8.0)
        with pytest.raises(fl.InvalidModelError, match="resamples"):
            fl.verify_bound(stable_run, report, resamples=resamples)

    def test_missing_norm_order_rejected(self, stable_run):
        report = fl.error_bound_for_entropy(3.0, 1.0)
        with pytest.raises(fl.InvalidNormOrderError):
            fl.verify_bound(stable_run, report)

    def test_certification_dict(self, stable_run):
        report = fl.error_bound_p2(
            fl.analyze_plant(scalar_plant(0.5)), fl.entropy_summary(fl.GaussianIID(1.0))
        )
        d = fl.verify_bound(stable_run, report).to_dict()
        assert set(d) == {
            "p", "which", "theorem", "bound", "tail_norm", "ratio",
            "margin_stderr", "satisfied",
        }
        assert d["p"] == 2.0
        assert d["which"] == "error"
        assert d["theorem"] == "C2"


# Two full bootstrap slices and a ragged third.
RAGGED = 2 * simulation._BOOTSTRAP_SLICE + 37
ORDERS = (1.0, 2.0, 7.0, math.inf)


def heavy_tail(trajectories, tail_window=5, seed=4):
    # Cauchy magnitudes, so resamples that miss a large one differ visibly.
    return np.abs(np.random.default_rng(seed).standard_cauchy((tail_window, trajectories)))


def synthetic_result(trajectories, tail_window=5):
    """A stable SimulationResult around heavy_tail magnitudes."""
    cfg = fl.SimulationConfig(
        horizon=tail_window, trajectories=trajectories, burn_in=0,
        tail_window=tail_window, p_list=ORDERS,
    )
    tails = np.stack([heavy_tail(trajectories, tail_window, seed) for seed in (4, 5)])
    return simulation.SimulationResult(
        config=cfg,
        error_norms={},
        output_norms={},
        error_tail={p: 1.0 for p in ORDERS},
        output_tail={p: 1.0 for p in ORDERS},
        mean_square_state=np.zeros(tail_window),
        stable=True,
        diverged=0,
        alive_counts=np.full(tail_window, trajectories, dtype=np.int64),
        tail_abs_error=tails[0],
        tail_abs_output=tails[1],
    )


def unit_report(p):
    return BoundReport(
        p=p, theorem_tag="C2", cp=1.0, plant_factor=1.0, entropy_factor=1.0, bound_value=1.0
    )


def replayed_counts(seed_key, n, resamples):
    """Row r counts resample r's picks, replaying the draws one pick at a time."""
    rng = np.random.default_rng(seed_key)
    width = simulation._BOOTSTRAP_SLICE
    starts = list(range(0, n, width))
    sizes = [min(width, n - lo) for lo in starts]
    totals = rng.multinomial(n, np.array(sizes) / n, size=resamples)
    counts = np.zeros((resamples, n), dtype=np.int64)
    for j, (lo, size) in enumerate(zip(starts, sizes)):
        picks = iter(rng.integers(0, size, totals[:, j].sum()).tolist())
        for r in range(resamples):
            for _ in range(totals[r, j]):
                counts[r, lo + next(picks)] += 1
    return counts


class TestSlicedBootstrap:
    def test_slices_cover_every_pick(self):
        rng = np.random.default_rng(0)
        slices, total = [], np.zeros(50, dtype=np.int64)
        for lo, counts in simulation._resample_counts(rng, RAGGED, 50):
            slices.append((lo, counts.shape))
            total += counts.sum(axis=1)
        width = simulation._BOOTSTRAP_SLICE
        assert slices == [(0, (50, width)), (width, (50, width)), (2 * width, (50, 37))]
        assert (total == RAGGED).all()

    def test_counts_match_replay(self):
        key = (3, _BOOTSTRAP_TAG)
        sliced = simulation._resample_counts(np.random.default_rng(key), RAGGED, 40)
        counts = np.concatenate([block for _, block in sliced], axis=1)
        np.testing.assert_array_equal(counts, replayed_counts(key, RAGGED, 40))

    @pytest.mark.parametrize("p", ORDERS)
    def test_statistics_match_replay(self, p):
        # Each resample built column by column, and its tail statistic taken
        # as the largest per-step empirical norm.
        tail = heavy_tail(RAGGED)
        key = (3, _BOOTSTRAP_TAG)
        expected = []
        for row in replayed_counts(key, RAGGED, 40):
            resample = np.repeat(tail, row, axis=1)
            expected.append(max(fl.empirical_lp(step, p) for step in resample))
        stats, scale = simulation._bootstrap_stats(tail, p, key, 40)
        assert scale == tail.max()
        np.testing.assert_allclose(stats * scale, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, 300.0, math.inf])
    @pytest.mark.parametrize("c", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
    def test_margin_is_scale_free(self, c, p):
        # A power-of-two scale is exact in every step, so equality is exact.
        tail = heavy_tail(RAGGED)
        key = (0, _BOOTSTRAP_TAG)
        base = simulation._bootstrap_std(tail, p, key, 50)
        assert base > 0.0
        assert simulation._bootstrap_std(c * tail, p, key, 50) == c * base

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_zero_block_has_zero_margin(self, p):
        assert simulation._bootstrap_std(np.zeros((3, RAGGED)), p, (0, _BOOTSTRAP_TAG), 20) == 0.0

    def test_repeat_calls_byte_identical(self):
        result = synthetic_result(RAGGED)
        for p in ORDERS:
            for which in ("error", "output"):
                a = fl.verify_bound(result, unit_report(p), which=which)
                b = fl.verify_bound(result, unit_report(p), which=which)
                assert a.margin_stderr > 0.0
                assert np.float64(a.margin_stderr).tobytes() == np.float64(b.margin_stderr).tobytes()

    def test_memoized_margins_match_one_order_passes(self):
        result = synthetic_result(RAGGED)
        key = (result.config.seed, _BOOTSTRAP_TAG)
        for which, block in (("error", result.tail_abs_error), ("output", result.tail_abs_output)):
            for p in ORDERS:
                memo = fl.verify_bound(result, unit_report(p), which=which).margin_stderr
                alone = simulation._bootstrap_std(block, p, key, 200)
                assert np.float64(memo).tobytes() == np.float64(alone).tobytes()

    def test_one_draw_per_signal_and_resamples(self, monkeypatch):
        draws = []
        counts = simulation._resample_counts

        def counted(rng, n, resamples):
            draws.append(resamples)
            return counts(rng, n, resamples)

        monkeypatch.setattr(simulation, "_resample_counts", counted)
        result = synthetic_result(RAGGED)
        for p in ORDERS:
            fl.verify_bound(result, unit_report(p))
        assert draws == [200]
        fl.verify_bound(result, unit_report(2.0), resamples=50)
        fl.verify_bound(result, unit_report(math.inf), resamples=50)
        assert draws == [200, 50]
        for p in ORDERS:
            fl.verify_bound(result, unit_report(p), which="output")
        assert draws == [200, 50, 200]

    def test_top_peaks_equal_the_full_maximum(self):
        # Three tied largest peaks, six tied 7s across the edge of the top 8
        # (one 7 falls outside it), then smaller peaks and zeros, shuffled.
        values = np.array([9.0] * 3 + [7.0] * 6 + [5.0] * 10 + [0.0] * 5 + [1.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        peaks = rng.permutation(values)
        top = np.argsort(peaks)[-simulation._TOP_PEAKS :]
        outside = np.setdiff1d(np.flatnonzero(peaks == 7.0), top)
        assert outside.size == 1
        counts = rng.integers(0, 2, (40, peaks.size))
        counts[0] = 0  # picked nothing in this slice
        counts[1:10, top] = 0  # missed every one of the top peaks
        counts[1, outside] = 2  # ... but picked the 7 outside them
        counts[2] = 0
        counts[2, peaks == 0.0] = 3  # picked only zero peaks
        counts[3] = 0
        counts[3, outside] = 1
        counts[4:10, outside] = 0
        assert (counts[4:10] > 0).any(axis=1).all()
        full = np.where(counts > 0, peaks, 0.0).max(axis=1)
        assert set(full[:4]) == {0.0, 7.0} and set(full[4:10]) <= {1.0, 2.0, 3.0, 5.0}
        assert simulation._resample_peaks(counts, peaks).tobytes() == full.tobytes()

    @pytest.mark.parametrize("size", [1, 5, 8, 9])
    def test_top_peaks_of_a_small_slice(self, size):
        rng = np.random.default_rng(size)
        peaks = np.abs(rng.standard_normal(size))
        counts = rng.integers(0, 3, (50, size))
        full = np.where(counts > 0, peaks, 0.0).max(axis=1)
        assert simulation._resample_peaks(counts, peaks).tobytes() == full.tobytes()

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_memory_does_not_grow_with_trajectories(self, p):
        def peak(trajectories):
            result = synthetic_result(trajectories, tail_window=20)
            tracemalloc.start()
            try:
                fl.verify_bound(result, unit_report(p))
                return tracemalloc.get_traced_memory()[1], result.tail_abs_error.nbytes
            finally:
                tracemalloc.stop()

        small, _ = peak(20000)
        large, tail_nbytes = peak(80000)
        assert large <= 1.25 * small
        assert large < tail_nbytes
