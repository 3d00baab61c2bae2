"""Closed-loop Monte Carlo engine: loop semantics, determinism, certification."""

import math
import multiprocessing
import os
import pickle
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fundlim as fl
from conftest import lfilter_ar_sample
from fundlim import simulation
from fundlim.bounds import BoundReport
from fundlim.controllers import CausalController, StaticGain, ZeroController
from fundlim.simulation import _BOOTSTRAP_TAG, _DISTURBANCE, _INITIAL_STATE, _chunk_stream

# Scalar test plants have C B != 0; that analysis warning is covered in
# test_plant and is noise here.
pytestmark = pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")


AR2 = fl.GaussianAR((0.5, -0.25), 1.1)


def scalar_plant(a):
    return fl.StateSpaceModel([[a]], [1.0], [1.0])


def disturbance_matrix(dist, seed, trajectories, horizon):
    """Row m is trajectory m's draw: its chunk's generator, in trajectory order.

    A model with ``sample_rows`` draws a full block of ``simulation._STAGING``
    rows whenever a chunk's next trajectory starts one, even at the chunk's
    ragged end; any other model draws one ``sample`` per trajectory.
    """
    rows = []
    for m in range(trajectories):
        place = m % simulation._CHUNK
        if place == 0:
            rng = _chunk_stream(seed, _DISTURBANCE, m // simulation._CHUNK)
        if not hasattr(dist, "sample_rows"):
            rows.append(dist.sample(rng, horizon))
            continue
        if place % simulation._STAGING == 0:
            block = np.empty((simulation._STAGING, horizon))
            dist.sample_rows(rng, block)
        rows.append(block[place % simulation._STAGING])
    return np.stack(rows)


def squared_power(mag, p):
    """``mag**p``, but p = 4 as the square of the square."""
    return np.square(np.square(mag)) if p == 4.0 else mag**p


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
            fl.SimulationConfig(horizon=10, trajectories=1, x0_std=-1.0)
        with pytest.raises(fl.InvalidModelError, match="seed"):
            fl.SimulationConfig(horizon=10, trajectories=1, seed=-1)

    @pytest.mark.parametrize(
        "horizon, trajectories, what",
        [
            (2**63, 1, "horizon"),
            (10**20, 100, "horizon"),
            (20, 2**63, "tail array"),
            (20, 10**20, "tail array"),
        ],
    )
    def test_sizes_past_an_array_rejected(self, horizon, trajectories, what):
        with pytest.raises(fl.InvalidModelError, match=what):
            fl.SimulationConfig(horizon=horizon, trajectories=trajectories)


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

    def test_tail_statistic_is_pooled(self):
        # Finite p: the norm of every tail magnitude together, all steps
        # and trajectories; p = inf: the window's largest per-step maximum.
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=16, seed=3, p_list=(1.0, 2.0, 7.0, math.inf)
        )
        result = fl.run_closed_loop(
            scalar_plant(0.5), StaticGain(0.4), fl.GaussianIID(1.0), cfg
        )
        window = slice(result.tail_start, None)
        assert result.tail_start == 24
        for p in (1.0, 2.0, 7.0):
            for tail, block in ((result.error_tail, result.tail_abs_error),
                                (result.output_tail, result.tail_abs_output)):
                assert tail[p] == pytest.approx(fl.empirical_lp(block, p), rel=1e-13)
        assert result.error_tail[math.inf] == np.max(result.error_norms[math.inf][window])
        assert result.output_tail[math.inf] == np.max(result.output_norms[math.inf][window])
        assert result.error_tail[math.inf] == result.tail_abs_error.max()

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

    @pytest.mark.parametrize(
        "dist, draw",
        [
            (fl.GaussianIID(1.3), lambda rng, n: 1.3 * rng.standard_normal(n)),
            (fl.UniformIID(0.7), lambda rng, n: 0.7 * rng.uniform(-1.0, 1.0, n)),
            (AR2, lambda rng, n: lfilter_ar_sample(AR2, rng, n)),
        ],
        ids=["gaussian", "uniform", "ar"],
    )
    def test_block_draws_keep_the_per_trajectory_floats(self, monkeypatch, dist, draw):
        # Chunks of 100 hold a full block of 64 and a ragged one of 36, and
        # the last chunk of 50 only a ragged one. Each trajectory's draw is
        # the one that successive per-trajectory draws from its chunk's
        # generator give, byte for byte.
        monkeypatch.setattr("fundlim.simulation._CHUNK", 100)
        cfg = fl.SimulationConfig(horizon=9, trajectories=150, seed=6, burn_in=0, tail_window=9)
        result = fl.run_closed_loop(scalar_plant(0.5), ZeroController(), dist, cfg)
        rows = []
        for chunk, count in enumerate((100, 50)):
            rng = _chunk_stream(cfg.seed, _DISTURBANCE, chunk)
            rows += [draw(rng, cfg.horizon) for _ in range(count)]
        assert result.tail_abs_error.tobytes() == np.abs(np.stack(rows)).T.tobytes()

    def test_model_with_only_sample_is_called_once_per_trajectory(self, monkeypatch):
        # 150 trajectories in chunks of 64 end in a ragged chunk of 22: a
        # model without sample_rows is asked for those 22 rows, not 64.
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, 1)
        calls = []

        class OnlySample:
            def sample(self, rng, length):
                calls.append(length)
                return fl.GaussianIID(1.0).sample(rng, length)

        cfg = fl.SimulationConfig(horizon=7, trajectories=150, seed=2, burn_in=0, tail_window=7)
        result = fl.run_closed_loop(scalar_plant(0.5), ZeroController(), OnlySample(), cfg)
        assert calls == [cfg.horizon] * cfg.trajectories
        d = disturbance_matrix(OnlySample(), cfg.seed, cfg.trajectories, cfg.horizon)
        assert result.tail_abs_error.tobytes() == np.abs(d).T.tobytes()


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
    def test_growth_flags_unstable(self):
        cfg = fl.SimulationConfig(horizon=100, trajectories=200, seed=2)
        result = fl.run_closed_loop(
            scalar_plant(2.0), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert not result.stable
        assert result.diverged == 0  # grew over the tail window but stayed finite
        mean_sq = result.mean_square_state
        baseline = mean_sq[cfg.burn_in : result.tail_start].mean()
        assert mean_sq[result.tail_start :].mean() > 4.0 * baseline
        assert np.isfinite(mean_sq).all()
        assert np.isfinite(result.error_norms[2.0]).all()

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e100])
    @pytest.mark.parametrize(
        "a, gain, stable",
        [
            (0.5, 0.0, True),
            (2.0, 1.5, True),
            (0.999, 0.0, True),
            (2.0, 0.0, False),
            (1.01, 0.0, False),
        ],
        ids=["A=0.5-zero", "A=2-gain1.5", "A=0.999-zero", "A=2-zero", "A=1.01-zero"],
    )
    def test_verdict_does_not_depend_on_units(self, a, gain, stable, scale):
        # A = 0.999 is still settling (the tail's mean square is 1.7 times
        # the baseline's) but stable; A = 1.01 grows slowly (4.4 times) but
        # without end, so is unstable at every scale.
        cfg = fl.SimulationConfig(horizon=200, trajectories=2000, seed=5)
        result = fl.run_closed_loop(
            scalar_plant(a), StaticGain(gain), fl.GaussianIID(1.0).scaled(scale), cfg
        )
        assert result.stable is stable

    @pytest.mark.parametrize("burn_in, tail_window", [(0, 30), (10, 20)])
    def test_no_baseline_compares_halves(self, burn_in, tail_window):
        # Nothing before the tail window: the later half of [burn_in, horizon)
        # is held against the earlier half, so a growing loop is still caught.
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=50, seed=2, burn_in=burn_in, tail_window=tail_window
        )
        grows = fl.run_closed_loop(
            scalar_plant(2.0), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert grows.diverged == 0
        assert np.isfinite(grows.mean_square_state).all()
        assert not grows.stable
        settles = fl.run_closed_loop(
            scalar_plant(0.5), ZeroController(), fl.GaussianIID(1.0), cfg
        )
        assert settles.stable

    @pytest.mark.parametrize("x0_std", [0.0, 1e-3, 1e3])
    def test_initial_state_is_not_the_baseline(self, x0_std):
        # Step 0 holds x0, not the loop's response: however small or large
        # x0_std is, a stable loop stays stable, even with a one-step baseline.
        for horizon, tail in [(2, 1), (3, 1), (40, 20)]:
            cfg = fl.SimulationConfig(
                horizon=horizon, trajectories=2000, seed=4, burn_in=0,
                tail_window=tail, x0_std=x0_std,
            )
            result = fl.run_closed_loop(
                scalar_plant(2.0), StaticGain(1.5), fl.GaussianIID(1.0), cfg
            )
            assert result.stable, (horizon, tail)

    def test_growth_near_float_range_is_unstable(self):
        # A slow climb to ~1e307: every mean-square entry stays finite, but
        # a plain sum over the baseline or the tail window would overflow.
        cfg = fl.SimulationConfig(
            horizon=2000, trajectories=1, seed=0, burn_in=100, tail_window=100
        )
        result = fl.run_closed_loop(
            scalar_plant(1.003), ZeroController(), fl.GaussianIID(4.5e149), cfg
        )
        assert result.diverged == 0
        mean_sq = result.mean_square_state
        assert np.isfinite(mean_sq).all()
        with np.errstate(over="ignore"):
            assert np.sum(mean_sq[100 : result.tail_start]) == np.inf
            assert np.sum(mean_sq[result.tail_start :]) == np.inf
        assert not result.stable

    def test_overflowing_mean_square_is_unstable(self):
        # x stays finite but x**2 overflows: every trajectory is alive.
        cfg = fl.SimulationConfig(horizon=40, trajectories=50, seed=2, burn_in=0, tail_window=40)
        result = fl.run_closed_loop(
            scalar_plant(0.5), ZeroController(), fl.GaussianIID(1e200), cfg
        )
        assert result.diverged == 0
        assert not np.isfinite(result.mean_square_state).all()
        assert not result.stable

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


KEPT_MEASUREMENTS = []


class KeepingGain(StaticGain):
    """Batch gain that keeps every measurement it is handed, with a copy."""

    def step_batch(self, y):
        KEPT_MEASUREMENTS.append((y, y.copy()))
        return super().step_batch(y)


class TestControllerBoundary:
    def test_kept_measurements_keep_their_values(self, monkeypatch):
        # In-process, so the law's clone appends here. Every y it kept must
        # still hold what it was handed, which is the loop's |y| tail.
        use_cpus(monkeypatch, 1)
        KEPT_MEASUREMENTS.clear()
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=500, seed=9, burn_in=0, tail_window=30, x0_std=1.0
        )
        result = fl.run_closed_loop(plant, KeepingGain(0.2), fl.GaussianIID(1.0), cfg)
        assert result.diverged == 0 and len(KEPT_MEASUREMENTS) == cfg.horizon
        kept = np.stack([y for y, _ in KEPT_MEASUREMENTS])
        assert kept.tobytes() == np.stack([c for _, c in KEPT_MEASUREMENTS]).tobytes()
        assert np.abs(kept).tobytes() == result.tail_abs_output.tobytes()


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


class ExitsOnRaggedChunk(StaticGain):
    """Batch gain whose process exits with code 3 on the ragged last chunk."""

    def step_batch(self, y):
        if y.size != 64:
            os._exit(3)
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

    def test_killed_worker_raises_and_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        cfg = fl.SimulationConfig(horizon=10, trajectories=300, seed=2)
        use_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError):
            fl.run_closed_loop(
                scalar_plant(0.5), ExitsOnRaggedChunk(0.5), fl.GaussianIID(1.0), cfg
            )
        assert multiprocessing.active_children() == []

    def test_concurrent_runs_match_their_lone_runs(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, 2)
        plant, dist, cfg = diverging_loop()

        def run(gain):
            return result_bytes(fl.run_closed_loop(plant, StaticGain(gain), dist, cfg))

        # Open-loop pole 3 under gains -0.01 and 2.5: diverging and stable.
        gains = (DIVERGING_GAIN, 2.5)
        alone = [run(gain) for gain in gains]
        with ThreadPoolExecutor(2) as threads:
            together = list(threads.map(run, gains, timeout=120))
        assert together == alone
        assert alone[0] != alone[1]
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



def pin_loop():
    # A 3-state plant with an unstable mode at 3 under a multi-lag ARMA law
    # and a huge Laplace disturbance: most trajectories leave float range,
    # at different steps, inside the tail window. Every p > 1 power of the
    # error overflows, so the sums at p > 1 are checked by stable_pin_loop.
    plant = fl.StateSpaceModel(
        [[3.0, 0.1, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0, 0.0], [0.0, 1.0, -2.0]
    )
    cfg = fl.SimulationConfig(
        horizon=200, trajectories=300, seed=7, p_list=(1.0, 2.0, 3.5, math.inf), x0_std=1.0
    )
    spec, arma = "arma:-0.01,0.005,-0.002;0.1,-0.05", ((-0.01, 0.005, -0.002), (0.1, -0.05))
    return plant, spec, arma, fl.GeneralizedGaussianIID(1.0, 5e213), cfg


def stable_pin_loop():
    # The plant and law of the benchmark's CLI workload, where every sum is finite.
    plant = fl.StateSpaceModel(
        [[0.4, 0.11, -0.03], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0, 0.0], [0.0, 1.0, -2.0]
    )
    cfg = fl.SimulationConfig(
        horizon=60, trajectories=300, seed=7, p_list=(1.0, 2.0, 3.5, 4.0, math.inf), x0_std=1.0
    )
    return plant, "arma:0.1;-0.2", ((0.1,), (-0.2,)), fl.GeneralizedGaussianIID(4.0, 1.0), cfg


def replay_loop(plant, b, a, dist, cfg):
    """The loop as plain expressions: masks by ``np.where``, powers by ``**``
    (p = 4 by squaring, as ``squared_power`` writes it out).

    Each chunk of ``simulation._CHUNK`` trajectories runs the ARMA law
    ``v_k = b @ y_hist - a @ v_hist``, ``z_k = -v_k`` on its own histories,
    and its per-step statistics are added in block order. Returns a
    SimulationResult's arrays and scalars in ``result_bytes`` form.
    """
    horizon, n = cfg.horizon, cfg.trajectories
    tail_start = horizon - cfg.tail_window
    b, a = np.asarray(b), np.asarray(a)
    d_all = disturbance_matrix(dist, cfg.seed, n, horizon)
    x0_all = initial_states(cfg.x0_std, cfg.seed, n, plant.n)
    sums = {p: np.zeros((2, horizon)) for p in cfg.p_list if not math.isinf(p)}
    maxes = np.zeros((2, horizon))
    counts = np.zeros(horizon, dtype=np.int64)
    sum_sq = np.zeros(horizon)
    tails = np.empty((2, cfg.tail_window, n))
    diverged = 0
    with np.errstate(all="ignore"):
        for lo in range(0, n, simulation._CHUNK):
            hi = min(lo + simulation._CHUNK, n)
            d, x = d_all[lo:hi], x0_all[lo:hi].T
            y_hist, v_hist = np.zeros((b.size, hi - lo)), np.zeros((a.size, hi - lo))
            alive = np.ones(hi - lo, dtype=bool)
            part = {p: np.zeros((2, horizon)) for p in sums}
            part_max = np.zeros((2, horizon))
            part_counts = np.zeros(horizon, dtype=np.int64)
            part_sq = np.zeros(horizon)
            for k in range(horizon):
                y = (plant.C @ x).ravel()
                y_hist[1:] = y_hist[:-1]
                y_hist[0] = y
                v = b @ y_hist
                v = v - a @ v_hist
                v_hist[1:] = v_hist[:-1]
                v_hist[0] = v
                e = -v + d[:, k]
                alive &= np.isfinite(e) & np.isfinite(y) & np.isfinite(x).all(axis=0)
                mag = np.where(alive, np.abs(np.stack((e, y))), 0.0)
                part_counts[k] = alive.sum()
                for p in part:
                    part[p][:, k] = squared_power(mag, p).sum(axis=1)
                part_max[:, k] = mag.max(axis=1)
                part_sq[k] = np.where(alive, np.einsum("ij,ij->j", x, x), 0.0).sum()
                if k >= tail_start:
                    tails[:, k - tail_start, lo:hi] = np.where(alive, mag, np.nan)
                x = plant.A @ x + plant.B * e
            for p in sums:
                sums[p] += part[p]
            np.maximum(maxes, part_max, out=maxes)
            counts += part_counts
            sum_sq += part_sq
            diverged += int((~alive).sum())
        norms = {p: (total / counts) ** (1.0 / p) for p, total in sums.items()}
        norms[math.inf] = maxes
        # Pooled over the window for finite p, the largest maximum for inf.
        tail_stat = {
            p: (total[:, tail_start:].sum(axis=1) / counts[tail_start:].sum()) ** (1.0 / p)
            for p, total in sums.items()
        }
        tail_stat[math.inf] = maxes[:, tail_start:].max(axis=1)
        mean_sq = sum_sq / counts
    arrays = [mean_sq, counts, tails[0], tails[1]]
    for p in cfg.p_list:
        arrays += [norms[p][0], norms[p][1]]
    # Growth: the tail window's average mean square against 4 times the
    # average over [max(burn_in, 1), tail_start); with no steps there, the
    # later half of [max(burn_in, 1), horizon) against the earlier half. An
    # empty or all-zero baseline never grows. Both averages are taken in
    # log space so that they stay finite wherever the entries are.
    first = max(cfg.burn_in, 1)
    if tail_start > first:
        baseline, later = mean_sq[first:tail_start], mean_sq[tail_start:]
    else:
        half = (first + horizon) // 2
        baseline, later = mean_sq[first:half], mean_sq[half:]
    grew = False
    if baseline.size and np.all(np.isfinite(mean_sq)) and np.any(baseline > 0.0):
        with np.errstate(divide="ignore"):
            log_level = np.logaddexp.reduce(np.log(later)) - math.log(later.size)
            log_base = np.logaddexp.reduce(np.log(baseline)) - math.log(baseline.size)
        grew = log_level > math.log(4.0) + log_base
    stable = diverged == 0 and np.all(np.isfinite(mean_sq)) and not grew
    return (
        [arr.tobytes() for arr in arrays],
        {p: float(rows[0]) for p, rows in tail_stat.items()},
        {p: float(rows[1]) for p, rows in tail_stat.items()},
        bool(stable),
        diverged,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("loop", [pin_loop, stable_pin_loop], ids=["diverging", "stable"])
    def test_loop_matches_replay(self, monkeypatch, loop, cpus):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, cpus)
        plant, spec, (b, a), dist, cfg = loop()
        result = fl.run_closed_loop(plant, fl.parse_controller(spec), dist, cfg)
        if loop is pin_loop:
            assert 0 < result.diverged < cfg.trajectories
            assert result.alive_counts[cfg.horizon - cfg.tail_window] > result.alive_counts[-1]
        else:
            assert result.stable
        got, want = result_bytes(result), replay_loop(plant, b, a, dist, cfg)
        assert got[0] == want[0]
        # Tail statistics compared as bytes: some are inf.
        for got_tail, want_tail in zip(got[1:3], want[1:3]):
            assert got_tail.keys() == want_tail.keys()
            for p in got_tail:
                assert np.float64(got_tail[p]).tobytes() == np.float64(want_tail[p]).tobytes()
        assert got[3:] == want[3:]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 3.5, 4.0, 7.0, 2.0**52])
    def test_power_sums_are_those_of_the_power_operator(self, p):
        # Every p but 4 is that of ``**`` itself, bit for bit; p = 4 is, bit
        # for bit, the square of the square, and within rtol 1e-15 of the
        # ``pow`` of ``**``.
        rng = np.random.default_rng(int(p * 10))
        mag = np.abs(rng.standard_normal((2, 1000))) * 10.0 ** rng.integers(-40, 40, (2, 1000))
        mag[:, ::7] = 0.0
        sums = {p: np.zeros((2, 3))}
        with np.errstate(over="ignore", under="ignore"):
            simulation._add_power_sums(sums, mag, np.empty_like(mag), 1)
            want = squared_power(mag, p).sum(axis=1)
            assert sums[p][:, 1].tobytes() == want.tobytes()
            np.testing.assert_allclose(sums[p][:, 1], (mag**p).sum(axis=1), rtol=1e-15, atol=0.0)
            # In place, as the bootstrap takes them, the powers are the same.
            own = mag.copy()
            assert simulation._power(own, p, own).sum(axis=1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [2.0**52, 1e300])
    def test_large_whole_orders_take_pow(self, p):
        # Squaring's relative error roughly doubles with each square: 52
        # squarings take (1 + 2**-52)**(2**52) 7e-9 away from pow's e.
        mag = np.array([[1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.0, 0.0]])
        with np.errstate(over="ignore", under="ignore"):
            want = mag**p
            got = simulation._power(mag, p, np.empty_like(mag))
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("resamples", [2**63, 10**20])
    def test_resamples_past_an_array_rejected(self, stable_run, resamples):
        report = fl.error_bound_p2(
            fl.analyze_plant(scalar_plant(0.5)), fl.entropy_summary(fl.GaussianIID(1.0))
        )
        with pytest.raises(fl.InvalidModelError, match="resamples .* too large"):
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


# Trajectories of the synthetic tail blocks.
TRAJECTORIES = 1061
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
    """Row r counts how often resample r picked each trajectory: n picks drawn at once."""
    rng = np.random.default_rng(seed_key)
    return np.stack([np.bincount(rng.integers(0, n, n), minlength=n) for _ in range(resamples)])


class TestSlicedBootstrap:
    """The trajectory bootstrap of ``verify_bound``.

    The class keeps its name from the sliced bootstrap it replaced.
    """

    @pytest.mark.parametrize("p", ORDERS)
    def test_statistics_match_replay(self, p):
        # Each resample built as whole trajectories repeated by their pick
        # counts, and its tail statistic taken as one empirical norm over
        # every step and trajectory of it.
        tail = heavy_tail(TRAJECTORIES)
        key = (3, _BOOTSTRAP_TAG)
        expected = [
            fl.empirical_lp(np.repeat(tail, row, axis=1), p)
            for row in replayed_counts(key, TRAJECTORIES, 40)
        ]
        stats, scale = simulation._bootstrap_pass(tail, (p,), key, 40)
        assert scale == tail.max()
        np.testing.assert_allclose(stats[p] * scale, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, 300.0, math.inf])
    @pytest.mark.parametrize("c", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
    def test_margin_is_scale_free(self, c, p):
        # A power-of-two scale is exact in every step, so equality is exact.
        tail = heavy_tail(TRAJECTORIES)
        key = (0, _BOOTSTRAP_TAG)
        base = simulation._bootstrap_stds(tail, (p,), key, 50)[p]
        assert base > 0.0
        assert simulation._bootstrap_stds(c * tail, (p,), key, 50)[p] == c * base

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_zero_block_has_zero_margin(self, p):
        zero = np.zeros((3, TRAJECTORIES))
        assert simulation._bootstrap_stds(zero, (p,), (0, _BOOTSTRAP_TAG), 20)[p] == 0.0

    def test_repeat_calls_byte_identical(self):
        result = synthetic_result(TRAJECTORIES)
        for p in ORDERS:
            for which in ("error", "output"):
                a = fl.verify_bound(result, unit_report(p), which=which)
                b = fl.verify_bound(result, unit_report(p), which=which)
                assert a.margin_stderr > 0.0
                assert np.float64(a.margin_stderr).tobytes() == np.float64(b.margin_stderr).tobytes()

    def test_memoized_margins_match_one_order_passes(self):
        result = synthetic_result(TRAJECTORIES)
        key = (result.config.seed, _BOOTSTRAP_TAG)
        for which, block in (("error", result.tail_abs_error), ("output", result.tail_abs_output)):
            for p in ORDERS:
                memo = fl.verify_bound(result, unit_report(p), which=which).margin_stderr
                alone = simulation._bootstrap_stds(block, (p,), key, 200)[p]
                assert np.float64(memo).tobytes() == np.float64(alone).tobytes()

    def test_one_draw_per_signal_and_resamples(self, monkeypatch):
        draws = []
        bootstrap = simulation._bootstrap_pass

        def counted(tail_abs, orders, seed_key, resamples):
            draws.append(resamples)
            return bootstrap(tail_abs, orders, seed_key, resamples)

        monkeypatch.setattr(simulation, "_bootstrap_pass", counted)
        result = synthetic_result(TRAJECTORIES)
        for p in ORDERS:
            fl.verify_bound(result, unit_report(p))
        assert draws == [200]
        fl.verify_bound(result, unit_report(2.0), resamples=50)
        fl.verify_bound(result, unit_report(math.inf), resamples=50)
        assert draws == [200, 50]
        for p in ORDERS:
            fl.verify_bound(result, unit_report(p), which="output")
        assert draws == [200, 50, 200]

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_memory_stays_below_half_the_tail_block(self, p):
        # The per-trajectory sums grow with the number of trajectories by
        # design, but no temporary is the size of the tail block.
        for trajectories in (20000, 80000):
            result = synthetic_result(trajectories, tail_window=20)
            tracemalloc.start()
            try:
                fl.verify_bound(result, unit_report(p))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < result.tail_abs_error.nbytes / 2


def open_loop_certifications(dist, p, seeds, trajectories):
    """Certify ``dist``'s own floor on plant 0.5 in open loop, once per seed.

    With ``ZeroController`` the error is the disturbance itself, and a
    generalized Gaussian of shape p (a Gaussian at p = 2) meets the floor
    at its own p, so the exact ratio is 1.
    """
    plant = scalar_plant(0.5)
    report = fl.error_bound_lti(p, fl.analyze_plant(plant), fl.entropy_summary(dist))
    certs = []
    for seed in seeds:
        cfg = fl.SimulationConfig(
            horizon=60, trajectories=trajectories, seed=seed, p_list=(p,), tail_window=20
        )
        certs.append(fl.verify_bound(fl.run_closed_loop(plant, ZeroController(), dist, cfg), report))
    return certs


class TestTailStatisticCalibration:
    @pytest.mark.parametrize(
        "dist, p",
        [
            (fl.GaussianIID(1.0), 2.0),
            (fl.GeneralizedGaussianIID(4.0, 1.0), 4.0),
            (fl.GeneralizedGaussianIID(1.0, 1.0), 1.0),
        ],
        ids=["gauss-p2", "gengauss4-p4", "laplace-p1"],
    )
    def test_margin_covers_the_exact_ratio(self, dist, p):
        # Three margins hold the exact ratio 1 in about 99.7% of seeds when
        # the statistic is unbiased and the margin its std; 36 of 40 leaves
        # room for the bootstrap's own error.
        certs = open_loop_certifications(dist, p, range(40), 2048)
        covered = sum(abs(c.ratio - 1.0) <= 3.0 * c.margin_stderr for c in certs)
        assert covered >= 36, covered

    @pytest.mark.parametrize("p", [3.0, 7.0, 300.0])
    def test_tight_at_large_orders(self, p):
        (cert,) = open_loop_certifications(fl.GeneralizedGaussianIID(p, 1.0), p, [0], 4096)
        assert cert.bound_value == pytest.approx(1.0, rel=1e-9)
        assert cert.margin_stderr > 0.0
        assert abs(cert.ratio - 1.0) <= 3.0 * cert.margin_stderr
        assert cert.satisfied
