"""Closed-loop Monte Carlo engine: loop semantics, determinism, certification."""

import dataclasses
import itertools
import math
import multiprocessing
import os
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fundlim as fl
from conftest import lfilter_ar_sample
from fundlim import simulation
from fundlim.bounds import BoundReport
from fundlim.controllers import CausalController, StaticGain, ZeroController
from fundlim.simulation import _DISTURBANCE, _INITIAL_STATE, _chunk_stream

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


def recording_tails(monkeypatch):
    """Keep the (tail, count) magnitudes every chunk hands ``_tail_summary``.

    Chunks run in this process. The returned function takes a finished
    run's result, checks that its tail summaries are those of the recorded
    magnitudes, and returns them as one (2, tail_window, trajectories)
    array, error first, with 0 where a trajectory had diverged.
    """
    use_cpus(monkeypatch, 1)
    blocks = []
    summarize = simulation._tail_summary

    def spy(block, orders):
        blocks.append(block.copy())
        return summarize(block, orders)

    monkeypatch.setattr(simulation, "_tail_summary", spy)

    def tails(result):
        both = np.stack([np.concatenate(blocks[i::2], axis=1) for i in (0, 1)])
        blocks.clear()
        for summary, block in zip((result.tail_abs_error, result.tail_abs_output), both):
            assert summary.tobytes() == summarize(block, result.config.p_list).tobytes()
        return both

    return tails


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

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, math.inf])
    def test_infinite_entry_has_infinite_norm(self, p):
        assert fl.empirical_lp([1.0, math.inf], p) == math.inf
        assert fl.empirical_lp([-math.inf, 0.0], p) == math.inf

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, math.inf])
    def test_nan_entry_rejected(self, p):
        with pytest.raises(fl.InvalidModelError, match="NaN"):
            fl.empirical_lp([1.0, math.nan, math.inf], p)


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

    def test_to_dict_keys_are_the_fields(self):
        cfg = fl.SimulationConfig(horizon=10, trajectories=1, p_list=(math.inf,))
        payload = cfg.to_dict()
        assert list(payload) == [f.name for f in dataclasses.fields(fl.SimulationConfig)]
        assert payload == {
            "horizon": 10, "trajectories": 1, "seed": 0, "p_list": ["inf"],
            "burn_in": 2, "tail_window": 2, "x0_std": 0.0,
        }

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
            # A one-trajectory block fits; the 64-row staging block does not.
            (2**58, 1, "horizon"),
            (20, 2**63, "tail array"),
            (20, 10**20, "tail array"),
        ],
    )
    def test_sizes_past_an_array_rejected(self, horizon, trajectories, what):
        with pytest.raises(fl.InvalidModelError, match=what):
            fl.SimulationConfig(horizon=horizon, trajectories=trajectories)

    def test_appended_tail_rows_count_toward_the_block_size(self):
        # A chunk's (horizon, _CHUNK) float64 block fits at the largest
        # horizon with horizon x _CHUNK x 8 <= sys.maxsize, but a tail window
        # over half the horizon appends rows past it.
        horizon = sys.maxsize // (8 * simulation._CHUNK)
        settings = {"horizon": horizon, "trajectories": 10**6, "burn_in": 0}
        fl.SimulationConfig(**settings, tail_window=horizon // 2)
        with pytest.raises(fl.InvalidModelError, match="horizon .* too large"):
            fl.SimulationConfig(**settings, tail_window=horizon // 2 + 1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("horizon", 50.9),
            ("horizon", math.inf),
            ("horizon", True),
            ("horizon", None),
            ("horizon", "50"),
            ("trajectories", 2.5),
            ("trajectories", np.True_),
            ("seed", 1.5),
            ("seed", False),
            ("burn_in", 2.5),
            ("tail_window", True),
            ("x0_std", True),
            ("x0_std", "0.5"),
        ],
    )
    def test_non_integral_or_bool_settings_rejected(self, name, value):
        settings = {"horizon": 50, "trajectories": 10, name: value}
        with pytest.raises(fl.InvalidModelError, match=name):
            fl.SimulationConfig(**settings)

    def test_numpy_integers_and_whole_floats_accepted(self):
        cfg = fl.SimulationConfig(
            horizon=np.int64(50), trajectories=np.int32(10), seed=np.uint8(3),
            burn_in=5.0, tail_window=np.float64(20.0), x0_std=np.float32(0.5),
        )
        fields = (cfg.horizon, cfg.trajectories, cfg.seed, cfg.burn_in, cfg.tail_window)
        assert fields == (50, 10, 3, 5, 20) and cfg.x0_std == 0.5
        assert all(type(v) is int for v in fields)


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
        # per step (the loop evaluates 2d + (d' - 2d), not d' directly). With
        # one trajectory the per-step sup norm is |e_k| itself.
        dist = fl.GaussianIID(0.7)
        cfg = fl.SimulationConfig(
            horizon=12, trajectories=1, seed=9, p_list=(math.inf,), burn_in=0, tail_window=12
        )
        result = fl.run_closed_loop(scalar_plant(2.0), StaticGain(2.0), dist, cfg)
        (d,) = disturbance_matrix(dist, 9, 1, 12)
        expected = d.copy()
        expected[1:] = (-2.0 * d[:-1]) + d[1:]
        np.testing.assert_allclose(
            result.error_norms[math.inf], np.abs(expected), rtol=1e-12, atol=1e-14
        )

    def test_deadbeat_output_identity(self):
        dist = fl.GaussianIID(0.7)
        cfg = fl.SimulationConfig(
            horizon=12, trajectories=1, seed=9, p_list=(math.inf,), burn_in=0, tail_window=12
        )
        result = fl.run_closed_loop(scalar_plant(2.0), StaticGain(2.0), dist, cfg)
        (d,) = disturbance_matrix(dist, 9, 1, 12)
        expected_abs_y = np.zeros(12)
        expected_abs_y[1:] = np.abs(d[:-1])  # y_k = x_k = d_{k-1}
        np.testing.assert_allclose(
            result.output_norms[math.inf], expected_abs_y, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(
            result.mean_square_state[1:], d[:-1] ** 2, rtol=1e-12
        )

    def test_tail_statistic_is_pooled(self, monkeypatch):
        # Finite p: the norm of every tail magnitude together, all steps
        # and trajectories; p = inf: the window's largest per-step maximum.
        tails = recording_tails(monkeypatch)
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=16, seed=3, p_list=(1.0, 2.0, 7.0, math.inf)
        )
        result = fl.run_closed_loop(
            scalar_plant(0.5), StaticGain(0.4), fl.GaussianIID(1.0), cfg
        )
        blocks = tails(result)
        window = slice(result.tail_start, None)
        assert result.tail_start == 24
        for p in (1.0, 2.0, 7.0):
            for tail, block in zip((result.error_tail, result.output_tail), blocks):
                assert tail[p] == pytest.approx(fl.empirical_lp(block, p), rel=1e-13)
        assert result.error_tail[math.inf] == np.max(result.error_norms[math.inf][window])
        assert result.output_tail[math.inf] == np.max(result.output_norms[math.inf][window])
        assert result.error_tail[math.inf] == blocks[0].max()

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
        ]
        assert len(set(firsts)) == len(firsts)
        # Why the chunk goes in the spawn key: SeedSequence pads its entropy
        # with zeros, so an entropy tuple (seed, 0) is the plain seed's stream.
        assert np.random.default_rng((seed, 0)).random() == firsts[3]

    def test_initial_states_come_from_their_own_stream(self, monkeypatch):
        # y_0 = C x_0 and, in open loop, e_k = d_k: both against the oracle
        # draws of their own streams, across three chunks of 64.
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        tails = recording_tails(monkeypatch)
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        dist = fl.GaussianIID(1.0)
        cfg = fl.SimulationConfig(
            horizon=3, trajectories=150, seed=8, burn_in=0, tail_window=3, x0_std=0.7
        )
        tail_e, tail_y = tails(fl.run_closed_loop(plant, ZeroController(), dist, cfg))

        x0 = initial_states(cfg.x0_std, cfg.seed, cfg.trajectories, 2)
        np.testing.assert_allclose(
            tail_y[0], np.abs(x0 @ plant.C.ravel()), rtol=1e-14, atol=0.0
        )
        d = disturbance_matrix(dist, cfg.seed, cfg.trajectories, cfg.horizon)
        assert tail_e.tobytes() == np.abs(d).T.tobytes()

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
        tails = recording_tails(monkeypatch)
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        dist = fl.GeneralizedGaussianIID(4.0, 1.0)

        def run(trajectories):
            cfg = fl.SimulationConfig(
                horizon=8, trajectories=trajectories, seed=4, burn_in=0, tail_window=8,
                x0_std=x0_std,
            )
            return tails(fl.run_closed_loop(plant, StaticGain(0.3), dist, cfg))

        few, many = run(short), run(long)
        assert few.tobytes() == many[:, :, :short].tobytes()
        # The output's first row is |C x_0|: zero unless initial states are drawn.
        assert (few[1, 0] > 0.0).all() == (x0_std > 0.0)

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
        tails = recording_tails(monkeypatch)
        cfg = fl.SimulationConfig(horizon=9, trajectories=150, seed=6, burn_in=0, tail_window=9)
        tail_e, _ = tails(fl.run_closed_loop(scalar_plant(0.5), ZeroController(), dist, cfg))
        rows = []
        for chunk, count in enumerate((100, 50)):
            rng = _chunk_stream(cfg.seed, _DISTURBANCE, chunk)
            rows += [draw(rng, cfg.horizon) for _ in range(count)]
        assert tail_e.tobytes() == np.abs(np.stack(rows)).T.tobytes()

    def test_model_with_only_sample_is_called_once_per_trajectory(self, monkeypatch):
        # 150 trajectories in chunks of 64 end in a ragged chunk of 22: a
        # model without sample_rows is asked for those 22 rows, not 64.
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        tails = recording_tails(monkeypatch)
        calls = []

        class OnlySample:
            def sample(self, rng, length):
                calls.append(length)
                return fl.GaussianIID(1.0).sample(rng, length)

        cfg = fl.SimulationConfig(horizon=7, trajectories=150, seed=2, burn_in=0, tail_window=7)
        result = fl.run_closed_loop(scalar_plant(0.5), ZeroController(), OnlySample(), cfg)
        assert calls == [cfg.horizon] * cfg.trajectories
        d = disturbance_matrix(OnlySample(), cfg.seed, cfg.trajectories, cfg.horizon)
        assert tails(result)[0].tobytes() == np.abs(d).T.tobytes()


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

    def test_power_of_two_scaling_is_exact_prenorm(self, monkeypatch):
        tails = recording_tails(monkeypatch)
        cfg = fl.SimulationConfig(horizon=30, trajectories=64, seed=8, burn_in=0, tail_window=30)
        base = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(1.0), cfg
        )
        base_tails = tails(base)
        scaled = fl.run_closed_loop(
            scalar_plant(1.2), StaticGain(1.0), fl.GaussianIID(2.0), cfg
        )
        np.testing.assert_array_equal(tails(scaled), 2.0 * base_tails)
        # The summaries' power sums are scale-free and their peaks scale.
        np.testing.assert_array_equal(scaled.tail_abs_error[:-1], base.tail_abs_error[:-1])
        np.testing.assert_array_equal(scaled.tail_abs_error[-1], 2.0 * base.tail_abs_error[-1])


def open_loop_verdict(dist, p, horizon, trajectories, seed=3, tail_window=None):
    """``verify_bound`` of ``dist``'s own T1 floor on plant 0.5 with ``ZeroController``."""
    plant = scalar_plant(0.5)
    cfg = fl.SimulationConfig(
        horizon=horizon, trajectories=trajectories, seed=seed, p_list=(p,),
        tail_window=tail_window,
    )
    result = fl.run_closed_loop(plant, ZeroController(), dist, cfg)
    report = fl.error_bound_lti(p, fl.analyze_plant(plant), fl.entropy_summary(dist))
    return fl.verify_bound(result, report)


class TestScaleFreeVerdict:
    """The floor and the tail norm scale together, so the verdict has no units.

    Scales stop at 1e6: at sigma = 1e153 the mean-square state leaves float
    range and ``stable`` refuses the run, until it is taken scaled as well.
    """

    @given(
        s=st.floats(min_value=1e-6, max_value=1e6),
        p=st.sampled_from([1.0, 2.0, 7.0, 300.0, math.inf]),
    )
    @settings(max_examples=25, deadline=None)
    def test_verdict_does_not_change_under_scaling(self, s, p):
        base = open_loop_verdict(fl.GaussianIID(1.0), p, 30, 200)
        scaled = open_loop_verdict(fl.GaussianIID(1.0).scaled(s), p, 30, 200)
        assert math.isfinite(scaled.ratio)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-9)
        assert scaled.margin_stderr == pytest.approx(base.margin_stderr, rel=1e-9)
        assert scaled.satisfied == base.satisfied

    @pytest.mark.parametrize(
        "sigma, p, ratio",
        [(1e3, 300.0, 2.20806), (1e152, 2.0, 0.999635)],
        ids=["p300-sigma1e3", "p2-sigma1e152"],
    )
    def test_large_scales_keep_a_finite_ratio(self, sigma, p, ratio):
        # Pooled sums of |e|^p overflowed here, and the ratio read inf.
        big = open_loop_verdict(fl.GaussianIID(sigma), p, 200, 4000, tail_window=40)
        unit = open_loop_verdict(fl.GaussianIID(1.0), p, 200, 4000, tail_window=40)
        assert big.ratio == pytest.approx(ratio, rel=1e-5)
        assert big.ratio == pytest.approx(unit.ratio, rel=1e-9)
        assert big.margin_stderr == pytest.approx(unit.margin_stderr, rel=1e-9)
        assert big.satisfied and unit.satisfied


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
        tails = recording_tails(monkeypatch)
        KEPT_MEASUREMENTS.clear()
        plant = fl.StateSpaceModel([[0.5, 0.2], [1.0, 0.0]], [1.0, 0.0], [1.0, -0.3])
        cfg = fl.SimulationConfig(
            horizon=30, trajectories=500, seed=9, burn_in=0, tail_window=30, x0_std=1.0
        )
        result = fl.run_closed_loop(plant, KeepingGain(0.2), fl.GaussianIID(1.0), cfg)
        assert result.diverged == 0 and len(KEPT_MEASUREMENTS) == cfg.horizon
        kept = np.stack([y for y, _ in KEPT_MEASUREMENTS])
        assert kept.tobytes() == np.stack([c for _, c in KEPT_MEASUREMENTS]).tobytes()
        assert np.abs(kept).tobytes() == tails(result)[1].tobytes()


class TestScalarControllerFallback:
    def test_matches_manual_loop(self, monkeypatch):
        tails = recording_tails(monkeypatch)
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
        np.testing.assert_allclose(tails(result)[0], expected, rtol=1e-12, atol=0.0)

    def test_scalar_path_is_bit_identical_to_batch(self, monkeypatch):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        tails = recording_tails(monkeypatch)
        plant, dist, cfg = diverging_loop()
        scalar = fl.run_closed_loop(plant, ScalarGain(DIVERGING_GAIN), dist, cfg)
        scalar_tails = tails(scalar)
        batch = fl.run_closed_loop(plant, StaticGain(DIVERGING_GAIN), dist, cfg)

        assert 0 < scalar.diverged == batch.diverged < cfg.trajectories
        for p in cfg.p_list:
            assert scalar.error_norms[p].tobytes() == batch.error_norms[p].tobytes()
            assert scalar.output_norms[p].tobytes() == batch.output_norms[p].tobytes()
        assert scalar_tails.tobytes() == tails(batch).tobytes()
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
        tails = recording_tails(monkeypatch)
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
                    tail_e.append(magnitudes)
                    tail_y.append(np.where(alive, np.abs(y), 0.0))
                x = 3.0 * x + e

        assert chunked.diverged == int((~alive).sum()) > 0
        assert tails(chunked).tobytes() == np.array([tail_e, tail_y]).tobytes()
        assert chunked.error_norms[1.0].tobytes() == (sums / chunked.alive_counts).tobytes()


class TestTailRows:
    """A chunk keeps its tail magnitudes in disturbance rows it has already read."""

    @pytest.mark.parametrize("tail", [1, 10, 25, 26, 50])
    @pytest.mark.parametrize(
        "controller", [ZeroController(), ScalarGain(0.0)], ids=["batch", "per_trajectory"]
    )
    def test_tail_summaries_match_recomputed_magnitudes(self, tail, controller):
        # One chunk of 100 trajectories, whose last staging block is ragged.
        # A zero command on plant 0.5 gives e = d and y_{k+1} = 0.5 y_k + e_k.
        cfg = fl.SimulationConfig(
            horizon=50, trajectories=100, seed=4, p_list=(1.0, 2.0, 4.0, math.inf),
            burn_in=0, tail_window=tail,
        )
        result = fl.run_closed_loop(scalar_plant(0.5), controller, AR2, cfg)
        e = disturbance_matrix(AR2, cfg.seed, cfg.trajectories, cfg.horizon).T
        y = np.zeros_like(e)
        for k in range(1, cfg.horizon):
            y[k] = 0.5 * y[k - 1] + e[k - 1]
        for summary, signal in ((result.tail_abs_error, e), (result.tail_abs_output, y)):
            magnitudes = np.ascontiguousarray(np.abs(signal[cfg.horizon - tail :]))
            want = simulation._tail_summary(magnitudes, cfg.p_list)
            assert summary.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [40, 100])
    def test_chunk_peak_stays_near_its_disturbance_block(self, tail):
        # numpy reports its buffers to tracemalloc. The (200, 2048) block is
        # the chunk's one large array: the tail magnitudes reuse its rows,
        # where a (2, tail, 2048) buffer of their own would add 0.4 or 1.0
        # block.
        cfg = fl.SimulationConfig(horizon=200, trajectories=2048, seed=1, tail_window=tail)
        args = (scalar_plant(0.5), StaticGain(0.2), fl.GaussianIID(1.0), cfg, (0, 2048))
        simulation._simulate_chunk(*args)  # keeps one-time allocations out of the peak
        tracemalloc.start()
        try:
            simulation._simulate_chunk(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * cfg.horizon * 2048 * 8


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
        # A tail window just over half the horizon: |y| goes to appended rows.
        wide_cfg = fl.SimulationConfig(
            horizon=50, trajectories=300, seed=3, p_list=(1.0, 2.0, math.inf),
            burn_in=0, tail_window=26,
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
            wide = fl.run_closed_loop(scalar_plant(0.5), StaticGain(0.2), stable_dist, wide_cfg)
            certs = [fl.verify_bound(r, report) for r in (stable, wide) for report in reports]
            pids = set(log.read_text(encoding="utf-8").split())
            return result_bytes(diverging), result_bytes(stable), result_bytes(wide), certs, pids

        serial, forked = run(1), run(2)
        assert 0 < serial[0][4] < cfg.trajectories
        assert serial[:4] == forked[:4]
        assert serial[4] == {str(os.getpid())}
        assert len(forked[4]) == 2 and str(os.getpid()) not in forked[4]

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

    def test_chunks_in_flight_are_bounded(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        submitted = []
        submit = ProcessPoolExecutor.submit

        def counting_submit(pool, fn, *args, **kwargs):
            submitted.append(args[0])
            return submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        use_cpus(monkeypatch, 2)
        spans = list(range(20))
        results, ahead = [], []
        for result in simulation._map_chunks(str, spans):
            results.append(result)
            ahead.append(len(submitted) - len(results))
        assert results == [str(span) for span in spans]
        assert submitted == spans
        # Two chunks per worker wait behind each one yielded, until none are left.
        assert ahead == [4] * 16 + [3, 2, 1, 0]
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
        # (_CHUNK, horizon) block; with workers, only the small statistics,
        # the run's tail summaries and the chunks' summaries in flight,
        # which it copies into their columns.
        cfg = fl.SimulationConfig(horizon=50, trajectories=2 * simulation._CHUNK, seed=1)
        block = simulation._CHUNK * cfg.horizon * 8
        peaks = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                result = fl.run_closed_loop(
                    scalar_plant(0.5), StaticGain(0.2), fl.GaussianIID(1.0), cfg
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        summaries = result.tail_abs_error.nbytes + result.tail_abs_output.nbytes
        assert peaks[0] > block > 4 * (peaks[1] - 2 * summaries)

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


def overflowing_pin_loop():
    # The stable loop on a shape-300 disturbance with lp_norm 9: every entry
    # stays finite, but |e|^300 and |y|^300 overflow from a few steps in, so
    # chunks leave the unmasked path while no trajectory has died.
    plant, spec, arma, _, _ = stable_pin_loop()
    cfg = fl.SimulationConfig(
        horizon=60, trajectories=300, seed=7, p_list=(300.0, math.inf), x0_std=1.0
    )
    return plant, spec, arma, fl.GeneralizedGaussianIID(300.0, 9.0), cfg


@dataclasses.dataclass(frozen=True)
class CappedGeneralizedGaussian(fl.GeneralizedGaussianIID):
    """Generalized Gaussian draws, each one past ``limit`` in magnitude made infinite."""

    limit: float = math.inf

    def sample_rows(self, rng, out):
        super().sample_rows(rng, out)
        out[np.abs(out) > self.limit] = np.inf


def dying_pin_loop():
    # The stable loop with its largest draw made infinite: one trajectory
    # dies mid-chunk, at that draw's step, and the rest live on.
    plant, spec, arma, dist, cfg = stable_pin_loop()
    peak = np.abs(disturbance_matrix(dist, cfg.seed, cfg.trajectories, cfg.horizon)).max()
    capped = CappedGeneralizedGaussian(dist.shape, dist.lp_norm, np.nextafter(peak, 0.0))
    return plant, spec, arma, capped, cfg


def replay_summary(block, orders):
    """Each column's tail power sums of |x| / peak, then its peak, as ``**`` gives them."""
    peak = block.max(axis=0)
    base = block / np.where(peak > 0.0, peak, 1.0)
    sums = [squared_power(base, p).sum(axis=0) for p in orders if not math.isinf(p)]
    return np.array(sums + [peak])


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
                    tails[:, k - tail_start, lo:hi] = mag
                x = plant.A @ x + plant.B * e
            for p in sums:
                sums[p] += part[p]
            np.maximum(maxes, part_max, out=maxes)
            counts += part_counts
            sum_sq += part_sq
            diverged += int((~alive).sum())
        norms = {p: (total / counts) ** (1.0 / p) for p, total in sums.items()}
        norms[math.inf] = maxes
        mean_sq = sum_sq / counts
    summaries = [replay_summary(block, cfg.p_list) for block in tails]
    # Pooled over the window for finite p, the largest peak for inf: off the
    # summaries, in units of the largest peak, over tail_window x n entries.
    tail_stat = {p: [] for p in cfg.p_list}
    for summary in summaries:
        scale = float(summary[-1].max()) or 1.0
        rel = summary[-1] / scale
        for p, row in zip(cfg.p_list, summary):
            pooled = rel.max() if math.isinf(p) else (
                (float((row * squared_power(rel, p)).mean()) / cfg.tail_window) ** (1.0 / p)
            )
            tail_stat[p].append(pooled * scale)
    arrays = [mean_sq, counts] + summaries
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
    @pytest.mark.parametrize(
        "loop",
        [pin_loop, stable_pin_loop, overflowing_pin_loop, dying_pin_loop],
        ids=["diverging", "stable", "overflowing", "one_death"],
    )
    def test_loop_matches_replay(self, monkeypatch, loop, cpus):
        monkeypatch.setattr("fundlim.simulation._CHUNK", 64)
        use_cpus(monkeypatch, cpus)
        plant, spec, (b, a), dist, cfg = loop()
        result = fl.run_closed_loop(plant, fl.parse_controller(spec), dist, cfg)
        if loop is pin_loop:
            assert 0 < result.diverged < cfg.trajectories
            assert result.alive_counts[cfg.horizon - cfg.tail_window] > result.alive_counts[-1]
        elif loop is overflowing_pin_loop:
            assert result.stable
            for norms in (result.error_norms[300.0], result.output_norms[300.0]):
                assert math.isfinite(norms[0]) and np.isinf(norms).any()
        elif loop is dying_pin_loop:
            assert result.diverged == 1
            assert result.alive_counts[0] == cfg.trajectories
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
            # In place, as the tail statistic takes them, the powers are the same.
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

    def test_sup_norm_slack_floor(self, stable_run, monkeypatch):
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
        # The floor is read at call time: widening it flips the same
        # comparison, once it covers the gap and not before.
        for slack, satisfied in ((0.5, True), (1.01 * gap, True), (0.99 * gap, False)):
            monkeypatch.setattr(simulation, "SUP_NORM_SLACK", slack)
            assert fl.verify_bound(stable_run, shaped(far_ratio)).satisfied is satisfied

    def test_output_side_selector(self, stable_run):
        report = fl.error_bound_for_entropy(2.0, -8.0)  # tiny bound, trivially met
        cert = fl.verify_bound(stable_run, report, which="output")
        assert cert.which == "output"
        assert cert.satisfied
        with pytest.raises(ValueError):
            fl.verify_bound(stable_run, report, which="state")

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
    # Cauchy magnitudes, so a few trajectories stand out.
    return np.abs(np.random.default_rng(seed).standard_cauchy((tail_window, trajectories)))


def synthetic_tails(trajectories, tail_window=5):
    """Error and output heavy_tail magnitudes, (2, tail_window, trajectories)."""
    return np.stack([heavy_tail(trajectories, tail_window, seed) for seed in (4, 5)])


def synthetic_result(trajectories, tail_window=5, orders=ORDERS):
    """A stable SimulationResult around the synthetic_tails summaries."""
    cfg = fl.SimulationConfig(
        horizon=tail_window, trajectories=trajectories, burn_in=0,
        tail_window=tail_window, p_list=orders,
    )
    tails = [
        simulation._tail_summary(block, cfg.p_list)
        for block in synthetic_tails(trajectories, tail_window)
    ]
    return simulation.SimulationResult(
        config=cfg,
        error_norms={},
        output_norms={},
        error_tail={p: 1.0 for p in cfg.p_list},
        output_tail={p: 1.0 for p in cfg.p_list},
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


def replayed_std(block, p, seed_key, resamples):
    """Std of a trajectory bootstrap of a (tail, n) block, resample by resample.

    Each resample is the block's trajectories repeated by their pick counts,
    and its statistic one empirical norm over every step and trajectory.
    """
    counts = replayed_counts(seed_key, block.shape[1], resamples)
    return float(np.std([fl.empirical_lp(np.repeat(block, row, axis=1), p) for row in counts]))


def closed_form(block, p):
    """The tail statistic and closed-form std at order p alone of a (tail, n) block."""
    summary = simulation._tail_summary(block, (p,))
    return simulation._tail_moments(summary, (p,), len(block))[p]


class TestTailSummary:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 7.0, 300.0, math.inf])
    def test_columns_match_empirical_lp(self, p):
        # Column j holds trajectory j's tail norm as peak (sum / tail)^(1/p).
        tail = heavy_tail(200, tail_window=7)
        tail[:, 3] = 0.0
        summary = simulation._tail_summary(tail, (1.0, 2.0, 4.0, 7.0, 300.0, math.inf))
        assert summary.shape == (6, 200)
        peak = summary[-1]
        assert peak.tobytes() == tail.max(axis=0).tobytes()
        for j in range(200):
            want = fl.empirical_lp(tail[:, j], p)
            if math.isinf(p):
                assert peak[j] == want
                continue
            row = (1.0, 2.0, 4.0, 7.0, 300.0).index(p)
            got = peak[j] * (summary[row, j] / 7) ** (1.0 / p)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_zero_column(self):
        # A zero peak divides by 1.0: the column's sums and peak are 0.
        tail = heavy_tail(5)
        tail[:, 2] = 0.0
        summary = simulation._tail_summary(tail, ORDERS)
        assert (summary[:, 2] == 0.0).all()
        assert (summary[:, [0, 1, 3, 4]] > 0.0).all()
        assert (simulation._tail_summary(np.zeros((3, 4)), ORDERS) == 0.0).all()

    @pytest.mark.parametrize("c", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
    def test_scaling_is_exact(self, c):
        # Sums of (|x| / peak)^p do not change, and peaks scale exactly.
        tail = heavy_tail(TRAJECTORIES)
        orders = (1.0, 2.0, 4.0, 7.0, 300.0, math.inf)
        base = simulation._tail_summary(tail, orders)
        scaled = simulation._tail_summary(c * tail, orders)
        assert scaled[:-1].tobytes() == base[:-1].tobytes()
        assert scaled[-1].tobytes() == (c * base[-1]).tobytes()


class TestClosedFormMargin:
    """The closed-form bootstrap margin of ``verify_bound``, ``_tail_moments``."""

    @pytest.mark.parametrize(
        "law, p",
        [
            ("gauss", 1.0),
            ("gauss", 2.0),
            ("gauss", 7.0),
            ("gauss", math.inf),
            ("gengauss4", 4.0),
        ],
    )
    def test_std_matches_a_resample_replay(self, law, p):
        # The closed form is the limit of the replayed bootstrap as its
        # resamples grow; 4000 of them read the std within about 2%.
        rng = np.random.default_rng(0)
        if law == "gauss":
            block = np.abs(rng.standard_normal((4, 1024)))
        else:
            block = np.abs(fl.GeneralizedGaussianIID(4.0, 1.0).sample(rng, 4096)).reshape(4, 1024)
        stat, std = closed_form(block, p)
        assert stat == pytest.approx(fl.empirical_lp(block, p), rel=1e-13)
        assert std == pytest.approx(replayed_std(block, p, (0, 7), 4000), rel=0.05)

    def test_sup_std_is_the_exact_bootstrap_below_64_trajectories(self):
        # With n < 64 every peak carries weight and the weights sum to 1:
        # the std is that of the maximum over all n^n resamples.
        peaks = np.array([[0.3, 1.7, 0.9, 1.2, 0.5]])
        maxima = [peaks[0, list(picks)].max() for picks in itertools.product(range(5), repeat=5)]
        stat, std = closed_form(peaks, math.inf)
        assert stat == 1.7
        assert std == pytest.approx(float(np.std(maxima)), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_one_trajectory_has_zero_std(self, p):
        block = heavy_tail(1)
        stat, std = closed_form(block, p)
        assert stat == pytest.approx(fl.empirical_lp(block, p), rel=1e-13)
        assert std == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 7.0, 300.0, math.inf])
    @pytest.mark.parametrize("c", [2.0**-600, 2.0**600], ids=["2^-600", "2^600"])
    def test_margin_is_scale_free(self, c, p):
        # A power-of-two scale is exact in every step, so equality is exact.
        tail = heavy_tail(TRAJECTORIES)
        base = closed_form(tail, p)
        assert base[1] > 0.0
        assert closed_form(c * tail, p) == (c * base[0], c * base[1])

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_zero_block_has_zero_margin(self, p):
        assert closed_form(np.zeros((3, TRAJECTORIES)), p) == (0.0, 0.0)

    def test_repeat_calls_byte_identical(self):
        result = synthetic_result(TRAJECTORIES)
        for p in ORDERS:
            for which in ("error", "output"):
                a = fl.verify_bound(result, unit_report(p), which=which)
                b = fl.verify_bound(result, unit_report(p), which=which)
                assert a.margin_stderr > 0.0
                assert np.float64(a.margin_stderr).tobytes() == np.float64(b.margin_stderr).tobytes()

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_summary_bytes_do_not_grow_with_the_tail_window(self, p):
        # A run keeps (finite orders + 1) floats per trajectory and signal,
        # whatever the tail window.
        sizes = []
        for tail_window in (20, 200):
            cfg = fl.SimulationConfig(
                horizon=tail_window, trajectories=300, seed=1, p_list=(p,), burn_in=0,
                tail_window=tail_window,
            )
            result = fl.run_closed_loop(
                scalar_plant(0.5), ZeroController(), fl.GaussianIID(1.0), cfg
            )
            fl.verify_bound(result, unit_report(p))
            sizes.append((result.tail_abs_error.nbytes, result.tail_abs_output.nbytes))
        rows = 1 if math.isinf(p) else 2
        assert sizes == [(rows * 300 * 8,) * 2] * 2

    def test_summaries_past_an_array_rejected(self):
        # Two signals' (len(p_list) + 1, trajectories) float64 summaries
        # past sys.maxsize bytes are refused before anything runs.
        with pytest.raises(fl.InvalidModelError, match="trajectories .* tail arrays"):
            fl.SimulationConfig(horizon=400, trajectories=2**59)
        # A one-step tail holds fewer floats than the summaries: 16 bytes
        # of tail per trajectory, 32 of summaries.
        with pytest.raises(fl.InvalidModelError, match="trajectories .* tail arrays"):
            fl.SimulationConfig(horizon=400, trajectories=2**58 + 1, tail_window=1)


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
