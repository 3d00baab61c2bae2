"""Disturbance models: densities, entropies, samplers, spectra, Szego route."""

import dataclasses
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import fundlim as fl
from conftest import lfilter_ar_sample
from fundlim.disturbance import _MODEL_TAGS, GAUSSIAN_ENTROPY_BITS, _ziggurat


JSON_MODELS = [
    fl.GaussianIID(1.5),
    fl.UniformIID(0.25),
    fl.GeneralizedGaussianIID(3.0, 2.0),
    fl.GaussianAR((0.5, -0.25), 1.1),
]


class TestMaxEntropyDensity:
    def test_gaussian_member_peak(self):
        assert fl.max_entropy_pdf(2.0, 1.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )

    def test_laplace_member_peak(self):
        assert fl.max_entropy_pdf(1.0, 1.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_uniform_limit(self):
        assert fl.max_entropy_pdf(math.inf, 1.0, 0.5) == 0.5
        assert fl.max_entropy_pdf(math.inf, 1.0, -0.5) == 0.5
        assert fl.max_entropy_pdf(math.inf, 1.0, 1.5) == 0.0

    def test_vectorized(self):
        x = np.linspace(-2, 2, 11)
        out = fl.max_entropy_pdf(4.0, 0.7, x)
        assert out.shape == x.shape
        assert np.all(out >= 0)
        np.testing.assert_allclose(out, out[::-1], rtol=1e-13)  # even function

    def test_rejects_bad_order(self):
        with pytest.raises(fl.InvalidNormOrderError):
            fl.max_entropy_pdf(0.5, 1.0, 0.0)
        with pytest.raises(fl.InvalidNormOrderError):
            fl.max_entropy_value(0.99, 1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(fl.InvalidModelError):
            fl.max_entropy_pdf(2.0, 0.0, 0.0)
        with pytest.raises(fl.InvalidModelError):
            fl.max_entropy_value(2.0, -1.0)

    def test_high_order_far_inside_its_scale(self):
        # lp_norm**p is 1e600 here; the density itself is about 1 / (2 lp_norm).
        density = fl.max_entropy_pdf(300.0, 100.0, 1.0)
        assert math.isfinite(density) and density > 0.0
        assert density == pytest.approx(1.0 / (2.0 * 100.0), rel=0.05)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_matches_unscaled_exponent(self, p):
        # Out to 2.5 lp_norm, where exp() turns the exponents' last-bit
        # rounding into less than 1e-14 of the density.
        lp_norm = 1.7
        x = np.linspace(-2.5, 2.5, 41) * lp_norm
        height = 2.0 * math.gamma((p + 1.0) / p) * p ** (1.0 / p) * lp_norm
        expected = np.exp(-np.abs(x) ** p / (p * lp_norm**p)) / height
        np.testing.assert_allclose(fl.max_entropy_pdf(p, lp_norm, x), expected, rtol=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 10.0])
    @pytest.mark.parametrize("lp_norm", [0.5, 1.0, 2.5])
    def test_normalization_moment_entropy(self, p, lp_norm):
        # Quadrature oracle on the half line (the density is even).
        mass, _ = integrate.quad(lambda x: fl.max_entropy_pdf(p, lp_norm, x), 0, np.inf)
        assert 2.0 * mass == pytest.approx(1.0, abs=1e-8)

        moment, _ = integrate.quad(
            lambda x: x**p * fl.max_entropy_pdf(p, lp_norm, x), 0, np.inf
        )
        assert 2.0 * moment == pytest.approx(lp_norm**p, rel=1e-7)

        def nll(x):
            f = fl.max_entropy_pdf(p, lp_norm, x)
            return -f * math.log2(f) if f > 0 else 0.0

        entropy, _ = integrate.quad(nll, 0, np.inf)
        assert 2.0 * entropy == pytest.approx(fl.max_entropy_value(p, lp_norm), rel=1e-7)


class TestMaxEntropyValue:
    def test_gaussian_identity(self):
        for sigma in (0.5, 1.0, 3.0):
            assert fl.max_entropy_value(2.0, sigma) == pytest.approx(
                GAUSSIAN_ENTROPY_BITS + math.log2(sigma), rel=1e-12, abs=1e-12
            )

    def test_uniform_and_laplace_values(self):
        assert fl.max_entropy_value(math.inf, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert fl.max_entropy_value(1.0, 1.0) == pytest.approx(math.log2(2.0 * math.e), rel=1e-12)

    def test_order_where_p_times_e_overflows(self):
        # p e overflows past p ~ 6.6e307; the uniform limit is 1 bit.
        assert fl.max_entropy_value(1e308, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert fl.GeneralizedGaussianIID(1e308, 1.0).conditional_entropy_rate() == pytest.approx(
            1.0, abs=1e-15
        )

    @given(
        p=st.floats(min_value=1.0, max_value=50.0),
        lp_norm=st.floats(min_value=1e-2, max_value=1e2),
        scale=st.floats(min_value=1e-2, max_value=1e2),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_shifts_entropy_by_log(self, p, lp_norm, scale):
        base = fl.max_entropy_value(p, lp_norm)
        moved = fl.max_entropy_value(p, scale * lp_norm)
        assert moved == pytest.approx(base + math.log2(scale), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 300.0, 1e6])
def test_gamma_values_match_scipy_special(p):
    gamma = special.gamma((p + 1.0) / p)
    cp = 1.0 / (2.0 * gamma * (p * math.e) ** (1.0 / p))
    assert fl.cp_constant(p) == pytest.approx(cp, rel=1e-14, abs=0)
    for lp_norm in (1e-3, 1.0, 2.5):
        entropy = math.log2(2.0 * gamma * lp_norm) + math.log2(p * math.e) / p
        assert fl.max_entropy_value(p, lp_norm) == pytest.approx(entropy, rel=1e-14, abs=0)
        variance = (
            p ** (2.0 / p)
            * lp_norm**2
            * math.exp(special.gammaln(3.0 / p) - special.gammaln(1.0 / p))
        )
        assert fl.GeneralizedGaussianIID(p, lp_norm).variance() == pytest.approx(
            variance, rel=1e-14, abs=0
        )


class TestSamplers:
    def test_deterministic_in_seed(self):
        for model in (
            fl.GaussianIID(1.3),
            fl.UniformIID(0.7),
            fl.GeneralizedGaussianIID(4.0, 1.0),
            fl.GaussianAR((0.9,), 1.0),
        ):
            a = model.sample(42, 257)
            b = model.sample(42, 257)
            c = model.sample(43, 257)
            assert a.shape == (257,)
            np.testing.assert_array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_generator_seed_continues_its_stream(self):
        # The simulator hands one generator to every trajectory of a chunk.
        for model in (
            fl.GaussianIID(1.3),
            fl.UniformIID(0.7),
            fl.GeneralizedGaussianIID(4.0, 1.0),
            fl.GaussianAR((0.9, -0.2), 1.0),
        ):
            rng = np.random.default_rng(42)
            first, second = model.sample(rng, 257), model.sample(rng, 257)
            np.testing.assert_array_equal(first, model.sample(42, 257))
            assert not np.array_equal(first, second)

    def test_gaussian_moments(self):
        x = fl.GaussianIID(1.0).sample(0, 1_000_000)
        assert np.mean(x) == pytest.approx(0.0, abs=0.005)
        assert np.var(x) == pytest.approx(1.0, abs=0.01)

    def test_uniform_support_and_variance(self):
        x = fl.UniformIID(0.7).sample(1, 500_000)
        assert np.max(np.abs(x)) <= 0.7
        assert np.var(x) == pytest.approx(0.7**2 / 3.0, rel=0.01)

    def test_gengauss_moment_constraint(self):
        model = fl.GeneralizedGaussianIID(4.0, 1.0)
        x = model.sample(2, 1_000_000)
        assert np.mean(np.abs(x) ** 4) == pytest.approx(1.0, rel=0.02)
        assert np.mean(x) == pytest.approx(0.0, abs=0.005)
        assert np.var(x) == pytest.approx(model.variance(), rel=0.01)

    def test_gengauss_p2_is_gaussian(self):
        x = fl.GeneralizedGaussianIID(2.0, 1.5).sample(3, 500_000)
        assert np.var(x) == pytest.approx(1.5**2, rel=0.01)
        # Fourth moment of a Gaussian: 3 sigma^4.
        assert np.mean(x**4) == pytest.approx(3.0 * 1.5**4, rel=0.03)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 7.0])
    def test_gengauss_matches_scipy_gennorm(self, p):
        # exp(-|x|^p / (p lp_norm^p)) is gennorm with beta p and scale
        # p^(1/p) lp_norm. The seed dates the draw contract, the ziggurat's.
        lp_norm = 1.3
        x = fl.GeneralizedGaussianIID(p, lp_norm).sample(20261019, 200_000)
        reference = stats.gennorm(beta=p, scale=p ** (1.0 / p) * lp_norm)
        assert stats.kstest(x, reference.cdf).pvalue > 0.01

    def test_ar1_stationary_from_first_sample(self):
        # The sampler starts in the stationary law, so early samples already
        # carry the stationary variance sigma_w^2 / (1 - a^2).
        model = fl.GaussianAR((0.9,), 1.0)
        head = np.array([model.sample(1000 + s, 3)[0] for s in range(20_000)])
        assert np.var(head) == pytest.approx(1.0 / (1.0 - 0.81), rel=0.05)

    def test_ar1_long_run_statistics(self):
        model = fl.GaussianAR((0.9,), 1.0)
        x = model.sample(7, 2_000_000)
        assert np.var(x) == pytest.approx(model.variance(), rel=0.02)
        lag1 = np.mean(x[1:] * x[:-1]) / np.var(x)
        assert lag1 == pytest.approx(0.9, abs=0.01)

    def test_ar2_variance_against_yule_walker(self):
        coeffs = (0.5, -0.25)
        model = fl.GaussianAR(coeffs, 1.3)
        # Oracle: solve the Yule-Walker system for R(0), R(1), R(2) directly.
        a1, a2 = coeffs
        sw2 = 1.3**2
        lhs = np.array(
            [
                [1.0, -a1, -a2],  # R0 = a1 R1 + a2 R2 + sw2
                [-a1, 1.0 - a2, 0.0],  # R1 = a1 R0 + a2 R1
                [-a2, -a1, 1.0],  # R2 = a1 R1 + a2 R0
            ]
        )
        r0 = np.linalg.solve(lhs, np.array([sw2, 0.0, 0.0]))[0]
        assert model.variance() == pytest.approx(r0, rel=1e-10)
        x = model.sample(11, 1_000_000)
        assert np.var(x) == pytest.approx(r0, rel=0.02)

    def test_rejects_bad_length(self):
        for model in JSON_MODELS:
            with pytest.raises(fl.InvalidModelError, match="sample length must be >= 1, got 0"):
                model.sample(0, 0)

    @pytest.mark.parametrize("model", JSON_MODELS, ids=lambda model: model.tag)
    @pytest.mark.parametrize("length", [2.5, True, "3"])
    def test_length_must_be_whole(self, model, length):
        with pytest.raises(fl.InvalidModelError, match="sample length must be a whole number"):
            model.sample(0, length)

    @pytest.mark.parametrize("model", JSON_MODELS, ids=lambda model: model.tag)
    def test_whole_float_and_numpy_lengths_accepted(self, model):
        want = model.sample(3, 5)
        for length in (5.0, np.int64(5), np.uint8(5)):
            assert model.sample(3, length).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "model, draw",
        [(fl.UniformIID(0.7), lambda rng, n: 0.7 * rng.uniform(-1.0, 1.0, n))]
        + [
            (ar, functools.partial(lfilter_ar_sample, ar))
            for ar in (
                fl.GaussianAR((0.9,), 1.3),
                fl.GaussianAR((0.5, -0.25), 1.3),
                fl.GaussianAR((0.5, -0.25, 0.1), 1.3),
            )
        ],
        ids=["uniform", "ar1", "ar2", "ar3"],
    )
    def test_block_is_successive_samples(self, model, draw):
        # A 64-row block is, byte for byte, 64 successive samples from the
        # same generator, and each sample is the reference draw: rng.uniform's,
        # or scipy's lfilter run from the state lfiltic sets, on the same
        # draws and covariance.
        block = np.empty((64, 257))
        model.sample_rows(np.random.default_rng(42), block)
        rng = np.random.default_rng(42)
        rows = np.stack([model.sample(rng, 257) for _ in range(64)])
        assert block.tobytes() == rows.tobytes()
        rng = np.random.default_rng(42)
        draws = np.stack([draw(rng, 257) for _ in range(64)])
        assert rows.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("order", range(1, 13))
    def test_ar_covariance_matches_discrete_lyapunov(self, order):
        # The Yule-Walker covariance against scipy's companion-form Lyapunov
        # solve. Both lose digits in proportion to the covariance's
        # condition number, which clustered roots drive up (at 1e9 the two
        # differ by ~1e-9), so the roots here are spread: conjugate pairs
        # at evenly spaced angles, moduli 0.95 down to 0.65, and 0.95 at
        # odd orders.
        pairs = order // 2
        angles = np.pi * np.arange(1, pairs + 1) / (pairs + 1)
        moduli = 0.95 - 0.3 * np.arange(pairs) / max(pairs, 1)
        upper = moduli * np.exp(1j * angles)
        roots = np.concatenate([upper, upper.conj(), [0.95] * (order % 2)])
        coeffs = tuple(-np.poly(roots).real[1:])
        companion = np.zeros((order, order))
        companion[0] = coeffs
        companion[1:, :-1] = np.eye(order - 1)
        noise = np.zeros((order, order))
        noise[0, 0] = 1.0
        want = scipy.linalg.solve_discrete_lyapunov(companion, noise)
        got = fl.GaussianAR(coeffs, 1.0)._unit_lag_covariance
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "model",
        [
            fl.UniformIID(0.7),
            fl.GeneralizedGaussianIID(4.0, 1.3),
            fl.GaussianAR((0.5, -0.25), 1.3),
        ],
        ids=["uniform", "gengauss", "ar"],
    )
    def test_one_row_block_is_sample(self, model):
        out = np.empty((1, 257))
        model.sample_rows(np.random.default_rng(42), out)
        assert out[0].tobytes() == model.sample(42, 257).tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, 7.0])
    def test_gengauss_block_moments(self, p):
        # |d|^p / (p lp_norm^p) is Gamma(1/p), so |d|^p has mean lp_norm^p and
        # relative std sqrt(p): 0.03 is over 5 standard errors at p = 7.
        lp_norm = 1.3
        block = np.empty((64, 4000))
        fl.GeneralizedGaussianIID(p, lp_norm).sample_rows(np.random.default_rng(9), block)
        assert np.mean(np.abs(block) ** p) == pytest.approx(lp_norm**p, rel=0.03)
        assert np.mean(block > 0.0) == pytest.approx(0.5, abs=0.005)
        assert np.mean(block) == pytest.approx(0.0, abs=0.02 * np.std(block))

    def test_gengauss_near_float_max_is_mostly_finite(self):
        # The scale p^(1/p) lp_norm is inf here, yet |d| <= max float for
        # about 77% of the exact draws.
        with np.errstate(over="ignore"):
            x = fl.GeneralizedGaussianIID(2.0, 1.5e308).sample(1, 10_000)
        assert np.isfinite(x).mean() > 0.5

    def test_ar_lag_covariance_solved_once_per_model(self, monkeypatch):
        coeffs = (0.5, -0.25)
        expected = [fl.GaussianAR(coeffs, 1.3).sample(seed, 50) for seed in range(3)]
        solve = np.linalg.solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", counted)
        model = fl.GaussianAR(coeffs, 1.3)
        draws = [model.sample(seed, 50) for seed in range(3)]
        model.variance()
        assert len(calls) == 1
        for got, want in zip(draws, expected):
            assert got.tobytes() == want.tobytes()


def _gengauss_abs_cdf(p, t):
    """P(|d| <= t) at unit lp_norm: P(1/p, t^p / p), regularized lower gamma.

    Where ln z < -30, P(a, z) is its leading series term z^a / Gamma(1 + a),
    with z^a = t p^(-1/p) exactly: z itself underflows at large p (scipy's
    gennorm(beta=300).cdf(-0.085) is exactly 0.5).
    """
    a = 1.0 / p
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        log_z = p * np.log(t) - math.log(p)
        lower = special.gammainc(a, np.exp(log_z))
    small = log_z < -30.0
    lower[small] = t[small] * p ** (-a) / math.gamma(1.0 + a)
    return lower


class TestZiggurat:
    @pytest.mark.parametrize(
        "p, r", [(1.0, 7.69711747013105), (2.0, 3.654152885361009)], ids=["exp", "normal"]
    )
    def test_base_edge_anchors(self, p, r):
        # Marsaglia and Tsang's 256-layer exponential and normal constants.
        assert _ziggurat(p).r == pytest.approx(r, rel=0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 7.0, 300.0, 1e6])
    def test_layers_have_equal_area(self, p):
        table = _ziggurat(p)
        edges = table.width * 2.0**52
        area = table.area
        # Base: the rectangle under f(r) and the tail beyond r.
        tail = p ** (1.0 / p - 1.0) * special.gamma(1.0 / p) * special.gammaincc(1.0 / p, table.z)
        assert table.r * table.floor[1] + tail == pytest.approx(area, rel=1e-12)
        assert edges[0] * table.floor[1] == pytest.approx(area, rel=1e-12)
        np.testing.assert_allclose(edges[1:] * table.rise[1:], area, rtol=1e-9)
        assert table.floor[-1] == 1.0
        assert np.all(np.diff(edges) < 0.0) and np.all(table.rise > 0.0)
        # Each edge sits on the density at its layer's floor; x^p rounds
        # to about p ulps of x.
        np.testing.assert_allclose(
            np.exp(-(edges[1:] ** p) / p), table.floor[1:-1], rtol=1e-13 * max(p, 10.0)
        )

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 7.0, 300.0, 1e6])
    def test_matches_exact_cdf(self, p):
        # On |d|: the sign splits evenly and a signed KS test sees about
        # half the deviation of a sampler that keeps every wedge candidate.
        lp_norm = 1.3
        x = fl.GeneralizedGaussianIID(p, lp_norm).sample(11, 2_000_000)
        assert stats.kstest(np.abs(x) / lp_norm, lambda t: _gengauss_abs_cdf(p, t)).pvalue > 1e-3

    @pytest.mark.parametrize("p", [1.0, 4.0, 7.0])
    def test_share_and_law_beyond_base_edge(self, p):
        # 2e7 draws put about 1.6e3 (p = 7) to 9e3 (p = 1) beyond r, where
        # P(|d| <= v | |d| > r) = 1 - Q(1/p, v^p / p) / Q(1/p, r^p / p).
        table = _ziggurat(p)
        model = fl.GeneralizedGaussianIID(p, 1.0)
        rng = np.random.default_rng(17)
        draws, beyond = 20_000_000, []
        block = np.empty((64, 15_625))
        for _ in range(draws // block.size):
            model.sample_rows(rng, block)
            beyond.append(np.abs(block[np.abs(block) > table.r]))
        beyond = np.concatenate(beyond)
        share = special.gammaincc(1.0 / p, table.z)
        assert abs(beyond.size - draws * share) < 4.0 * math.sqrt(draws * share * (1.0 - share))
        cdf = lambda v: 1.0 - special.gammaincc(1.0 / p, v**p / p) / share  # noqa: E731
        assert stats.kstest(beyond, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("p", [1.5, 4.0, 7.0])
    def test_tail_draws_follow_the_tail_law(self, p):
        # P(t <= v | t > r) = 1 - Q(1/p, v^p / p) / Q(1/p, r^p / p).
        table = _ziggurat(p)
        rng = np.random.default_rng(23)
        t = table._tail(rng, rng.random(200_000))
        assert t.min() > table.r
        q = special.gammaincc(1.0 / p, table.z)
        cdf = lambda v: 1.0 - special.gammaincc(1.0 / p, v**p / p) / q  # noqa: E731
        assert stats.kstest(t, cdf).pvalue > 1e-3

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_base_layer_candidates_are_never_rejected(self, p):
        # Beyond r the tail draws again until it accepts: giving up the
        # candidate instead would thin the tail by the mean acceptance.
        table = _ziggurat(p)
        size = 1_000_000
        words = np.random.default_rng(29).bit_generator.random_raw(size)
        reach = np.abs(table.width[0] * (words.view(np.int64) >> 11))
        base = np.flatnonzero(((words & 0xFF) == 0) & (reach > table.r))
        x = np.empty(size)
        holes, _ = table._candidates(np.random.default_rng(29), x, np.empty(0))
        assert base.size > 50
        assert np.intersect1d(base, holes).size == 0
        assert np.all(np.abs(x[base]) > table.r)

    def test_shape_past_float_resolution_is_the_box(self):
        lp_norm = 2.5
        x = fl.GeneralizedGaussianIID(1e300, lp_norm).sample(3, 200_000)
        assert np.max(np.abs(x)) <= lp_norm
        assert np.mean(np.abs(x)) == pytest.approx(lp_norm / 2.0, rel=0.01)
        assert stats.kstest(np.abs(x) / lp_norm, "uniform").pvalue > 1e-3

    def test_table_built_once_per_shape(self):
        _ziggurat.cache_clear()
        model = fl.GeneralizedGaussianIID(4.0, 1.0)
        model.sample(0, 10)
        fl.GeneralizedGaussianIID(4.0, 7.0).sample(1, 10)
        assert _ziggurat.cache_info().currsize == 1
        assert _ziggurat.cache_info().misses == 1

    def test_threads_sharing_a_table_draw_as_alone(self):
        # The table is only read once built; each draw has its own work arrays.
        model = fl.GeneralizedGaussianIID(4.0, 1.0)
        seeds = range(24)
        alone = [model.sample(seed, 200_000) for seed in seeds]
        with ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(lambda seed: model.sample(seed, 200_000), seeds))
        for got, want in zip(shared, alone):
            assert got.tobytes() == want.tobytes()


class TestModelValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianIID(0.0)
        with pytest.raises(fl.InvalidModelError):
            fl.UniformIID(-1.0)
        with pytest.raises(fl.InvalidModelError):
            fl.GeneralizedGaussianIID(0.5, 1.0)
        with pytest.raises(fl.InvalidModelError):
            fl.GeneralizedGaussianIID(math.inf, 1.0)
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianAR((0.9,), 0.0)

    def test_ar_stability_required(self):
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianAR((1.0,), 1.0)
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianAR((1.5, -0.4), 1.0)
        fl.GaussianAR((0.5, -0.25), 1.0)  # stable pair is fine

    @pytest.mark.parametrize(
        "coeffs, match",
        [((), "at least one lag"), ((math.nan,), "NaN or Inf"), ((0.1, math.inf), "NaN or Inf")],
        ids=["empty", "nan", "inf"],
    )
    def test_ar_coeffs_must_be_finite_and_nonempty(self, coeffs, match):
        with pytest.raises(fl.InvalidModelError, match=match):
            fl.GaussianAR(coeffs, 1.0)

    def test_ar_too_close_to_the_unit_circle_refused(self):
        # Roots 1e-6 inside the unit circle: the Yule-Walker system has
        # condition number 1.75e16, and its solve gives a variance of -4.5e15
        # where the closed form gives 8.33e16.
        r1, r2 = 0.999999, 0.999998
        with pytest.raises(fl.InvalidModelError, match="unit circle.*condition number"):
            fl.GaussianAR((r1 + r2, -r1 * r2), 1.0).variance()

    @pytest.mark.parametrize("r1, r2", [(0.99, 0.98), (0.9999, 0.9998)])
    def test_ar_near_the_unit_circle_accepted(self, r1, r2):
        # Condition numbers 8.6e5 and 8.8e11, under the limit of 1e12.
        a1, a2 = r1 + r2, -r1 * r2
        exact = (1.0 - a2) / ((1.0 + a2) * ((1.0 - a2) ** 2 - a1**2))
        assert fl.GaussianAR((a1, a2), 1.0).variance() == pytest.approx(exact, rel=1e-4)


class TestEntropyRates:
    def test_gaussian_value(self):
        assert fl.GaussianIID(1.0).conditional_entropy_rate() == pytest.approx(
            2.047095585180641, abs=1e-12
        )
        assert fl.GaussianIID(2.0).conditional_entropy_rate() == pytest.approx(
            GAUSSIAN_ENTROPY_BITS + 1.0, abs=1e-12
        )

    def test_uniform_value(self):
        assert fl.UniformIID(1.0).conditional_entropy_rate() == pytest.approx(1.0)
        assert fl.UniformIID(0.5).conditional_entropy_rate() == pytest.approx(0.0, abs=1e-15)

    def test_ar_rate_set_by_innovations(self):
        white = fl.GaussianIID(1.7)
        colored = fl.GaussianAR((0.9,), 1.7)
        assert colored.conditional_entropy_rate() == pytest.approx(
            white.conditional_entropy_rate(), abs=1e-14
        )

    def test_summary_fields(self):
        summary = fl.entropy_summary(fl.UniformIID(1.0))
        assert summary.negentropy_rate > 0.0


class TestNegentropy:
    def test_gaussians_exactly_zero(self):
        assert fl.GaussianIID(2.3).negentropy_rate() == 0.0
        # At sigma 0.3 the white-noise gap lands an ulp above zero.
        assert fl.GaussianIID(0.3).negentropy_rate() == 0.0
        assert fl.GaussianAR((0.9,), 1.1).negentropy_rate() == 0.0

    def test_uniform_value(self):
        expected = 0.5 * math.log2(2.0 * math.pi * math.e / 3.0) - 1.0
        got = fl.UniformIID(1.0).negentropy_rate()
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.2546143348, abs=1e-9)
        # Scale invariance of the gap.
        assert fl.UniformIID(4.2).negentropy_rate() == pytest.approx(expected, abs=1e-12)

    def test_gengauss_vanishes_at_gaussian_member(self):
        assert abs(fl.GeneralizedGaussianIID(2.0, 1.4).negentropy_rate()) <= 1e-12

    def test_nonnegative_everywhere(self):
        models = [
            fl.GaussianIID(0.4),
            fl.UniformIID(2.0),
            fl.GeneralizedGaussianIID(1.0, 1.0),
            fl.GeneralizedGaussianIID(7.0, 0.3),
            # The Gaussian member: its unclamped gap is -8.9e-16.
            fl.GeneralizedGaussianIID(2.0, 1.4),
            fl.GaussianAR((0.5, -0.25), 2.0),
        ]
        for model in models:
            assert model.negentropy_rate() >= 0.0


class TestSpectra:
    def test_iid_spectrum_is_variance(self):
        spec = fl.GaussianIID(2.0).power_spectrum(64)
        np.testing.assert_allclose(spec.values, 4.0)
        assert spec.grid.size == 64
        assert spec.grid[0] == pytest.approx(-math.pi)

    def test_ar1_spectrum_values(self):
        model = fl.GaussianAR((0.9,), 1.0)
        assert model.spectrum_value(np.array([0.0]))[0] == pytest.approx(100.0, rel=1e-12)
        assert model.spectrum_value(np.array([math.pi]))[0] == pytest.approx(
            1.0 / 3.61, rel=1e-12
        )

    def test_spectrum_mean_recovers_variance(self):
        # Parseval check: (1/2pi) int S = R(0), to quadrature accuracy.
        for model in (
            fl.GaussianAR((0.9,), 1.0),
            fl.GaussianAR((0.5, -0.25), 1.3),
            fl.UniformIID(0.9),
        ):
            spec = model.power_spectrum(4096)
            assert spec.quadrature_mean(spec.values) == pytest.approx(
                model.variance(), rel=1e-6
            )

    def test_grid_validation(self):
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianIID(1.0).power_spectrum(15)
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianIID(1.0).power_spectrum(17)
        for n_grid in (100.7, True, "64"):
            with pytest.raises(fl.InvalidModelError, match="grid size must be a whole number"):
                fl.GaussianIID(1.0).power_spectrum(n_grid)
        # Grids whose float64 table no array can hold: refused before numpy
        # is asked for one.
        for n_grid in (2**62, 2**63, 10**20):
            with pytest.raises(fl.InvalidModelError, match=f"grid size {n_grid} is too large"):
                fl.GaussianAR((0.5,), 1.0).power_spectrum(n_grid)
        want = fl.GaussianIID(1.0).power_spectrum(64).grid
        for n_grid in (64.0, np.int32(64)):
            assert fl.GaussianIID(1.0).power_spectrum(n_grid).grid.tobytes() == want.tobytes()

    def test_from_samples_rejects_negative(self):
        omega = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        with pytest.raises(fl.InvalidModelError):
            fl.SpectralDensity.from_samples(omega, np.full(64, -1.0))

    @pytest.mark.parametrize(
        "n_grid, n_values, edit, match",
        [
            (64, 63, None, "equal length"),
            (15, 15, None, "equal length >= 16"),
            (64, 64, ("value", 5, math.nan), "NaN or Inf"),
            (64, 64, ("omega", 5, 0.0), "strictly increasing"),
            (64, 64, ("value", 5, 2.0), "even in frequency"),
        ],
        ids=["mismatched", "short", "nan", "not_increasing", "uneven"],
    )
    def test_from_samples_rejects_malformed_tabulation(self, n_grid, n_values, edit, match):
        omega = np.linspace(-math.pi, math.pi, n_grid, endpoint=False)
        values = np.ones(n_values)
        if edit is not None:
            array, index, value = edit
            (values if array == "value" else omega)[index] = value
        with pytest.raises(fl.InvalidModelError, match=match):
            fl.SpectralDensity.from_samples(omega, values)

    @pytest.mark.parametrize(
        "start", [-math.pi, -math.pi + math.pi / 1024, 0.0], ids=["minus_pi", "midpoints", "zero"]
    )
    def test_half_open_grids_symmetric_about_zero_match(self, start):
        # Each grid holds the mirror of each of its points, modulo 2 pi.
        model = fl.GaussianAR((0.5, -0.25), 1.0)
        omega = start + 2.0 * math.pi * np.arange(1024) / 1024
        spec = fl.SpectralDensity.from_samples(omega, model.spectrum_value(omega))
        want = fl.szego_log_integral(model.power_spectrum(1024))
        assert abs(fl.szego_log_integral(spec) - want) <= 1e-12

    @pytest.mark.parametrize(
        "index, match",
        [(5, "even in frequency"), (-1, "agree at both ends of a closed grid")],
        ids=["raised_sample", "ends_differ"],
    )
    def test_closed_grid_must_be_even(self, index, match):
        values = np.ones(1025)
        values[index] = 2.0
        with pytest.raises(fl.InvalidModelError, match=match):
            fl.SpectralDensity.from_samples(np.linspace(-math.pi, math.pi, 1025), values)

    def test_uniform_grid_not_symmetric_about_zero_rejected(self):
        # A third of a step off the -pi grid: no point is any other's mirror.
        omega = -math.pi + 2.0 * math.pi * (np.arange(64) + 1.0 / 3.0) / 64
        with pytest.raises(fl.InvalidModelError, match="map onto itself under omega -> -omega"):
            fl.SpectralDensity.from_samples(omega, np.ones(64))


class TestSzego:
    def test_white_unit_spectrum(self):
        spec = fl.GaussianIID(1.0).power_spectrum(256)
        assert fl.szego_log_integral(spec) == pytest.approx(0.0, abs=1e-14)
        assert fl.szego_entropy_rate(spec, 0.0) == pytest.approx(
            GAUSSIAN_ENTROPY_BITS, abs=1e-14
        )

    def test_scaling_adds_one_bit(self):
        quiet = fl.szego_entropy_rate(fl.GaussianIID(1.0).power_spectrum(256))
        loud = fl.szego_entropy_rate(fl.GaussianIID(2.0).power_spectrum(256))
        assert loud - quiet == pytest.approx(1.0, abs=1e-12)

    def test_ar1_log_integral_vanishes(self):
        # A stable, monic autoregression has unit one-step prediction gain,
        # so the log integral of its spectrum equals log of the innovation
        # variance: zero here.
        spec = fl.GaussianAR((0.9,), 1.0).power_spectrum(8192)
        assert abs(fl.szego_log_integral(spec)) <= 1e-12

    def test_entropy_route_matches_spectral_route(self):
        for model in (
            fl.GaussianIID(0.7),
            fl.UniformIID(1.0),
            fl.GeneralizedGaussianIID(4.0, 1.2),
            fl.GaussianAR((0.9,), 1.0),
            fl.GaussianAR((0.5, -0.25), 0.8),
        ):
            spec = model.power_spectrum(4096)
            via_spectrum = fl.szego_entropy_rate(spec, model.negentropy_rate())
            direct = model.conditional_entropy_rate()
            assert via_spectrum == pytest.approx(direct, abs=1e-3)

    def test_grid_refinement_converges(self):
        model = fl.GaussianAR((0.8, -0.15), 1.0)
        coarse = fl.szego_entropy_rate(model.power_spectrum(4096))
        fine = fl.szego_entropy_rate(model.power_spectrum(8192))
        assert abs(fine - coarse) < 1e-4

    def test_nonpositive_sample_rejected(self):
        omega = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        values = np.ones(64)
        values[10] = 0.0
        values[64 - 10] = 0.0  # keep the tabulation even in frequency
        spec = fl.SpectralDensity.from_samples(omega, values)
        with pytest.raises(fl.NonIntegrableSpectrumError):
            fl.szego_log_integral(spec)

    def test_negative_negentropy_rejected(self):
        spec = fl.GaussianIID(1.0).power_spectrum(64)
        with pytest.raises(fl.InvalidModelError):
            fl.szego_entropy_rate(spec, -0.1)


class TestJsonInterface:
    def test_round_trips(self):
        for model in JSON_MODELS:
            again = fl.disturbance_from_dict(json.loads(json.dumps(model.to_dict())))
            assert again == model

    @pytest.mark.parametrize("model", JSON_MODELS, ids=lambda m: m.tag)
    def test_keys_are_type_and_the_fields(self, model):
        payload = model.to_dict()
        assert set(payload) == {"type"} | {f.name for f in dataclasses.fields(model)}
        assert payload["type"] == model.tag

    def test_registry_holds_the_four_built_in_models(self):
        assert _MODEL_TAGS == {
            "iid_gaussian": fl.GaussianIID,
            "iid_uniform": fl.UniformIID,
            "iid_gengauss": fl.GeneralizedGaussianIID,
            "gauss_ar": fl.GaussianAR,
        }

    def test_to_dict_writes_floats(self):
        payload = fl.GaussianAR([0, 0.5], 2).to_dict()
        assert payload == {"type": "gauss_ar", "coeffs": [0.0, 0.5], "innovation_std": 2.0}
        assert all(type(v) is float for v in payload["coeffs"] + [payload["innovation_std"]])

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"type": "gauss_ar", "coeffs": [0.9], "innovation_std": 1.0}')
        model = fl.load_disturbance(path)
        assert isinstance(model, fl.GaussianAR)
        assert model.coeffs == (0.9,)

    def test_unknown_type_rejected(self):
        with pytest.raises(fl.InvalidModelError):
            fl.disturbance_from_dict({"type": "pink_noise"})

    def test_missing_field_rejected(self):
        with pytest.raises(fl.InvalidModelError, match="'iid_gaussian' is missing field 'sigma'"):
            fl.disturbance_from_dict({"type": "iid_gaussian"})

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([1, 2], "must be an object"),
            ({"type": "iid_gaussian", "sigma": "x"}, "malformed"),
            ({"type": "iid_gaussian", "sigma": 1.0, "shape": 4}, "has unknown keys: shape"),
            ({"type": "iid_uniform", "half_width": 1.0, "sigma": 1.0, "Type": "x"},
             "has unknown keys: Type, sigma"),
            ({"type": ["iid_gaussian"], "sigma": 1.0}, "unknown disturbance type"),
            ({"type": "iid_gaussian", "sigma": "1.0"}, "malformed: sigma must be a number"),
            ({"type": "iid_gaussian", "sigma": True}, "malformed: sigma must be a number"),
            ({"type": "iid_uniform", "half_width": "1.0"},
             "malformed: half_width must be a number"),
            ({"type": "iid_gengauss", "shape": "4", "lp_norm": 1.0},
             "malformed: shape must be a number"),
            ({"type": "iid_gengauss", "shape": 4.0, "lp_norm": True},
             "malformed: lp_norm must be a number"),
            ({"type": "gauss_ar", "coeffs": [0.5], "innovation_std": "1.0"},
             "malformed: innovation_std must be a number"),
            ({"type": "gauss_ar", "coeffs": ["0.5"], "innovation_std": 1.0},
             "malformed: a lag coefficient must be a number"),
            ({"type": "gauss_ar", "coeffs": [0.5, True], "innovation_std": 1.0},
             "malformed: a lag coefficient must be a number"),
            ({"type": "gauss_ar", "coeffs": [[0.5]], "innovation_std": 1.0},
             r"coeffs must be a flat list, got shape \(1, 1\)"),
        ],
        ids=[
            "not_an_object", "sigma_not_a_number", "stray_key", "two_stray_keys", "type_a_list",
            "sigma_string", "sigma_bool", "half_width_string", "shape_string", "lp_norm_bool",
            "innovation_std_string", "coeff_string", "coeff_bool", "coeffs_nested",
        ],
    )
    def test_malformed_description_rejected(self, payload, match):
        with pytest.raises(fl.InvalidModelError, match=match):
            fl.disturbance_from_dict(payload)

    def test_numpy_numbers_stored_as_floats(self):
        model = fl.GeneralizedGaussianIID(np.int64(4), np.float32(0.5))
        assert (type(model.shape), type(model.lp_norm)) == (float, float)
        assert model == fl.GeneralizedGaussianIID(4.0, 0.5)
        assert type(fl.GaussianIID(np.float64(2.0)).sigma) is float
        model = fl.GaussianAR(np.array([0.5, -0.25], dtype=np.float32), np.int8(2))
        assert model.coeffs == (0.5, -0.25) and model.innovation_std == 2.0
        assert all(type(c) is float for c in model.coeffs + (model.innovation_std,))
        assert fl.GaussianAR(0.5, 1.0).coeffs == (0.5,)

    def test_scaled_models(self):
        for model in (
            fl.GaussianIID(1.5),
            fl.UniformIID(0.25),
            fl.GeneralizedGaussianIID(3.0, 2.0),
            fl.GaussianAR((0.5, -0.25), 1.1),
        ):
            bigger = model.scaled(2.0)
            assert bigger.variance() == pytest.approx(4.0 * model.variance(), rel=1e-12)
            assert bigger.conditional_entropy_rate() == pytest.approx(
                model.conditional_entropy_rate() + 1.0, abs=1e-12
            )
