"""Disturbance models: densities, entropies, samplers, spectra, Szego route."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import fundlim as fl
from fundlim.disturbance import GAUSSIAN_ENTROPY_BITS


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
        # p^(1/p) lp_norm.
        lp_norm = 1.3
        x = fl.GeneralizedGaussianIID(p, lp_norm).sample(20261018, 200_000)
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
        with pytest.raises(fl.InvalidModelError):
            fl.GaussianIID(1.0).sample(0, 0)

    def test_ar_lag_covariance_solved_once_per_model(self, monkeypatch):
        coeffs = (0.5, -0.25)
        expected = [fl.GaussianAR(coeffs, 1.3).sample(seed, 50) for seed in range(3)]
        solve = scipy.linalg.solve_discrete_lyapunov
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov", counted)
        model = fl.GaussianAR(coeffs, 1.3)
        draws = [model.sample(seed, 50) for seed in range(3)]
        model.variance()
        assert len(calls) == 1
        for got, want in zip(draws, expected):
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

    def test_from_samples_rejects_negative(self):
        omega = np.linspace(-math.pi, math.pi, 64, endpoint=False)
        with pytest.raises(fl.InvalidModelError):
            fl.SpectralDensity.from_samples(omega, np.full(64, -1.0))


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
        models = [
            fl.GaussianIID(1.5),
            fl.UniformIID(0.25),
            fl.GeneralizedGaussianIID(3.0, 2.0),
            fl.GaussianAR((0.5, -0.25), 1.1),
        ]
        for model in models:
            again = fl.disturbance_from_dict(json.loads(json.dumps(model.to_dict())))
            assert again == model

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
        with pytest.raises(fl.InvalidModelError):
            fl.disturbance_from_dict({"type": "iid_gaussian"})

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
