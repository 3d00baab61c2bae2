"""Lower-bound formulas: norm constants, the bound family, report plumbing."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fundlim as fl
from conftest import companion_realization

# Plant-analysis warnings (relative degree zero, near cancellations) are
# exercised in test_plant; here they are incidental.
pytestmark = pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")


def chars_with_pole(a):
    """Characteristics of a strictly delayed plant whose only nontrivial pole is a."""
    return fl.analyze_plant(companion_realization([1.0], [1.0, -a, 0.0]))


def ent(dist):
    return fl.entropy_summary(dist)


class TestNormConstant:
    def test_frozen_values(self):
        assert fl.cp_constant(2.0) == pytest.approx(0.24197072451914337, abs=1e-15)
        assert fl.cp_constant(math.inf) == 0.5
        assert fl.cp_constant(1.0) == pytest.approx(1.0 / (2.0 * math.e), abs=1e-15)
        assert fl.cp_constant(1000.0) == pytest.approx(0.496347723598075, abs=1e-12)

    def test_gaussian_identity(self):
        assert fl.cp_constant(2.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * math.e), abs=1e-16
        )

    def test_monotone_toward_half(self):
        grid = [1.0, 1.5, 2.0, 4.0, 16.0, 256.0, 65536.0]
        values = [fl.cp_constant(p) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5

    def test_rejects_bad_order(self):
        for bad in (0.0, 0.5, -2.0, math.nan):
            with pytest.raises(fl.InvalidNormOrderError):
                fl.cp_constant(bad)

    @given(p=st.floats(min_value=1.0, max_value=sys.float_info.max))
    @settings(max_examples=80, deadline=None)
    def test_range_property(self, p):
        c = fl.cp_constant(p)
        assert 1.0 / (2.0 * math.e) <= c <= 0.5


class TestErrorBound:
    def test_stable_plant_gaussian_p2(self):
        report = fl.error_bound_lti(2.0, chars_with_pole(0.5), ent(fl.GaussianIID(1.0)))
        assert report.bound_value == pytest.approx(1.0, rel=1e-12)
        assert report.plant_factor == 1.0
        assert report.cp == pytest.approx(fl.cp_constant(2.0))

    def test_unstable_pole_doubles_bound(self):
        gauss = ent(fl.GaussianIID(1.0))
        stable = fl.error_bound_lti(2.0, chars_with_pole(0.5), gauss)
        unstable = fl.error_bound_lti(2.0, chars_with_pole(2.0), gauss)
        assert unstable.bound_value == pytest.approx(2.0 * stable.bound_value, rel=1e-12)
        assert unstable.plant_factor == pytest.approx(2.0)

    def test_factor_identity_is_exact(self):
        report = fl.error_bound_lti(3.0, chars_with_pole(1.7), ent(fl.GaussianAR((0.9,), 1.2)))
        assert report.bound_value == report.cp * report.plant_factor * report.entropy_factor

    def test_entropy_factor_matches_rate(self):
        dist = fl.GeneralizedGaussianIID(4.0, 0.8)
        report = fl.error_bound_lti(4.0, chars_with_pole(0.0), ent(dist))
        assert report.entropy_factor == pytest.approx(
            2.0 ** dist.conditional_entropy_rate(), rel=1e-12
        )

    def test_complex_pole_pair_uses_magnitudes(self):
        # Poles at +/- 2j: the product of magnitudes is 4.
        model = fl.StateSpaceModel([[0.0, -4.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0])
        report = fl.error_bound_lti(2.0, fl.analyze_plant(model), ent(fl.GaussianIID(1.0)))
        assert report.plant_factor == pytest.approx(4.0, rel=1e-12)

    def test_variance_floor_p2(self):
        report = fl.error_bound_p2(chars_with_pole(2.0), ent(fl.GaussianIID(1.0)))
        assert report.p == 2.0
        assert report.bound_value == pytest.approx(2.0, rel=1e-12)
        assert report.variance_floor() == pytest.approx(4.0, rel=1e-12)

    def test_variance_floor_rejected_off_p2(self):
        report = fl.error_bound_lti(3.0, chars_with_pole(0.5), ent(fl.GaussianIID(1.0)))
        with pytest.raises(fl.InvalidNormOrderError):
            report.variance_floor()

    def test_sup_norm_uniform(self):
        report = fl.error_bound_pinf(chars_with_pole(0.5), ent(fl.UniformIID(1.0)))
        assert report.p == math.inf
        assert report.cp == 0.5
        # 0.5 * 2^{log2(2)} = 1: the uniform support half-width.
        assert report.bound_value == pytest.approx(1.0, rel=1e-12)

    def test_tag_per_route(self):
        gauss = ent(fl.GaussianIID(1.0))
        assert fl.error_bound_lti(2.0, chars_with_pole(0.5), gauss).theorem_tag == "T1"
        assert fl.error_bound_p2(chars_with_pole(0.5), gauss).theorem_tag == "C2"
        assert fl.error_bound_pinf(chars_with_pole(0.5), gauss).theorem_tag == "C3"


class TestOutputBound:
    def test_double_delay_with_bad_zero(self):
        # Transfer function (z - 2) / z^2: one zero outside the unit circle.
        chars = fl.analyze_plant(companion_realization([1.0, -2.0], [1.0, 0.0, 0.0]))
        report = fl.output_bound(2.0, chars, ent(fl.GaussianIID(1.0)))
        assert report.theorem_tag == "T2"
        assert report.plant_factor == pytest.approx(2.0, rel=1e-9)
        assert report.details["markov_gain"] == pytest.approx(1.0, rel=1e-12)
        assert report.bound_value == pytest.approx(2.0, rel=1e-9)

    def test_gain_scales_bound(self):
        # 0.5 (z + 3) / z^2: gain 0.5 and a zero of magnitude 3.
        chars = fl.analyze_plant(companion_realization([0.5, 1.5], [1.0, 0.0, 0.0]))
        report = fl.output_bound(math.inf, chars, ent(fl.UniformIID(1.0)))
        assert report.plant_factor == pytest.approx(3.0, rel=1e-9)
        # 0.5 (sup constant) * 3 (zero) * 0.5 (gain) * 2 (support width) = 1.5
        assert report.bound_value == pytest.approx(1.5, rel=1e-9)

    def test_minimum_phase_keeps_unit_plant_factor(self):
        chars = fl.analyze_plant(companion_realization([1.0, -0.5], [1.0, 0.0, 0.0]))
        report = fl.output_bound(2.0, chars, ent(fl.GaussianIID(1.0)))
        assert report.plant_factor == pytest.approx(1.0)

    def test_zero_transfer_function_rejected(self):
        model = fl.StateSpaceModel([[0.5, 0.0], [0.0, 0.2]], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(fl.ZeroTransferFunctionError):
            fl.output_bound(2.0, fl.analyze_plant(model), ent(fl.GaussianIID(1.0)))

    def test_negative_gain_enters_by_magnitude(self):
        chars_neg = fl.analyze_plant(companion_realization([-1.0, 0.5], [1.0, 0.0, 0.0]))
        chars_pos = fl.analyze_plant(companion_realization([1.0, -0.5], [1.0, 0.0, 0.0]))
        gauss = ent(fl.GaussianIID(1.0))
        a = fl.output_bound(2.0, chars_neg, gauss)
        b = fl.output_bound(2.0, chars_pos, gauss)
        assert a.bound_value == pytest.approx(b.bound_value, rel=1e-12)


class TestGenericBound:
    def test_plant_free(self):
        report = fl.error_bound_generic(2.0, ent(fl.GaussianIID(1.0)))
        assert report.theorem_tag == "T3"
        assert report.plant_factor == 1.0
        assert report.bound_value == pytest.approx(fl.cp_constant(2.0) * 2.0 ** 2.047095585180641)

    def test_from_raw_entropy_rate(self):
        direct = fl.error_bound_for_entropy(2.0, 2.047095585180641)
        via_model = fl.error_bound_generic(2.0, ent(fl.GaussianIID(1.0)))
        assert direct.bound_value == pytest.approx(via_model.bound_value, rel=1e-12)

    def test_never_exceeds_plant_aware_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = float(rng.uniform(-3.0, 3.0))
            gauss = ent(fl.GaussianIID(float(rng.uniform(0.2, 2.0))))
            p = float(rng.uniform(1.0, 8.0))
            lti = fl.error_bound_lti(p, chars_with_pole(a), gauss)
            generic = fl.error_bound_generic(p, gauss)
            assert lti.bound_value >= generic.bound_value
            if abs(a) <= 1.0:
                # Stable plant: the pole product is exactly one, so the two
                # routes agree to the last bit.
                assert lti.bound_value == generic.bound_value


class TestSpectralBound:
    def test_matches_direct_route_for_gaussian_ar(self):
        chars = chars_with_pole(1.5)
        for dist in (fl.GaussianAR((0.9,), 1.0), fl.GaussianAR((0.5, -0.25), 0.7)):
            spec = dist.power_spectrum(4096)
            spectral = fl.error_bound_spectral(2.0, chars, spec, dist.negentropy_rate())
            direct = fl.error_bound_p2(chars, ent(dist))
            assert spectral.theorem_tag == "C4"
            assert spectral.bound_value == pytest.approx(direct.bound_value, rel=1e-3)

    def test_white_gaussian_floor_equals_variance(self):
        # Stable plant, white Gaussian noise: the variance floor from the
        # spectral route is the noise variance itself (the loop cannot beat
        # fully unpredictable noise).
        spec = fl.GaussianIID(1.3).power_spectrum(256)
        report = fl.error_bound_spectral(2.0, chars_with_pole(0.5), spec, 0.0)
        assert report.variance_floor() == pytest.approx(1.3**2, rel=1e-9)

    def test_negentropy_shrinks_bound(self):
        spec = fl.UniformIID(1.0).power_spectrum(256)
        sharp = fl.error_bound_spectral(2.0, chars_with_pole(0.5), spec, 0.0)
        honest = fl.error_bound_spectral(
            2.0, chars_with_pole(0.5), spec, fl.UniformIID(1.0).negentropy_rate()
        )
        assert honest.bound_value < sharp.bound_value

    def test_details_mention_log_integral(self):
        spec = fl.GaussianAR((0.9,), 1.0).power_spectrum(4096)
        report = fl.error_bound_spectral(2.0, chars_with_pole(2.0), spec, 0.0)
        assert "szego_log_integral_bits" in report.details
        assert report.details["szego_log_integral_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_negative_negentropy_rejected(self):
        spec = fl.GaussianIID(1.0).power_spectrum(64)
        with pytest.raises(fl.InvalidModelError):
            fl.error_bound_spectral(2.0, chars_with_pole(0.5), spec, -0.5)


class TestScalingLaw:
    def test_all_routes_scale_linearly(self):
        chars = fl.analyze_plant(companion_realization([1.0, -2.0], [1.0, -1.5, 0.0]))
        dist = fl.GaussianAR((0.6,), 1.0)
        s = 1.7

        def all_bounds(d):
            spec = d.power_spectrum(2048)
            summary = ent(d)
            return [
                fl.error_bound_lti(2.0, chars, summary).bound_value,
                fl.error_bound_lti(3.0, chars, summary).bound_value,
                fl.error_bound_p2(chars, summary).bound_value,
                fl.error_bound_generic(2.0, summary).bound_value,
                fl.output_bound(2.0, chars, summary).bound_value,
                fl.error_bound_spectral(2.0, chars, spec, d.negentropy_rate()).bound_value,
            ]

        base = np.array(all_bounds(dist))
        scaled = np.array(all_bounds(dist.scaled(s)))
        np.testing.assert_allclose(scaled, s * base, rtol=1e-9)

    def test_power_of_two_scaling_is_exact(self):
        dist = fl.GaussianIID(1.0)
        chars = chars_with_pole(2.0)
        base = fl.error_bound_lti(2.0, chars, ent(dist)).bound_value
        doubled = fl.error_bound_lti(2.0, chars, ent(dist.scaled(2.0))).bound_value
        assert doubled == 2.0 * base


class TestReportSerialization:
    def test_dict_schema(self):
        report = fl.error_bound_p2(chars_with_pole(2.0), ent(fl.GaussianIID(1.0)))
        d = report.to_dict()
        assert d["theorem"] == "C2"
        assert d["p"] == 2.0
        assert d["bound"] == pytest.approx(2.0, rel=1e-12)
        assert d["factors"]["plant_factor"] == pytest.approx(2.0)
        assert d["variance_floor"] == pytest.approx(4.0, rel=1e-12)

    def test_inf_p_serializes_as_string(self):
        report = fl.error_bound_pinf(chars_with_pole(0.5), ent(fl.UniformIID(1.0)))
        d = report.to_dict()
        assert d["p"] == "inf"
        assert "variance_floor" not in d

    def test_rejects_invalid_p(self):
        with pytest.raises(fl.InvalidNormOrderError):
            fl.error_bound_lti(0.25, chars_with_pole(0.5), ent(fl.GaussianIID(1.0)))
