"""Plant analysis: poles, zeros, relative degree, and their invariances."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import fundlim as fl
from conftest import assert_complex_sets_close, companion_realization, sorted_complex


def oscillator():
    # Characteristic polynomial z^2 + 4, poles at +-2j.
    return fl.StateSpaceModel([[0.0, -4.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0])


def scalar_plant(pole, b=1.0, c=1.0):
    return fl.StateSpaceModel([[pole]], [b], [c])


def pencil_zeros(model, count):
    # The generalized eigenvalues of ([A, B; C, 0], diag(I, 0)) from QZ, the
    # `count` most finite of them (a multiple eigenvalue at infinity splits
    # under rounding, so counting beats a cutoff).
    n = model.n
    pencil = np.block([[model.A, model.B], [model.C, np.zeros((1, 1))]])
    marker = np.zeros((n + 1, n + 1))
    marker[:n, :n] = np.eye(n)
    alpha, beta = scipy.linalg.eig(pencil, marker, right=False, homogeneous_eigvals=True)
    keep = np.argsort(np.abs(beta) / (np.abs(alpha) + np.abs(beta)))[len(alpha) - count :]
    return alpha[keep] / beta[keep]


class TestModelValidation:
    def test_shapes_normalized(self):
        m = fl.StateSpaceModel([[0.5]], [1.0], [2.0])
        assert m.A.shape == (1, 1) and m.B.shape == (1, 1) and m.C.shape == (1, 1)
        m2 = fl.StateSpaceModel(np.eye(2), [[1.0], [0.0]], [[1.0, 0.0]])
        assert m2.B.shape == (2, 1) and m2.C.shape == (1, 2)

    def test_rejects_nonsquare_a(self):
        with pytest.raises(fl.InvalidModelError):
            fl.StateSpaceModel([[1.0, 0.0]], [1.0], [1.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(fl.InvalidModelError):
            fl.StateSpaceModel(np.eye(2), [1.0], [1.0, 0.0])

    def test_rejects_multi_input(self):
        with pytest.raises(fl.InvalidModelError):
            fl.StateSpaceModel(np.eye(2), np.ones((2, 2)), [1.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(fl.InvalidModelError):
            fl.StateSpaceModel([[np.nan]], [1.0], [1.0])
        with pytest.raises(fl.InvalidModelError):
            fl.StateSpaceModel([[1.0]], [np.inf], [1.0])

    def test_json_round_trip(self, tmp_path):
        m = oscillator()
        path = tmp_path / "plant.json"
        import json

        path.write_text(json.dumps(m.to_dict()))
        again = fl.load_plant(path)
        np.testing.assert_array_equal(again.A, m.A)
        np.testing.assert_array_equal(again.B, m.B)
        np.testing.assert_array_equal(again.C, m.C)

    def test_load_rejects_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1.0]], "B": [1.0]}')
        with pytest.raises(fl.InvalidModelError, match="plant file is missing field 'C'"):
            fl.load_plant(path)

    def test_to_dict_writes_a_matrix_and_two_flat_vectors(self):
        assert oscillator().to_dict() == {
            "A": [[0.0, -4.0], [1.0, 0.0]], "B": [1.0, 0.0], "C": [0.0, 1.0]
        }
        assert scalar_plant(0.5).to_dict() == {"A": [[0.5]], "B": [1.0], "C": [1.0]}

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[[0.5], [1.0], [1.0]]", "must hold a JSON object"),
            ('{"A": "x", "B": [1.0], "C": [1.0]}', "malformed"),
            ('{"A": [[0.5]],', "not valid JSON"),
            ('{"A": [[0.5]], "B": [1.0], "C": [1.0], "D": [[7]]}', "plant file has unknown keys: D"),
            ('{"A": [[0.5]], "B": [1.0], "c": [1.0]}', "plant file has unknown keys: c"),
        ],
        ids=["list", "matrix_not_numeric", "not_json", "stray_key", "misspelled_key"],
    )
    def test_load_rejects_malformed_file(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(fl.InvalidModelError, match=match):
            fl.load_plant(path)


class TestPoles:
    def test_oscillator_poles_match_characteristic_roots(self):
        poles, product = fl.analyze_poles(oscillator())
        # Oracle: roots of the characteristic polynomial z^2 + 4.
        expected = np.roots([1.0, 0.0, 4.0])
        assert_complex_sets_close(poles, expected, atol=1e-10)
        assert product == pytest.approx(4.0, rel=1e-12)

    def test_stable_plant_product_is_one(self):
        _, product = fl.analyze_poles(scalar_plant(0.5))
        assert product == 1.0

    def test_unstable_scalar(self):
        _, product = fl.analyze_poles(scalar_plant(-2.0))
        assert product == pytest.approx(2.0, rel=1e-12)

    def test_mixed_magnitudes(self):
        m = fl.StateSpaceModel(np.diag([3.0, 0.25, -1.5]), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        _, product = fl.analyze_poles(m)
        assert product == pytest.approx(4.5, rel=1e-12)

    def test_product_continuity_under_tiny_perturbation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a_matrix = rng.normal(size=(4, 4))
            base = fl.StateSpaceModel(a_matrix, rng.normal(size=4), rng.normal(size=4))
            bump = rng.normal(size=(4, 4))
            bump *= 1e-10 / np.linalg.norm(bump, 2)
            moved = fl.StateSpaceModel(a_matrix + bump, base.B, base.C)
            _, p0 = fl.analyze_poles(base)
            _, p1 = fl.analyze_poles(moved)
            assert abs(p1 - p0) < 1e-6 * max(1.0, p0)


class TestRelativeDegree:
    def test_direct_path(self):
        degree, gain = fl.relative_degree_and_gain(scalar_plant(0.5, b=1.0, c=3.0))
        assert degree == 0 and gain == pytest.approx(3.0)

    def test_delay_chain(self):
        # C B = 0, C A B = 1: one step of delay.
        m = fl.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])
        degree, gain = fl.relative_degree_and_gain(m)
        assert degree == 1 and gain == pytest.approx(1.0)

    def test_companion_degree_matches_polynomial_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            den = np.concatenate(([1.0], rng.normal(size=n)))
            deg_num = int(rng.integers(0, n))
            num = rng.normal(size=deg_num + 1)
            num[0] = np.sign(num[0]) * (abs(num[0]) + 0.5)
            model = companion_realization(num, den)
            degree, gain = fl.relative_degree_and_gain(model)
            assert degree == n - 1 - deg_num
            assert gain == pytest.approx(num[0], rel=1e-9)

    def test_zero_transfer_function_raises(self):
        m = fl.StateSpaceModel([[0.5, 0.0], [0.0, 0.25]], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(fl.ZeroTransferFunctionError):
            fl.relative_degree_and_gain(m)


class TestFiniteZeros:
    def test_companion_example(self):
        # Transfer function (z - 2) / z^2.
        model = companion_realization([1.0, -2.0], [1.0, 0.0, 0.0])
        zeros = fl.compute_finite_zeros(model)
        assert_complex_sets_close(zeros, [2.0], atol=1e-8)
        # Oracle: the system pencil loses rank at a zero.
        pencil = np.block([[model.A - 2.0 * np.eye(2), model.B], [model.C, np.zeros((1, 1))]])
        assert np.linalg.matrix_rank(pencil, tol=1e-8) < 3

    def test_first_order_has_no_finite_zeros(self):
        assert fl.compute_finite_zeros(scalar_plant(0.5)).size == 0

    def test_zeros_match_polynomial_roots(self):
        # Independent oracle: companion realizations of num/den have zeros
        # exactly at roots(num).
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(2, 7))
            den = np.concatenate(([1.0], rng.normal(size=n)))
            deg_num = int(rng.integers(1, n))
            num = rng.normal(size=deg_num + 1)
            num[0] = np.sign(num[0]) * (abs(num[0]) + 0.5)
            model = companion_realization(num, den)
            zeros = fl.compute_finite_zeros(model)
            assert_complex_sets_close(zeros, np.roots(num), atol=1e-6)
            checked += 1
        assert checked >= 20

    def test_zeros_match_the_qz_pencil(self):
        rng = np.random.default_rng(11)
        degrees, complex_cases = set(), 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            degree = int(rng.integers(0, n - 1))
            den = np.concatenate(([1.0], rng.normal(size=n)))
            num = rng.normal(size=n - degree)
            num[0] = np.sign(num[0]) * (abs(num[0]) + 0.5)
            model = companion_realization(num, den)
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            t = q @ np.diag(rng.uniform(0.5, 2.0, size=n))
            t_inv = np.linalg.inv(t)
            moved = fl.StateSpaceModel(t @ model.A @ t_inv, t @ model.B, model.C @ t_inv)
            for m in (model, moved):
                got = fl.compute_finite_zeros(m)
                want = pencil_zeros(m, n - 1 - degree)
                assert got.size == want.size == n - 1 - degree
                remaining = list(got)
                for zero in want:
                    gaps = [abs(have - zero) for have in remaining]
                    best = int(np.argmin(gaps))
                    assert gaps[best] <= 1e-9 * abs(zero), (zero, remaining)
                    remaining.pop(best)
            degrees.add(degree)
            complex_cases += bool(np.any(np.abs(np.roots(num).imag) > 1e-3))
        assert degrees == {0, 1, 2, 3, 4}
        assert complex_cases >= 10

    def test_third_order_nmp_zero(self):
        # The plant of the CLI benchmark: poles 0.5, 0.2, -0.3 and a zero at 2.
        model = fl.StateSpaceModel(
            [[0.4, 0.11, -0.03], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 0.0, 0.0], [0.0, 1.0, -2.0]
        )
        zeros = fl.compute_finite_zeros(model)
        assert zeros.shape == (1,)
        assert abs(zeros[0] - 2.0) <= 1e-14 * 2.0

    def test_zero_past_the_infinity_guard_raises(self):
        # (eps z - 1) / z^2 has relative degree 0 and one zero at 1 / eps.
        model = companion_realization([1e-7, -1.0], [1.0, 0.0, 0.0])
        zeros = fl.compute_finite_zeros(model)
        assert zeros.shape == (1,)
        assert zeros[0] == pytest.approx(1e7, rel=1e-9)
        # At eps = 5e-9 the Markov scan still sees C B, but the zero at 2e8
        # lies past 1 / TOL_INF.
        model = companion_realization([5e-9, -1.0], [1.0, 0.0, 0.0])
        assert fl.relative_degree_and_gain(model)[0] == 0
        with pytest.raises(fl.DegenerateRealizationError):
            fl.compute_finite_zeros(model)

    def test_degenerate_realization_raises(self):
        m = fl.StateSpaceModel([[0.5, 0.0], [0.0, 0.25]], [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(fl.DegenerateRealizationError):
            fl.compute_finite_zeros(m)


class TestNmpZeroProduct:
    def test_examples(self):
        assert fl.nmp_zero_product([]) == 1.0
        assert fl.nmp_zero_product([0.5]) == 1.0
        assert fl.nmp_zero_product([2.0]) == 2.0
        assert fl.nmp_zero_product([-3.0, 0.1]) == pytest.approx(3.0, rel=1e-12)
        assert fl.nmp_zero_product([2.0j, -2.0j]) == pytest.approx(4.0, rel=1e-12)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_product_at_least_one(self, zeros):
        assert fl.nmp_zero_product(zeros) >= 1.0


class TestSimilarityInvariance:
    @pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")
    def test_characteristics_survive_state_coordinates(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            den = np.concatenate(([1.0], rng.normal(size=n)))
            deg_num = int(rng.integers(1, n))
            num = rng.normal(size=deg_num + 1)
            num[0] = np.sign(num[0]) * (abs(num[0]) + 0.5)
            model = companion_realization(num, den)

            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            t = q @ np.diag(rng.uniform(0.5, 2.0, size=n))
            t_inv = np.linalg.inv(t)
            moved = fl.StateSpaceModel(t @ model.A @ t_inv, t @ model.B, (model.C @ t_inv))

            ref = fl.analyze_plant(model)
            got = fl.analyze_plant(moved)
            assert got.relative_degree == ref.relative_degree
            assert got.markov_gain == pytest.approx(ref.markov_gain, rel=1e-7, abs=1e-9)
            assert got.unstable_pole_product == pytest.approx(
                ref.unstable_pole_product, rel=1e-7
            )
            assert got.nmp_zero_product == pytest.approx(ref.nmp_zero_product, rel=1e-5)
            assert_complex_sets_close(got.finite_zeros, ref.finite_zeros, atol=1e-5)
            assert_complex_sets_close(
                sorted_complex(got.poles), sorted_complex(ref.poles), atol=1e-6
            )


class TestAnalyzePlant:
    def test_full_report_on_relative_degree_zero(self):
        model = companion_realization([1.0, -2.0], [1.0, 0.0, 0.0])
        with pytest.warns(
            fl.AnalysisWarning, match=r"relative degree is 0: .* one step later, as .* of y_\{k\+1\}"
        ):
            chars = fl.analyze_plant(model)
        assert chars.relative_degree == 0
        assert chars.markov_gain == pytest.approx(1.0)
        assert chars.nmp_zero_product == pytest.approx(2.0, rel=1e-9)
        assert chars.unstable_pole_product == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::fundlim.AnalysisWarning")
    def test_near_cancellation_warned(self):
        # Transfer function (z - 0.5000001)(z + 2) / (z - 0.5)(z - 0.1)(z + 0.3)
        pole_poly = np.poly([0.5, 0.1, -0.3])
        zero_poly = np.poly([0.5000001, -2.0])
        model = companion_realization(zero_poly, pole_poly)
        with pytest.warns(fl.AnalysisWarning, match="cancellation"):
            fl.analyze_plant(model)

    def test_markov_parameters_scanned_once(self, monkeypatch):
        import fundlim.plant as plant_module

        calls = []
        scan = plant_module.relative_degree_and_gain

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(plant_module, "relative_degree_and_gain", counted)
        model = companion_realization(np.poly([2.0]), np.poly([0.5, 0.1, -0.3]))
        chars = fl.analyze_plant(model)
        assert len(calls) == 1
        assert chars.nmp_zero_product == pytest.approx(2.0, rel=1e-9)

    def test_to_dict_schema(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            payload = fl.analyze_plant(oscillator()).to_dict()
        assert set(payload) == {
            "poles",
            "unstable_pole_product",
            "finite_zeros",
            "nmp_zero_product",
            "relative_degree",
            "markov_gain",
        }
        assert payload["unstable_pole_product"] == pytest.approx(4.0, rel=1e-9)
