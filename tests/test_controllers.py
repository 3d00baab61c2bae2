"""Feedback laws: step semantics, batch/scalar agreement, the text grammar."""

import numpy as np
import pytest

import fundlim as fl
from fundlim.controllers import LinearFilter, StaticGain, ZeroController


def drive(controller, measurements):
    controller.reset()
    return [controller.step(y) for y in measurements]


class TestZeroController:
    def test_always_zero(self):
        assert drive(ZeroController(), [1.0, -3.0, 0.5]) == [0.0, 0.0, 0.0]

    def test_batch(self):
        c = ZeroController()
        c.reset_batch(4)
        np.testing.assert_array_equal(c.step_batch(np.arange(4.0)), np.zeros(4))


class TestStaticGain:
    def test_negative_feedback_sign(self):
        assert drive(StaticGain(1.5), [2.0, -1.0]) == [-3.0, 1.5]

    def test_memoryless(self):
        c = StaticGain(0.7)
        first = drive(c, [1.0, 2.0, 3.0])
        second = drive(c, [1.0, 2.0, 3.0])
        assert first == second

    @pytest.mark.parametrize("gain", ["2", True, np.True_, None])
    def test_gain_must_be_a_number(self, gain):
        with pytest.raises(TypeError, match="gain must be a number"):
            StaticGain(gain)


class TestLinearFilter:
    def reference(self, b, a, measurements):
        # Hand-rolled recursion v_k = sum_i b[i] y_{k-i} - sum_j a[j] v_{k-j}.
        y_hist, v_hist, out = [], [], []
        for y in measurements:
            y_hist.insert(0, y)
            v = sum(bi * yi for bi, yi in zip(b, y_hist))
            v -= sum(aj * vj for aj, vj in zip(a, v_hist))
            v_hist.insert(0, v)
            out.append(-v)
        return out

    def test_pure_gain_case(self):
        y = [0.3, -1.2, 4.0]
        assert drive(LinearFilter([0.7]), y) == pytest.approx(drive(StaticGain(0.7), y))

    def test_fir_matches_reference(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=40)
        b = [0.5, -0.2, 0.1]
        got = drive(LinearFilter(b), y)
        assert got == pytest.approx(self.reference(b, [], y), rel=1e-12)

    def test_arma_matches_reference(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=60)
        b, a = [1.0, -0.4], [0.3, -0.1]
        got = drive(LinearFilter(b, a), y)
        assert got == pytest.approx(self.reference(b, a, y), rel=1e-11)

    def test_reset_clears_memory(self):
        c = LinearFilter([1.0, 1.0])
        first = drive(c, [1.0, 0.0, 0.0])
        again = drive(c, [1.0, 0.0, 0.0])
        assert first == again == [-1.0, -1.0, 0.0]

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        streams = rng.normal(size=(30, 5))  # (time, trajectory)
        b, a = [0.9, -0.3, 0.05], [0.25]
        batch = LinearFilter(b, a)
        batch.reset_batch(5)
        batch_out = np.stack([batch.step_batch(row) for row in streams])
        for m in range(5):
            scalar_out = drive(LinearFilter(b, a), streams[:, m])
            np.testing.assert_allclose(batch_out[:, m], scalar_out, rtol=1e-12)
        # The memoryless built-ins bit for bit, with an edge value per stream.
        streams = np.vstack((streams, [np.inf, -np.inf, np.nan, -0.0, 0.0], streams[:3]))
        for make in (ZeroController, lambda: StaticGain(1.5), lambda: StaticGain(0.0)):
            batch = make()
            batch.reset_batch(5)
            with np.errstate(invalid="ignore"):  # 0 * inf
                batch_out = np.stack([batch.step_batch(row) for row in streams])
                for m in range(5):
                    scalar_out = np.array(drive(make(), streams[:, m]))
                    assert scalar_out.tobytes() == batch_out[:, m].tobytes()

    @pytest.mark.parametrize("streams", [1, 8192])
    @pytest.mark.parametrize(
        "b, a",
        [
            ([0.9, -0.3, 0.05], [0.25, -0.1]),
            ([0.5, -0.2, 0.1], []),
            ([0.1], [-0.2]),
            ([0.7], []),
        ],
        ids=["arma", "fir", "arma_one_lag", "gain"],
    )
    def test_batch_outputs_are_fresh_and_replay_the_recursion(self, streams, b, a):
        # Each output must be a fresh array: stacking the kept outputs gives
        # what copying them one by one gave. Each must also equal, bit for
        # bit, the recursion written as plain array expressions.
        ys = np.random.default_rng(3).normal(size=(25, streams))
        law = LinearFilter(b, a)
        law.reset_batch(streams)
        kept, copies, expected = [], [], []
        y_hist, v_hist = np.zeros((len(b), streams)), np.zeros((len(a), streams))
        for y in ys:
            out = law.step_batch(y)
            kept.append(out)
            copies.append(out.copy())
            y_hist = np.concatenate(([y], y_hist[:-1]))
            v = np.asarray(b) @ y_hist
            if a:
                v = v - np.asarray(a) @ v_hist
                v_hist = np.concatenate(([v], v_hist[:-1]))
            expected.append(-v)
        assert np.stack(kept).tobytes() == np.stack(copies).tobytes()
        assert np.stack(kept).tobytes() == np.stack(expected).tobytes()

    def test_rejects_bad_coefficients(self):
        with pytest.raises(fl.InvalidModelError):
            LinearFilter([])
        with pytest.raises(fl.InvalidModelError):
            LinearFilter([np.nan])
        with pytest.raises(fl.InvalidModelError):
            LinearFilter([1.0], [np.inf])
        # A 2-D list was taken as b (its steps then raised) or flattened as a.
        with pytest.raises(fl.InvalidModelError, match=r"flat list, got shape \(1, 2\)"):
            LinearFilter([[1.0, 2.0]])
        with pytest.raises(fl.InvalidModelError, match=r"flat list, got shape \(2, 1\)"):
            LinearFilter([1.0], [[0.5], [0.25]])
        for b, a in (([True], []), (["1.0"], []), ([1.0], [np.True_]), ([1.0], "0.5")):
            with pytest.raises(TypeError, match="a filter coefficient must be a number"):
                LinearFilter(b, a)


class TestClone:
    def test_clone_is_independent(self):
        original = LinearFilter([1.0], [0.5])
        original.step(1.0)
        twin = original.clone()
        assert twin.step(0.0) == original.step(0.0)
        original.step(5.0)
        # The twin must not see the original's extra step.
        assert twin.step(0.0) != original.step(0.0)


class TestParseGrammar:
    def test_zero(self):
        assert isinstance(fl.parse_controller("zero"), ZeroController)
        assert isinstance(fl.parse_controller("  zero "), ZeroController)

    def test_gain(self):
        c = fl.parse_controller("gain:1.5")
        assert isinstance(c, StaticGain)
        assert c.gain == 1.5
        assert fl.parse_controller("gain:-2e-1").gain == -0.2

    def test_arma(self):
        c = fl.parse_controller("arma:0.5,-0.2;0.3")
        assert isinstance(c, LinearFilter)
        np.testing.assert_array_equal(c.b, [0.5, -0.2])
        np.testing.assert_array_equal(c.a, [0.3])

    def test_arma_empty_feedback_part(self):
        c = fl.parse_controller("arma:0.5;")
        np.testing.assert_array_equal(c.b, [0.5])
        assert c.a.size == 0

    @pytest.mark.parametrize(
        "text",
        ["", "zer0", "gain:", "gain:abc", "arma:1.0", "arma:;0.5", "arma:x;y", "pid:1,2,3"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(fl.InvalidModelError):
            fl.parse_controller(text)

    @pytest.mark.parametrize("text", ["gain:nan", "gain:inf", "gain:-inf"])
    def test_rejects_non_finite_gain(self, text):
        with pytest.raises(fl.InvalidModelError, match="gain must be finite"):
            fl.parse_controller(text)
