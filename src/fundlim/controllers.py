"""Causal output-feedback control laws for the closed-loop simulator.

A controller maps the measurement stream y_0, y_1, ... to a command stream
z_0, z_1, ... where z_k may depend only on samples up to index k plus
internal state. Custom laws subclass CausalController and implement
``reset``/``step``. Each built-in declares its law once, as a batch
interface (``reset_batch``/``step_batch`` on aligned 1-D arrays, one entry
per trajectory) that the simulator uses to vectorize across trajectories;
its ``reset``/``step`` are the single-stream case of that law.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod

import numpy as np

from .errors import InvalidModelError, check_number, check_numbers, parse_numbers

__all__ = [
    "CausalController",
    "LinearFilter",
    "StaticGain",
    "ZeroController",
    "parse_controller",
]


class CausalController(ABC):
    """Control law z_k = K(y_0, ..., y_k).

    A subclass with only ``reset``/``step`` costs the simulator one Python
    call per trajectory per step. Adding ``reset_batch(n_streams)`` and
    ``step_batch(y)`` (aligned 1-D arrays, one entry per trajectory)
    vectorizes it across trajectories.

    The simulator never steps the instance it is given: each chunk of
    trajectories works on ``clone()`` copies. Chunks may run in a pool of
    forked worker processes (see ``run_closed_loop``), so these methods can
    run in a child process, and state they change there does not reach the
    caller. Nothing needs to be picklable: workers inherit the instance by
    ``fork``, through the pool's initializer.
    """

    @abstractmethod
    def reset(self) -> None:
        """Clear internal state before a fresh trajectory."""

    @abstractmethod
    def step(self, y: float) -> float:
        """Consume the current measurement and emit the current command."""

    def clone(self) -> "CausalController":
        """Independent copy; each trajectory owns its own instance."""
        return copy.deepcopy(self)


def _has_batch_interface(controller: CausalController) -> bool:
    return callable(getattr(controller, "reset_batch", None)) and callable(
        getattr(controller, "step_batch", None)
    )


class _BatchLaw(CausalController):
    """A law declared once, by ``step_batch``; its scalar interface is one stream of it.

    A memoryless law needs no state, so ``reset_batch`` does nothing here.
    """

    def reset(self) -> None:
        self.reset_batch(1)

    def step(self, y: float) -> float:
        return float(self.step_batch(np.array([float(y)]))[0])

    def reset_batch(self, n_streams: int) -> None:
        pass

    @abstractmethod
    def step_batch(self, y: np.ndarray) -> np.ndarray:
        """Command for each stream, as a fresh array the caller may keep."""


class ZeroController(_BatchLaw):
    """Open-loop baseline: z_k = 0, so the error equals the disturbance."""

    def step_batch(self, y: np.ndarray) -> np.ndarray:
        return np.zeros_like(y)


class StaticGain(_BatchLaw):
    """Proportional negative feedback z_k = -gain * y_k."""

    def __init__(self, gain: float):
        self.gain = check_number("gain", gain)

    def step_batch(self, y: np.ndarray) -> np.ndarray:
        return -self.gain * y


class LinearFilter(_BatchLaw):
    """ARMA negative feedback on the measurement history.

    Runs the recursion ``v_k = sum_i b[i] y_{k-i} - sum_j a[j] v_{k-j}``
    and emits ``z_k = -v_k``, so ``LinearFilter([c])`` coincides with
    ``StaticGain(c)``. State is kept as (lag, stream) arrays; the scalar
    interface is the single-stream case.
    """

    def __init__(self, b_coeffs, a_coeffs=()):
        b = check_numbers("filter coefficients", "a filter coefficient", b_coeffs, flat=True)
        a = check_numbers("filter coefficients", "a filter coefficient", a_coeffs, flat=True)
        if b.size == 0:
            raise InvalidModelError("filter needs at least one feedforward coefficient")
        self.b = b
        self.a = a
        self.reset()

    def reset_batch(self, n_streams: int) -> None:
        self._y_hist = np.zeros((self.b.size, n_streams))
        self._v_hist = np.zeros((self.a.size, n_streams))
        # Work buffers for v and a @ v_hist, reused by every step.
        self._v = np.empty(n_streams)
        self._av = np.empty(n_streams)

    def step_batch(self, y: np.ndarray) -> np.ndarray:
        self._y_hist[1:] = self._y_hist[:-1]
        self._y_hist[0] = y
        # np.dot, not np.matmul: matmul's path for a length-1 b or a costs
        # several times as much, for the same floats.
        v = np.dot(self.b, self._y_hist, out=self._v)
        if self.a.size:
            np.subtract(v, np.dot(self.a, self._v_hist, out=self._av), out=v)
            self._v_hist[1:] = self._v_hist[:-1]
            self._v_hist[0] = v
        return -v


def parse_controller(text: str) -> CausalController:
    """Build a controller from its command-line description.

    Grammar: ``zero`` | ``gain:<c>`` | ``arma:<b0,b1,...;a1,a2,...>``
    (the a-list may be empty, as in ``arma:0.5;``).
    """
    text = text.strip()
    if text == "zero":
        return ZeroController()
    if text.startswith("gain:"):
        try:
            return StaticGain(float(text[5:]))
        except ValueError as exc:
            raise InvalidModelError(f"bad gain controller {text!r}: {exc}") from exc
    if text.startswith("arma:"):
        body = text[5:]
        if ";" not in body:
            raise InvalidModelError(
                f"bad arma controller {text!r}: expected 'arma:<b0,...;a1,...>'"
            )
        where = f"arma controller {text!r}"
        b, a = (parse_numbers(part.split(","), where) for part in body.split(";", 1))
        if not b:
            raise InvalidModelError(f"bad arma controller {text!r}: empty b coefficient list")
        return LinearFilter(b, a)
    raise InvalidModelError(
        f"unknown controller spec {text!r}; expected 'zero', 'gain:<c>', or "
        "'arma:<b0,...;a1,...>'"
    )
