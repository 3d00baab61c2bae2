"""Disturbance processes with exact samplers and closed-form entropy summaries.

Four zero-mean variants are provided: IID Gaussian, IID uniform, the IID
max-entropy family for a fixed L_p norm (generalized Gaussian), and a
Gaussian autoregression. Each knows its conditional entropy rate in bits,
its marginal variance, its power spectral density, and its negentropy rate,
so the bound formulas can be fed either through the entropy route or the
spectral route.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import linalg, special

from .errors import (
    InvalidModelError,
    NonIntegrableSpectrumError,
    check_order,
    finite_power,
    read_utf8,
)

__all__ = [
    "DisturbanceModel",
    "EntropySummary",
    "GaussianAR",
    "GaussianIID",
    "GeneralizedGaussianIID",
    "SpectralDensity",
    "UniformIID",
    "disturbance_from_dict",
    "entropy_summary",
    "load_disturbance",
    "max_entropy_pdf",
    "max_entropy_value",
    "szego_entropy_rate",
    "szego_log_integral",
]

# Differential entropy of a unit-variance Gaussian, in bits.
GAUSSIAN_ENTROPY_BITS = 0.5 * math.log2(2.0 * math.pi * math.e)
DEFAULT_GRID = 4096


def _check_positive(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidModelError(f"{name} must be a finite positive number, got {value}")
    return value


def max_entropy_value(p: float, lp_norm: float) -> float:
    """Entropy in bits of the max-entropy density with E|x|^p = lp_norm^p.

    For finite p this is ``log2(2 Gamma((p+1)/p) (p e)^{1/p} lp_norm)``;
    the p = inf limit (uniform on [-lp_norm, lp_norm]) gives
    ``log2(2 lp_norm)``.
    """
    p = check_order(p)
    lp_norm = _check_positive(lp_norm, "lp_norm")
    if math.isinf(p):
        return math.log2(2.0 * lp_norm)
    return (
        math.log2(2.0 * special.gamma((p + 1.0) / p) * lp_norm)
        + math.log2(p * math.e) / p
    )


def max_entropy_pdf(p: float, lp_norm: float, x):
    """Density of the entropy maximizer under the L_p moment constraint.

    Parameters
    ----------
    p : float
        Norm order, p >= 1; math.inf selects the uniform limit on
        [-lp_norm, lp_norm].
    lp_norm : float
        Constraint level: E|x|^p = lp_norm^p (ess sup for p = inf).
    x : float or array_like
        Evaluation points.

    Returns
    -------
    float or ndarray
        Density values, matching the shape of x.
    """
    p = check_order(p)
    lp_norm = _check_positive(lp_norm, "lp_norm")
    arr = np.asarray(x, dtype=float)
    if math.isinf(p):
        out = np.where(np.abs(arr) <= lp_norm, 0.5 / lp_norm, 0.0)
    else:
        height = 2.0 * special.gamma((p + 1.0) / p) * p ** (1.0 / p) * lp_norm
        out = np.exp(-((np.abs(arr) / lp_norm) ** p) / p) / height
    return float(out) if np.isscalar(x) else out


def _subbotin_variance(p: float, lp_norm: float) -> float:
    # E x^2 = p^{2/p} lp_norm^2 Gamma(3/p) / Gamma(1/p)
    return (
        p ** (2.0 / p)
        * finite_power(lp_norm, 2, "disturbance variance")
        * math.exp(special.gammaln(3.0 / p) - special.gammaln(1.0 / p))
    )


@dataclass(frozen=True)
class SpectralDensity:
    """Power spectral density tabulated on a frequency grid covering one period.

    The default constructors use N uniform points over [-pi, pi); values must
    be nonnegative and, on uniform grids, symmetric in frequency.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 16 or grid.shape != values.shape:
            raise InvalidModelError("spectrum grid and values must be 1-D, equal length >= 16")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(values)):
            raise InvalidModelError("spectrum contains NaN or Inf")
        if np.any(np.diff(grid) <= 0):
            raise InvalidModelError("spectrum grid must be strictly increasing")
        if np.any(values < 0):
            raise InvalidModelError("spectral density must be nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if self._is_uniform_periodic():
            n = grid.size
            mirrored = values[(n - np.arange(n)) % n]
            if not np.allclose(values, mirrored, rtol=1e-8, atol=1e-12):
                raise InvalidModelError("spectral density must be even in frequency")

    def _is_uniform_periodic(self) -> bool:
        # True for a uniform half-open grid [w0, w0 + 2*pi).
        steps = np.diff(self.grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            return False
        span = self.grid[-1] - self.grid[0] + steps[0]
        return abs(span - 2.0 * math.pi) < 1e-9

    @classmethod
    def from_function(cls, fn: Callable, n_grid: int = DEFAULT_GRID) -> "SpectralDensity":
        """Tabulate a closed-form density on N uniform points over [-pi, pi)."""
        n_grid = _check_grid(n_grid)
        grid = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
        return cls(grid=grid, values=np.asarray(fn(grid), dtype=float))

    @classmethod
    def from_samples(cls, omega, values) -> "SpectralDensity":
        """Wrap externally tabulated (omega, S) pairs covering one period."""
        return cls(grid=omega, values=values)

    def quadrature_mean(self, integrand: np.ndarray) -> float:
        """(1/2pi) * integral of a tabulated function over one period.

        Uniform half-open grids use the periodic trapezoid rule (the plain
        mean); grids carrying both endpoints fall back to the composite
        trapezoid rule.
        """
        if self._is_uniform_periodic():
            return float(np.mean(integrand))
        span = self.grid[-1] - self.grid[0]
        if abs(span - 2.0 * math.pi) > 1e-6:
            raise InvalidModelError("spectrum grid must cover one full period of 2*pi")
        return float(np.trapezoid(integrand, self.grid) / (2.0 * math.pi))


def _check_grid(n_grid: int) -> int:
    n_grid = int(n_grid)
    if n_grid < 16 or n_grid % 2:
        raise InvalidModelError(f"grid size must be even and >= 16, got {n_grid}")
    return n_grid


def szego_log_integral(spectrum: SpectralDensity) -> float:
    """(1/2pi) * integral of log2 S(omega) over one period, in bits.

    Raises NonIntegrableSpectrumError when any tabulated sample is
    nonpositive, since the log integral then diverges to -inf.
    """
    if np.any(spectrum.values <= 0.0):
        raise NonIntegrableSpectrumError(
            "spectral density has a nonpositive sample; log integral diverges"
        )
    return spectrum.quadrature_mean(np.log2(spectrum.values))


def szego_entropy_rate(spectrum: SpectralDensity, negentropy_bits: float = 0.0) -> float:
    """Entropy rate in bits recovered from a power spectrum.

    Computes ``(1/2pi) * int log2 sqrt(2 pi e S(w)) dw - negentropy_bits``,
    which for a stationary process equals the conditional entropy rate; the
    negentropy term corrects for non-Gaussianity (zero for Gaussian inputs).
    """
    if not math.isfinite(negentropy_bits) or negentropy_bits < 0.0:
        raise InvalidModelError("negentropy must be finite and >= 0 bits")
    return GAUSSIAN_ENTROPY_BITS + 0.5 * szego_log_integral(spectrum) - negentropy_bits


@dataclass(frozen=True)
class EntropySummary:
    """Entropy quantities of a disturbance, all in bits per step."""

    conditional_entropy_rate: float
    negentropy_rate: float


class DisturbanceModel(ABC):
    """Zero-mean scalar disturbance with closed-form information quantities."""

    @abstractmethod
    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        """Draw one trajectory of the given length, deterministic in seed.

        ``seed`` is an int or a ``numpy.random.Generator``; draw through
        ``np.random.default_rng(seed)``, which returns a Generator unchanged,
        so that successive calls continue its stream. The simulator hands
        one Generator to every trajectory of a chunk, in trajectory order.
        The draws are reproducible per numpy version only: numpy does not
        freeze Generator distribution streams (NEP 19).
        """

    @abstractmethod
    def conditional_entropy_rate(self) -> float:
        """h(d_k | d_0..d_{k-1}) in bits (marginal entropy for IID variants)."""

    @abstractmethod
    def variance(self) -> float:
        """Stationary marginal variance."""

    @abstractmethod
    def spectrum_value(self, omega):
        """Power spectral density evaluated at the given frequencies."""

    @abstractmethod
    def negentropy_rate(self) -> float:
        """Gap in bits between the Gaussian entropy at this variance and the actual entropy."""

    @abstractmethod
    def scaled(self, factor: float) -> "DisturbanceModel":
        """Model of the amplitude-scaled process factor * d."""

    @abstractmethod
    def to_dict(self) -> dict:
        """JSON-ready description."""

    def power_spectrum(self, n_grid: int = DEFAULT_GRID) -> SpectralDensity:
        """Tabulate the power spectral density on N uniform points over [-pi, pi)."""
        return SpectralDensity.from_function(self.spectrum_value, n_grid)

    def _iid_negentropy(self) -> float:
        gaussian = GAUSSIAN_ENTROPY_BITS + 0.5 * math.log2(self.variance())
        # Clamp: the gap is nonnegative by the max-entropy property, but
        # floating point can land a hair below zero at the Gaussian member.
        return max(0.0, gaussian - self.conditional_entropy_rate())


def _sample_length(length: int) -> int:
    length = int(length)
    if length < 1:
        raise InvalidModelError(f"sample length must be >= 1, got {length}")
    return length


@dataclass(frozen=True)
class GaussianIID(DisturbanceModel):
    """IID N(0, sigma^2) disturbance."""

    sigma: float

    def __post_init__(self) -> None:
        _check_positive(self.sigma, "sigma")

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.sigma * rng.standard_normal(_sample_length(length))

    def conditional_entropy_rate(self) -> float:
        return GAUSSIAN_ENTROPY_BITS + math.log2(self.sigma)

    def variance(self) -> float:
        return finite_power(self.sigma, 2, "disturbance variance")

    def spectrum_value(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.variance())

    def negentropy_rate(self) -> float:
        return 0.0

    def scaled(self, factor: float) -> "GaussianIID":
        return GaussianIID(sigma=factor * self.sigma)

    def to_dict(self) -> dict:
        return {"type": "iid_gaussian", "sigma": float(self.sigma)}


@dataclass(frozen=True)
class UniformIID(DisturbanceModel):
    """IID uniform disturbance on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self) -> None:
        _check_positive(self.half_width, "half_width")

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.half_width * rng.uniform(-1.0, 1.0, _sample_length(length))

    def conditional_entropy_rate(self) -> float:
        return math.log2(2.0 * self.half_width)

    def variance(self) -> float:
        return finite_power(self.half_width, 2, "disturbance variance") / 3.0

    def spectrum_value(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.variance())

    def negentropy_rate(self) -> float:
        return self._iid_negentropy()

    def scaled(self, factor: float) -> "UniformIID":
        return UniformIID(half_width=factor * self.half_width)

    def to_dict(self) -> dict:
        return {"type": "iid_uniform", "half_width": float(self.half_width)}


@dataclass(frozen=True)
class GeneralizedGaussianIID(DisturbanceModel):
    """IID max-entropy disturbance for a fixed L_p norm (generalized Gaussian).

    ``shape`` is the norm order p >= 1 (finite; the p = inf member is
    UniformIID), and ``lp_norm`` fixes E|d|^p = lp_norm^p. The sampler is
    exact: with G ~ Gamma(1 + 1/p) and V ~ U(-1, 1) independent,
    d = p^(1/p) lp_norm G^(1/p) V is a uniform scale mixture whose density,
    after integrating over G, is exp(-|x|^p) / (2 Gamma(1 + 1/p)) at unit
    scale, the max-entropy density. No separate sign draw is needed.
    """

    shape: float
    lp_norm: float

    def __post_init__(self) -> None:
        p = float(self.shape)
        if not math.isfinite(p) or p < 1.0:
            raise InvalidModelError(f"shape must be finite and >= 1, got {p}")
        _check_positive(self.lp_norm, "lp_norm")

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        length = _sample_length(length)
        p = self.shape
        rng = np.random.default_rng(seed)
        # In place: one call per trajectory, so each temporary costs time.
        out = rng.standard_gamma(1.0 + 1.0 / p, length)
        out **= 1.0 / p
        out *= rng.uniform(-1.0, 1.0, length)
        out *= p ** (1.0 / p) * self.lp_norm
        return out

    def conditional_entropy_rate(self) -> float:
        return max_entropy_value(self.shape, self.lp_norm)

    def variance(self) -> float:
        return _subbotin_variance(self.shape, self.lp_norm)

    def spectrum_value(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.variance())

    def negentropy_rate(self) -> float:
        return self._iid_negentropy()

    def scaled(self, factor: float) -> "GeneralizedGaussianIID":
        return GeneralizedGaussianIID(shape=self.shape, lp_norm=factor * self.lp_norm)

    def to_dict(self) -> dict:
        return {
            "type": "iid_gengauss",
            "shape": float(self.shape),
            "lp_norm": float(self.lp_norm),
        }


@dataclass(frozen=True)
class GaussianAR(DisturbanceModel):
    """Stable Gaussian autoregression d_k = sum_i coeffs[i] d_{k-i} + w_k.

    Innovations w_k are IID N(0, innovation_std^2). Sampling is exact: the
    initial lags are drawn from the stationary law (discrete Lyapunov solve
    for the companion-form state covariance, done once per model) before
    filtering the innovations.
    """

    coeffs: tuple
    innovation_std: float

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        if len(coeffs) == 0:
            raise InvalidModelError("coeffs must contain at least one lag coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise InvalidModelError("coeffs contain NaN or Inf")
        _check_positive(self.innovation_std, "innovation_std")
        roots = np.roots([1.0] + [-c for c in coeffs])
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise InvalidModelError(
                "autoregression is not stable: a root of the lag polynomial "
                "lies on or outside the unit circle"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _unit_lag_covariance(self) -> np.ndarray:
        # Stationary covariance of (d_k, ..., d_{k-m+1}) for unit innovation
        # variance, via the companion-form discrete Lyapunov equation.
        m = self.order
        companion = np.zeros((m, m))
        companion[0, :] = self.coeffs
        if m > 1:
            companion[1:, :-1] = np.eye(m - 1)
        noise = np.zeros((m, m))
        noise[0, 0] = 1.0
        cov = linalg.solve_discrete_lyapunov(companion, noise)
        return 0.5 * (cov + cov.T)

    @cached_property
    def _unit_lag_cholesky(self) -> np.ndarray:
        return np.linalg.cholesky(self._unit_lag_covariance)

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        # Imported here, its only use: scipy.signal pulls in scipy.stats,
        # which would more than double the import time of every CLI command.
        from scipy import signal

        length = _sample_length(length)
        rng = np.random.default_rng(seed)
        innovations = self.innovation_std * rng.standard_normal(length)
        initial_lags = self.innovation_std * (
            self._unit_lag_cholesky @ rng.standard_normal(self.order)
        )
        denominator = np.concatenate(([1.0], -np.asarray(self.coeffs)))
        state = signal.lfiltic([1.0], denominator, y=initial_lags)
        out, _ = signal.lfilter([1.0], denominator, innovations, zi=state)
        return out

    def conditional_entropy_rate(self) -> float:
        return GAUSSIAN_ENTROPY_BITS + math.log2(self.innovation_std)

    def variance(self) -> float:
        return finite_power(self.innovation_std, 2, "disturbance variance") * float(
            self._unit_lag_covariance[0, 0]
        )

    def spectrum_value(self, omega):
        omega = np.asarray(omega, dtype=float)
        lags = np.arange(1, self.order + 1)
        response = 1.0 - np.exp(-1j * np.multiply.outer(omega, lags)) @ np.asarray(self.coeffs)
        return finite_power(self.innovation_std, 2, "disturbance spectrum") / np.abs(response) ** 2

    def negentropy_rate(self) -> float:
        return 0.0

    def scaled(self, factor: float) -> "GaussianAR":
        return GaussianAR(coeffs=self.coeffs, innovation_std=factor * self.innovation_std)

    def to_dict(self) -> dict:
        return {
            "type": "gauss_ar",
            "coeffs": [float(c) for c in self.coeffs],
            "innovation_std": float(self.innovation_std),
        }


def entropy_summary(model: DisturbanceModel) -> EntropySummary:
    """Collect the entropy quantities of a stationary disturbance model."""
    return EntropySummary(
        conditional_entropy_rate=model.conditional_entropy_rate(),
        negentropy_rate=model.negentropy_rate(),
    )


_MODEL_TAGS = {
    "iid_gaussian": lambda d: GaussianIID(sigma=d["sigma"]),
    "iid_uniform": lambda d: UniformIID(half_width=d["half_width"]),
    "iid_gengauss": lambda d: GeneralizedGaussianIID(shape=d["shape"], lp_norm=d["lp_norm"]),
    "gauss_ar": lambda d: GaussianAR(coeffs=d["coeffs"], innovation_std=d["innovation_std"]),
}


def disturbance_from_dict(payload: dict) -> DisturbanceModel:
    """Build a disturbance model from its JSON description."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise InvalidModelError("disturbance description must be an object with a 'type' field")
    tag = payload["type"]
    builder = _MODEL_TAGS.get(tag)
    if builder is None:
        known = ", ".join(sorted(_MODEL_TAGS))
        raise InvalidModelError(f"unknown disturbance type {tag!r} (known: {known})")
    try:
        return builder(payload)
    except KeyError as exc:
        raise InvalidModelError(
            f"disturbance type {tag!r} is missing field {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, InvalidModelError):
            raise
        raise InvalidModelError(f"disturbance parameters are malformed: {exc}") from exc


def load_disturbance(path) -> DisturbanceModel:
    """Read a disturbance model from a JSON file."""
    try:
        payload = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"disturbance file is not valid JSON: {exc}") from exc
    return disturbance_from_dict(payload)
