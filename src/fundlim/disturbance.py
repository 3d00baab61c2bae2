"""Disturbance processes with exact samplers and closed-form entropy summaries.

Four zero-mean variants are provided: IID Gaussian, IID uniform, the IID
max-entropy family for a fixed L_p norm (generalized Gaussian), and a
Gaussian autoregression. Each knows its conditional entropy rate in bits,
its marginal variance, its power spectral density, and its negentropy rate,
so the bound formulas can be fed either through the entropy route or the
spectral route.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    InvalidModelError,
    NonIntegrableSpectrumError,
    check_number,
    check_numbers,
    check_order,
    check_whole,
    finite_power,
    from_fields,
    read_json,
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


def max_entropy_value(p: float, lp_norm: float) -> float:
    """Entropy in bits of the max-entropy density with E|x|^p = lp_norm^p.

    For finite p this is ``log2(2 Gamma((p+1)/p) (p e)^{1/p} lp_norm)``;
    the p = inf limit (uniform on [-lp_norm, lp_norm]) gives
    ``log2(2 lp_norm)``.
    """
    p = check_order(p)
    lp_norm = check_number("lp_norm", lp_norm, 0.0, strict=True)
    if math.isinf(p):
        return math.log2(2.0 * lp_norm)
    pe = p * math.e
    # Past p ~ 6.6e307, p e overflows; its logarithm does not.
    log_pe = math.log2(pe) if math.isfinite(pe) else math.log2(p) + math.log2(math.e)
    return math.log2(2.0 * math.gamma((p + 1.0) / p) * lp_norm) + log_pe / p


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
    lp_norm = check_number("lp_norm", lp_norm, 0.0, strict=True)
    arr = np.asarray(x, dtype=float)
    if math.isinf(p):
        out = np.where(np.abs(arr) <= lp_norm, 0.5 / lp_norm, 0.0)
    else:
        height = 2.0 * math.gamma((p + 1.0) / p) * p ** (1.0 / p) * lp_norm
        out = np.exp(-((np.abs(arr) / lp_norm) ** p) / p) / height
    return float(out) if np.isscalar(x) else out


def _subbotin_variance(p: float, lp_norm: float) -> float:
    # E x^2 = p^{2/p} lp_norm^2 Gamma(3/p) / Gamma(1/p)
    return (
        p ** (2.0 / p)
        * finite_power(lp_norm, 2, "disturbance variance")
        * math.exp(math.lgamma(3.0 / p) - math.lgamma(1.0 / p))
    )


@dataclass(frozen=True)
class SpectralDensity:
    """Power spectral density tabulated on a frequency grid covering one period.

    The default constructors use N uniform points over [-pi, pi). Values
    must be nonnegative. On a uniform grid, half-open (N points with step
    2 pi / N) or closed (N + 1 points whose ends lie 2 pi apart), they must
    also be even in frequency: the grid must map onto itself, modulo 2 pi,
    under omega -> -omega, as [-pi, pi), [0, 2 pi) and the midpoints
    -pi + pi/N + 2 pi i/N do; each value must match its mirror's; and a
    closed grid's two end values must agree. A non-uniform grid is not
    checked for evenness.
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
        n = self._uniform_period()
        if not n:
            return
        if grid.size > n and not np.isclose(values[-1], values[0], rtol=1e-8, atol=1e-12):
            raise InvalidModelError("spectral density must agree at both ends of a closed grid")
        # Point i is w0 + 2 pi i / n, whose mirror -w0 - 2 pi i / n is point
        # (m - i) mod n when m = -n w0 / pi is whole.
        offset = -n * grid[0] / math.pi
        m = round(offset)
        if abs(offset - m) > 1e-6:
            raise InvalidModelError(
                "uniform spectrum grid must map onto itself under omega -> -omega, "
                "so that its evenness can be checked"
            )
        mirrored = values[(m - np.arange(grid.size)) % n]
        if not np.allclose(values, mirrored, rtol=1e-8, atol=1e-12):
            raise InvalidModelError("spectral density must be even in frequency")

    def _uniform_period(self) -> int:
        # Points in one period of a uniform grid: all n of a half-open grid
        # [w0, w0 + 2*pi), n - 1 of a closed one [w0, w0 + 2*pi]; else 0.
        steps = np.diff(self.grid)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            return 0
        span = self.grid[-1] - self.grid[0]
        if abs(span + steps[0] - 2.0 * math.pi) < 1e-9:
            return self.grid.size
        return self.grid.size - 1 if abs(span - 2.0 * math.pi) <= 1e-6 else 0

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
        if self._uniform_period() == self.grid.size:
            return float(np.mean(integrand))
        span = self.grid[-1] - self.grid[0]
        if abs(span - 2.0 * math.pi) > 1e-6:
            raise InvalidModelError("spectrum grid must cover one full period of 2*pi")
        return float(np.trapezoid(integrand, self.grid) / (2.0 * math.pi))


def _check_grid(n_grid: int) -> int:
    n_grid = check_whole("grid size", n_grid)
    if n_grid < 16 or n_grid % 2:
        raise InvalidModelError(f"grid size must be even and >= 16, got {n_grid}")
    # No array can hold more than sys.maxsize bytes: reject such a grid here
    # instead of failing inside numpy.
    if n_grid * 8 > sys.maxsize:
        raise InvalidModelError(
            f"grid size {n_grid} is too large: its float64 table would exceed {sys.maxsize} bytes"
        )
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
    negentropy_bits = check_number("negentropy_bits", negentropy_bits, 0.0)
    return GAUSSIAN_ENTROPY_BITS + 0.5 * szego_log_integral(spectrum) - negentropy_bits


@dataclass(frozen=True)
class EntropySummary:
    """Entropy quantities of a disturbance, all in bits per step."""

    conditional_entropy_rate: float
    negentropy_rate: float


class DisturbanceModel(ABC):
    """Zero-mean scalar disturbance with closed-form information quantities.

    A built-in model is a dataclass whose JSON is ``{"type": tag}`` plus its fields.
    """

    tag: ClassVar[str]

    @abstractmethod
    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        """Draw one trajectory of the given length, deterministic in seed.

        ``seed`` is an int or a ``numpy.random.Generator``; draw through
        ``np.random.default_rng(seed)``, which returns a Generator unchanged,
        so that successive calls continue its stream. The simulator hands
        one Generator to every trajectory of a chunk, in trajectory order,
        unless the model also has a ``sample_rows(rng, out)`` method: the
        simulator then calls that instead, once per block of trajectories,
        and it must fill the (rows, length) float64 array ``out`` with rows,
        each a trajectory, drawn from ``rng``. ``UniformIID``,
        ``GeneralizedGaussianIID`` and ``GaussianAR`` have both, and their
        ``sample`` is the one-row case of ``sample_rows``. The draws are
        reproducible per numpy version only: numpy does not freeze Generator
        distribution streams (NEP 19).
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

    def to_dict(self) -> dict:
        """JSON-ready description: ``type`` and the dataclass fields."""
        return {"type": self.tag} | {
            name: [float(v) for v in value] if isinstance(value, tuple) else float(value)
            for name, value in asdict(self).items()
        }

    def power_spectrum(self, n_grid: int = DEFAULT_GRID) -> SpectralDensity:
        """Tabulate the power spectral density on N uniform points over [-pi, pi)."""
        return SpectralDensity.from_function(self.spectrum_value, n_grid)


class _WhiteNoise(DisturbanceModel):
    """An IID model, whose white-noise law gives its spectrum and negentropy.

    The spectrum is flat at the variance, and the negentropy rate is the
    gap between the Gaussian entropy at that variance and the model's own.
    """

    def spectrum_value(self, omega):
        return np.full_like(np.asarray(omega, dtype=float), self.variance())

    def negentropy_rate(self) -> float:
        gaussian = GAUSSIAN_ENTROPY_BITS + 0.5 * math.log2(self.variance())
        # Clamp: the gap is nonnegative by the max-entropy property, but
        # floating point can land a hair below zero at the Gaussian member.
        return max(0.0, gaussian - self.conditional_entropy_rate())


def _tail_fraction(a: float, z: float) -> float:
    """Gamma(a, z) e^z z^-a for 0 < a <= 1 and z >= 2.

    Lentz's evaluation of the continued fraction of the upper incomplete
    gamma function, which converges fast for z > a + 1.
    """
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    value = d
    for i in range(1, 300):
        term = -i * (i - a)
        b += 2.0
        d = term * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + term / c
        c = c if abs(c) > tiny else tiny
        value *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return value


class _Ziggurat:
    """Ziggurat of 256 equal-area layers under f(x) = exp(-x^p / p), x >= 0.

    Edges run from ``x[0]`` = V / f(r), the width of the base layer (the
    rectangle [0, r] x [0, f(r)] and the tail beyond r, of area V), down
    through ``x[1]`` = r to ``x[256]`` = 0, with layer i spanning heights
    ``f[i]`` to ``f[i + 1]`` = f[i] + V / x[i] and f[256] = 1. The base
    height f(r) = e^-z is solved for, by bracketing and secant steps on
    z = r^p / p, so that the recursion closes at 1. Edges are found as
    x = exp((ln p + ln z) / p), so no power overflows at large p, and the
    tail area is p^(1/p - 1) Gamma(1/p, z).
    """

    def __init__(self, p: float):
        self.p = p
        self.log_p = math.log(p)
        self.z = self._base_z()
        edges, heights, self.area = self._layers(self.z)
        edges.append(0.0)
        heights.append(1.0)
        self.r = edges[1]
        x = np.array(edges)
        self.width = x[:-1] * 2.0**-52
        # A candidate of layer i within x[i + 1] is under f at every
        # height of its layer.
        self.inner = x[1:]
        self.floor = np.array(heights)
        self.rise = np.diff(self.floor)

    def _base_z(self) -> float:
        """The z of the table that closes at 1, by Illinois secant steps in a bracket."""
        # Every shape p >= 1 overshoots 1 before the last layer at z = 4
        # and falls short of it at z = 12; bisect until lo has a finite gap.
        lo, hi, gap_lo, gap_hi = 4.0, 12.0, math.inf, self._closure(12.0)
        side = 0
        for _ in range(200):
            if math.isinf(gap_lo):
                z = 0.5 * (lo + hi)
            else:
                z = hi - gap_hi * (hi - lo) / (gap_hi - gap_lo)
            if not lo < z < hi:
                break
            gap = self._closure(z)
            if gap == 0.0:
                return z
            # Halve the gap at the end that stays put twice running.
            if gap > 0.0:
                lo, gap_lo = z, gap
                if side > 0:
                    gap_hi *= 0.5
                side = 1
            else:
                hi, gap_hi = z, gap
                if side < 0:
                    gap_lo *= 0.5
                side = -1
        return lo if abs(gap_lo) < abs(gap_hi) else hi

    def _edge(self, z: float) -> float:
        """The x >= 0 with x^p / p = z."""
        return math.exp((self.log_p + math.log(z)) / self.p)

    def _layers(self, z: float):
        """Edges x[0..255], heights f[0..255] and the layer area V for f(r) = e^-z.

        None when a height reaches 1 before the last layer.
        """
        p, h = self.p, math.exp(-z)
        a = 1.0 / p
        tail = math.exp((a - 1.0) * self.log_p + a * math.log(z) - z) * _tail_fraction(a, z)
        r = self._edge(z)
        area = r * h + tail
        edges, heights = [area / h, r], [0.0, h]
        for _ in range(2, 256):
            height = heights[-1] + area / edges[-1]
            if height >= 1.0:
                return None
            heights.append(height)
            edges.append(self._edge(-math.log(height)))
        return edges, heights, area

    def _closure(self, z: float) -> float:
        """How far the top of layer 255 lands above 1, +inf on overshoot."""
        layers = self._layers(z)
        if layers is None:
            return math.inf
        edges, heights, area = layers
        return heights[-1] + area / edges[-1] - 1.0

    def fill(self, rng: np.random.Generator, dest: np.ndarray) -> None:
        """Fill the contiguous 1-D float64 ``dest`` with unit-scale draws from rng.

        One candidate is written into each entry, and about n/16 + 64
        spare ones after them; each entry whose candidate is rejected takes
        the next accepted spare, and only a shortfall of spares draws again.
        """
        spare = np.empty(dest.size // 16 + 64)
        holes, lost = self._candidates(rng, dest, spare)
        kept = np.delete(spare, lost)
        if kept.size < holes.size:
            more = np.empty(holes.size - kept.size)
            self.fill(rng, more)
            kept = np.concatenate((kept, more))
        dest[holes] = kept[: holes.size]

    def _candidates(self, rng: np.random.Generator, dest: np.ndarray, spare: np.ndarray):
        """Write one candidate into each entry of dest, then of spare.

        Returns the indices of the rejected ones in dest and in spare. One
        raw word per candidate: its low 8 bits pick layer i and its top 53,
        signed, a k with |k| <= 2^52 for x = k x[i] / 2^52, accepted
        outright unless |x| > x[i + 1]. Each other candidate then takes one
        uniform: a wedge candidate keeps x unless a height that far up its
        layer is over f(|x|); a base-layer one is beyond r and is always
        kept, as a draw from the tail that uses the uniform for its first
        acceptance test.
        """
        n = dest.size
        words = rng.bit_generator.random_raw(n + spare.size)
        k = words.view(np.int64)
        layer = k & 0xFF
        k >>= 11
        outside = np.empty(words.size, dtype=bool)
        for part, at in ((dest, slice(None, n)), (spare, slice(n, None))):
            np.take(self.width, layer[at], out=part)
            part *= k[at]
            np.less(self.inner.take(layer[at]), np.abs(part), out=outside[at])
        miss = np.flatnonzero(outside)
        # How many of the misses are in dest, which come first.
        cut = np.count_nonzero(outside[:n])
        if not miss.size:
            return miss, miss
        layer = layer[miss]
        edge = self.width[layer] * k[miss]
        u = rng.random(miss.size)
        floor = self.floor[layer]
        # f(|x|) = e^-(|x|^p / p), as a pow of 1/e: a chunk worker runs pow
        # anyway, and each other numpy loop faults in code pages of its own.
        level = math.exp(-1.0) ** (np.abs(edge) ** self.p / self.p)
        reject = level < floor + self.rise[layer] * u
        # The base layer, the one whose floor is 0, reaches past r.
        base = floor == 0.0
        if np.count_nonzero(base):
            reject[base] = False
            t = self._tail(rng, u[base])
            # Tail draws replace their candidates, with their signs.
            drawn = np.where(edge[base] < 0.0, -t, t)
            at = miss[base]
            split = np.count_nonzero(base[:cut])
            dest[at[:split]] = drawn[:split]
            spare[at[split:] - n] = drawn[split:]
        cut = np.count_nonzero(reject[:cut])
        miss = miss[reject]
        return miss[:cut], miss[cut:] - n

    def _tail(self, rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
        """One exact draw beyond r per entry of u, the first acceptance uniforms.

        t with t^p / p = z + E, E exponential, has density t^(p - 1) times
        the tail's, so t is kept with probability (t / r)^(1 - p), which is
        (1 + E / z)^(1/p - 1); a rejected t is drawn again, with a new
        uniform, until it is kept.
        """
        p, z = self.p, self.z
        s = z + rng.standard_exponential(u.size)
        redo = np.flatnonzero((s / z) ** (1.0 / p - 1.0) < u)
        while redo.size:
            u = rng.random(redo.size)
            s[redo] = z + rng.standard_exponential(redo.size)
            redo = redo[(s[redo] / z) ** (1.0 / p - 1.0) < u]
        return p ** (1.0 / p) * s ** (1.0 / p)


@lru_cache(maxsize=None)
def _ziggurat(p: float) -> _Ziggurat:
    """The generalized Gaussian table of shape p, built once per process."""
    return _Ziggurat(p)


class _RowSampled(DisturbanceModel):
    """A model whose draws are defined by a block sampler.

    ``sample_rows(rng, out)`` fills each row of ``out`` with one trajectory,
    so the simulator fills a block of trajectories in one call; ``sample``
    is its one-row case, so the two give the same floats for one trajectory.
    """

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        out = np.empty((1, check_whole("sample length", length, least=1)))
        self.sample_rows(np.random.default_rng(seed), out)
        return out[0]

    @abstractmethod
    def sample_rows(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill the C-contiguous float64 block ``out``, one trajectory per row, from rng."""


@dataclass(frozen=True)
class GaussianIID(_WhiteNoise):
    """IID N(0, sigma^2) disturbance."""

    tag = "iid_gaussian"

    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", check_number("sigma", self.sigma, 0.0, strict=True))

    def sample(self, seed: int | np.random.Generator, length: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return self.sigma * rng.standard_normal(check_whole("sample length", length, least=1))

    def conditional_entropy_rate(self) -> float:
        return GAUSSIAN_ENTROPY_BITS + math.log2(self.sigma)

    def variance(self) -> float:
        return finite_power(self.sigma, 2, "disturbance variance")

    def negentropy_rate(self) -> float:
        # Exactly 0: the clamped gap can land an ulp above it.
        return 0.0

    def scaled(self, factor: float) -> "GaussianIID":
        return GaussianIID(sigma=factor * self.sigma)


@dataclass(frozen=True)
class UniformIID(_RowSampled, _WhiteNoise):
    """IID uniform disturbance on [-half_width, half_width]."""

    tag = "iid_uniform"

    half_width: float

    def __post_init__(self) -> None:
        half_width = check_number("half_width", self.half_width, 0.0, strict=True)
        object.__setattr__(self, "half_width", half_width)

    def sample_rows(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # The floats of rng.uniform(-1.0, 1.0, out.shape), which is
        # -1.0 + 2.0 * rng.random(), at about half its cost.
        rng.random(out=out)
        out *= 2.0
        out -= 1.0
        out *= self.half_width

    def conditional_entropy_rate(self) -> float:
        return math.log2(2.0 * self.half_width)

    def variance(self) -> float:
        return finite_power(self.half_width, 2, "disturbance variance") / 3.0

    def scaled(self, factor: float) -> "UniformIID":
        return UniformIID(half_width=factor * self.half_width)


@dataclass(frozen=True)
class GeneralizedGaussianIID(_RowSampled, _WhiteNoise):
    """IID max-entropy disturbance for a fixed L_p norm (generalized Gaussian).

    ``shape`` is the norm order p >= 1 (finite; the p = inf member is
    UniformIID), and ``lp_norm`` fixes E|d|^p = lp_norm^p: d / lp_norm has
    density proportional to exp(-|x|^p / p). The sampler is a ziggurat
    (Marsaglia and Tsang, 2000) over 256 equal-area layers of that density,
    built once per shape and process at the first draw. Each candidate is
    one raw 64-bit word of the generator: 8 bits pick a layer and 53 a
    signed position in it, and 98-99% of candidates (97.8% at shape 1) are
    accepted on one comparison; the rest take a uniform height in their
    layer's wedge or, in the base layer, an exact draw from the tail beyond
    the last edge. Candidates are written into the block in place, and a
    rejected one's entry takes the next accepted of a few spare candidates
    drawn after them, so the draws are exact up to the rounding of the
    table. Where float64 cannot tell the layer edges apart (shapes past
    about 1e17), the same table is the float64 box, uniform on
    [-lp_norm p^(1/p), lp_norm p^(1/p)].
    """

    tag = "iid_gengauss"

    shape: float
    lp_norm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", check_number("shape", self.shape, 1.0))
        lp_norm = check_number("lp_norm", self.lp_norm, 0.0, strict=True)
        object.__setattr__(self, "lp_norm", lp_norm)

    def sample_rows(self, rng: np.random.Generator, out: np.ndarray) -> None:
        _ziggurat(self.shape).fill(rng, out.reshape(-1))
        # Last: the table holds the unit-scale law, and most draws times
        # lp_norm stay finite even for lp_norm near float max.
        out *= self.lp_norm

    def conditional_entropy_rate(self) -> float:
        return max_entropy_value(self.shape, self.lp_norm)

    def variance(self) -> float:
        return _subbotin_variance(self.shape, self.lp_norm)

    def scaled(self, factor: float) -> "GeneralizedGaussianIID":
        return GeneralizedGaussianIID(shape=self.shape, lp_norm=factor * self.lp_norm)


# The largest condition number of a Yule-Walker system whose solve is
# trusted. Its relative error is up to about condition * 1.1e-16, and near
# the unit circle it grows without bound: roots 0.9999 and 0.9998 give
# 8.8e11, roots 0.999999 and 0.999998 give 1.75e16 and a negative variance.
_MAX_CONDITION = 1e12


@dataclass(frozen=True)
class GaussianAR(_RowSampled):
    """Stable Gaussian autoregression d_k = sum_i coeffs[i] d_{k-i} + w_k.

    Innovations w_k are IID N(0, innovation_std^2). Sampling is exact: the
    initial lags are drawn from the stationary law (a Yule-Walker solve,
    once per model) before filtering the innovations. A model too close to
    the unit circle for that solve in float64 is refused when it is made:
    one whose Yule-Walker system has a condition number above 1e12, or
    whose solved variance is not finite and positive.
    """

    tag = "gauss_ar"

    coeffs: tuple
    innovation_std: float

    def __post_init__(self) -> None:
        coeffs = check_numbers("coeffs", "a lag coefficient", self.coeffs, flat=True)
        if coeffs.size == 0:
            raise InvalidModelError("coeffs must contain at least one lag coefficient")
        innovation_std = check_number("innovation_std", self.innovation_std, 0.0, strict=True)
        roots = np.roots(np.concatenate(([1.0], -coeffs)))
        if roots.size and np.max(np.abs(roots)) >= 1.0:
            raise InvalidModelError(
                "autoregression is not stable: a root of the lag polynomial "
                "lies on or outside the unit circle"
            )
        object.__setattr__(self, "coeffs", tuple(coeffs.tolist()))
        object.__setattr__(self, "innovation_std", innovation_std)
        self._unit_lag_covariance  # refuses a system float64 cannot solve

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @cached_property
    def _unit_lag_covariance(self) -> np.ndarray:
        # Stationary covariance of (d_k, ..., d_{k-m+1}) for unit innovation
        # variance: the Toeplitz matrix of the autocovariances g_0..g_{m-1},
        # from the Yule-Walker system g_k - sum_i c_i g_|k-i| = [k = 0].
        m = self.order
        lags = np.arange(m + 1)
        system = np.eye(m + 1)
        gap = np.abs(lags[:, None] - lags[1:]).ravel()
        np.subtract.at(system, (np.repeat(lags, m), gap), np.tile(self.coeffs, m + 1))
        condition = np.linalg.cond(system)
        gamma = np.linalg.solve(system, np.eye(m + 1)[0]) if condition <= _MAX_CONDITION else None
        if gamma is None or not (math.isfinite(gamma[0]) and gamma[0] > 0.0):
            raise InvalidModelError(
                "autoregression too close to the unit circle: its Yule-Walker system "
                f"has condition number {condition:.3g} (limit {_MAX_CONDITION:.0e})"
            )
        return gamma[np.abs(lags[:m, None] - lags[:m])]

    @cached_property
    def _unit_lag_cholesky(self) -> np.ndarray:
        try:
            return np.linalg.cholesky(self._unit_lag_covariance)
        except np.linalg.LinAlgError as exc:
            raise InvalidModelError(f"autoregression too close to the unit circle: {exc}") from exc

    def sample_rows(self, rng: np.random.Generator, out: np.ndarray) -> None:
        # Each row draws its innovations, then its initial lags; all rows run
        # step-major through lfilter's transposed direct form, from the state
        # lfiltic sets, in their arithmetic: a row's floats are one filter's.
        rows, length = out.shape
        m = self.order
        draws = rng.standard_normal((rows, length + m))
        np.multiply(draws[:, :length], self.innovation_std, out=out)
        # Row by row: one batched product sums in another order.
        chol = self._unit_lag_cholesky
        lags = self.innovation_std * np.array([chol @ w for w in draws[:, length:]])
        # z_j = sum_i c_{j+i} lag_i, then z_j <- z_{j+1} + c_j y, with z_m = 0.
        coeffs = np.asarray(self.coeffs)
        state, spare = np.zeros((2, m + 1, rows))
        for j in range(m):
            np.sum(coeffs[j:] * lags[:, : m - j], axis=1, out=state[j])
        for k in range(length):
            out[:, k] += state[0]
            np.add(state[1:], coeffs[:, None] * out[:, k], out=spare[:-1])
            state, spare = spare, state

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


def entropy_summary(model: DisturbanceModel) -> EntropySummary:
    """Collect the entropy quantities of a stationary disturbance model."""
    return EntropySummary(
        conditional_entropy_rate=model.conditional_entropy_rate(),
        negentropy_rate=model.negentropy_rate(),
    )


_MODEL_TAGS = {
    model.tag: model for model in (GaussianIID, UniformIID, GeneralizedGaussianIID, GaussianAR)
}


def disturbance_from_dict(payload: dict) -> DisturbanceModel:
    """Build a disturbance model from its JSON description."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise InvalidModelError("disturbance description must be an object with a 'type' field")
    tag = payload["type"]
    model = _MODEL_TAGS.get(tag) if isinstance(tag, str) else None
    if model is None:
        known = ", ".join(sorted(_MODEL_TAGS))
        raise InvalidModelError(f"unknown disturbance type {tag!r} (known: {known})")
    params = {key: value for key, value in payload.items() if key != "type"}
    return from_fields(model, params, f"disturbance type {tag!r}", "disturbance parameters")


def load_disturbance(path) -> DisturbanceModel:
    """Read a disturbance model from a JSON file."""
    return disturbance_from_dict(read_json(path, "disturbance file"))
