"""Lower bounds on closed-loop L_p norms, with factor-by-factor breakdowns.

Every bound has the shape ``cp(p) * plant_factor * entropy_factor``: a
norm-order prefactor, a plant-side product (unstable poles, or nonminimum
phase zeros for the output bound), and an exponentiated entropy rate. The
spectral route rebuilds the entropy factor from a power spectrum and a
negentropy correction instead of a closed-form entropy rate. ``ROUTES`` maps
each route tag to its norm order, its plant needs and its builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .disturbance import (
    EntropySummary,
    SpectralDensity,
    entropy_summary,
    szego_log_integral,
)
from .errors import (
    InvalidModelError,
    InvalidNormOrderError,
    ZeroTransferFunctionError,
    check_number,
    check_order,
    finite_power,
    json_order,
)
from .plant import PlantCharacteristics

__all__ = [
    "BoundReport",
    "cp_constant",
    "error_bound_for_entropy",
    "error_bound_generic",
    "error_bound_lti",
    "error_bound_p2",
    "error_bound_pinf",
    "error_bound_spectral",
    "output_bound",
]

_SQRT_2PIE = math.sqrt(2.0 * math.pi * math.e)


def cp_constant(p: float) -> float:
    """Norm-order prefactor ``1 / (2 Gamma((p+1)/p) (p e)^{1/p})``.

    Evaluates to ``1/sqrt(2 pi e)`` at p = 2 and to the limit 1/2 at
    p = inf. Raises InvalidNormOrderError for p < 1.
    """
    p = check_order(p)
    if math.isinf(p):
        return 0.5
    pe = p * math.e
    # Past p ~ 6.6e307, p e overflows; its logarithm does not.
    root = pe ** (1.0 / p) if math.isfinite(pe) else math.exp((math.log(p) + 1.0) / p)
    return 1.0 / (2.0 * math.gamma((p + 1.0) / p) * root)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated lower bound and its factorization.

    ``bound_value`` is stored as the literal product
    ``cp * plant_factor * entropy_factor`` so the breakdown reproduces the
    bound bit for bit. ``details`` carries route-specific diagnostics
    (entropy rate, zero products, Szego integrals, ...).
    """

    p: float
    theorem_tag: str
    cp: float
    plant_factor: float
    entropy_factor: float
    bound_value: float
    details: dict = field(default_factory=dict)

    def variance_floor(self) -> float:
        """Squared form of the p = 2 bound: a floor on the error variance."""
        if self.p != 2.0:
            raise InvalidNormOrderError("the variance floor is defined only for p = 2")
        return finite_power(self.bound_value, 2, "variance floor")

    def to_dict(self) -> dict:
        factors = {
            "cp": float(self.cp),
            "plant_factor": float(self.plant_factor),
            "entropy_factor": float(self.entropy_factor),
        }
        factors.update({k: float(v) for k, v in self.details.items()})
        payload = {
            "p": json_order(self.p),
            "theorem": self.theorem_tag,
            "bound": float(self.bound_value),
            "factors": factors,
        }
        if self.p == 2.0:
            payload["variance_floor"] = float(self.variance_floor())
        return payload


def _report(p: float, tag: str, plant_factor: float, entropy_factor: float, **details) -> BoundReport:
    prefactor = cp_constant(p)
    if not (plant_factor >= 1.0 and math.isfinite(plant_factor)):
        raise InvalidModelError(f"plant factor must be finite and >= 1, got {plant_factor}")
    if not (entropy_factor > 0.0 and math.isfinite(entropy_factor)):
        raise InvalidModelError(f"entropy factor must be finite and positive, got {entropy_factor}")
    return BoundReport(
        p=float(p),
        theorem_tag=tag,
        cp=prefactor,
        plant_factor=plant_factor,
        entropy_factor=entropy_factor,
        bound_value=prefactor * plant_factor * entropy_factor,
        details=details,
    )


def _entropy_factor(bits: float) -> float:
    return finite_power(2.0, bits, f"entropy factor 2^{bits:g}")


def _entropy_bits(ent: EntropySummary) -> float:
    return check_number("conditional entropy rate", ent.conditional_entropy_rate)


def _pole_bound(
    p: float, tag: str, chars: PlantCharacteristics, ent: EntropySummary
) -> BoundReport:
    bits = _entropy_bits(ent)
    return _report(
        p,
        tag,
        plant_factor=float(chars.unstable_pole_product),
        entropy_factor=_entropy_factor(bits),
        entropy_rate_bits=bits,
    )


def error_bound_lti(p: float, chars: PlantCharacteristics, ent: EntropySummary) -> BoundReport:
    """Error-signal floor for an LTI plant: cp(p) * pole product * 2^entropy rate."""
    return _pole_bound(p, "T1", chars, ent)


def error_bound_p2(chars: PlantCharacteristics, ent: EntropySummary) -> BoundReport:
    """p = 2 specialization; its square is a floor on the error variance."""
    return _pole_bound(2.0, "C2", chars, ent)


def error_bound_pinf(chars: PlantCharacteristics, ent: EntropySummary) -> BoundReport:
    """p = inf specialization: a floor on the worst-case error deviation."""
    return _pole_bound(math.inf, "C3", chars, ent)


def error_bound_spectral(
    p: float,
    chars: PlantCharacteristics,
    spectrum: SpectralDensity,
    negentropy_bits: float = 0.0,
) -> BoundReport:
    """Error-signal floor computed through the power spectrum.

    The entropy factor is rebuilt as
    ``sqrt(2 pi e) * 2^{-negentropy} * 2^{(1/2pi) int log2 sqrt(S)}``;
    for the stationary models shipped here it agrees with the entropy-route
    factor to quadrature accuracy. At p = 2 with a stable plant and Gaussian
    disturbance, the squared bound lands on the classical one-step prediction
    floor ``2^{(1/2pi) int log2 S}``.
    """
    negentropy_bits = check_number("negentropy_bits", negentropy_bits, 0.0)
    log_integral = szego_log_integral(spectrum)
    entropy_factor = _SQRT_2PIE * _entropy_factor(0.5 * log_integral - negentropy_bits)
    return _report(
        p,
        "C4",
        plant_factor=float(chars.unstable_pole_product),
        entropy_factor=entropy_factor,
        szego_log_integral_bits=log_integral,
        negentropy_bits=negentropy_bits,
    )


def output_bound(p: float, chars: PlantCharacteristics, ent: EntropySummary) -> BoundReport:
    """Measurement-signal floor: cp(p) * |gain| * NMP zero product * 2^entropy rate.

    The plant factor is the nonminimum-phase zero product (always >= 1); the
    leading Markov gain multiplies the entropy factor and is reported
    separately in the details.
    """
    gain = abs(float(chars.markov_gain))
    if gain == 0.0:
        raise ZeroTransferFunctionError("output bound needs a nonzero leading Markov gain")
    bits = _entropy_bits(ent)
    return _report(
        p,
        "T2",
        plant_factor=float(chars.nmp_zero_product),
        entropy_factor=gain * _entropy_factor(bits),
        markov_gain=gain,
        nmp_zero_product=float(chars.nmp_zero_product),
        entropy_rate_bits=bits,
    )


def error_bound_generic(p: float, ent: EntropySummary) -> BoundReport:
    """Plant-independent error floor for any strictly causal loop: cp(p) * 2^entropy rate."""
    return error_bound_for_entropy(p, _entropy_bits(ent))


def error_bound_for_entropy(p: float, entropy_bits: float) -> BoundReport:
    """Per-step form of the generic floor, from a conditional entropy in bits.

    Useful for nonstationary disturbances where h(d_k | d_0..d_{k-1}) is
    known step by step; the plant factor is 1 by construction.
    """
    entropy_bits = check_number("entropy_bits", entropy_bits)
    return _report(
        p,
        "T3",
        plant_factor=1.0,
        entropy_factor=_entropy_factor(entropy_bits),
        entropy_rate_bits=entropy_bits,
    )


def _spectral_route(p, chars, dist, grid) -> BoundReport:
    return error_bound_spectral(p, chars, dist.power_spectrum(grid), dist.negentropy_rate())


# Route tag -> (fixed norm order, or None for any p >= 1; whether the route
# needs a plant; builder (p, chars, dist, grid) -> BoundReport). The builder
# gets chars None on the plant-free route, and grid sizes the spectrum of the
# spectral routes. KS is the p = 2 spectral floor, whose square is the
# Kolmogorov-Szego one-step prediction floor for a stable plant and Gaussian
# disturbance.
ROUTES = {
    "T1": (None, True, lambda p, c, d, g: error_bound_lti(p, c, entropy_summary(d))),
    "T2": (None, True, lambda p, c, d, g: output_bound(p, c, entropy_summary(d))),
    "T3": (None, False, lambda p, c, d, g: error_bound_generic(p, entropy_summary(d))),
    "C2": (2.0, True, lambda p, c, d, g: error_bound_p2(c, entropy_summary(d))),
    "C3": (math.inf, True, lambda p, c, d, g: error_bound_pinf(c, entropy_summary(d))),
    "C4": (None, True, _spectral_route),
    "KS": (2.0, True, _spectral_route),
}
