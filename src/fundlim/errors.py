"""Exception types shared across the toolkit."""

import math


class FundlimError(Exception):
    """Base class for every error raised by this package."""


class InvalidModelError(FundlimError, ValueError):
    """A plant, disturbance, or spectrum fails structural validation."""


class InvalidNormOrderError(FundlimError, ValueError):
    """Norm order must satisfy p >= 1 (math.inf is allowed)."""


def check_order(p: float) -> float:
    """Return p as a float, or raise InvalidNormOrderError unless p >= 1."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InvalidNormOrderError(f"norm order must satisfy p >= 1, got {p}")
    return p


class ZeroTransferFunctionError(FundlimError, ValueError):
    """Every Markov parameter of the plant vanishes; input-output quantities are undefined."""


class DegenerateRealizationError(FundlimError, ValueError):
    """The zero pencil is singular beyond tolerance, so finite zeros are ill-posed."""


class NonIntegrableSpectrumError(FundlimError, ValueError):
    """A power spectrum has a nonpositive sample, so its log integral diverges."""


class UnstableLoopError(FundlimError, RuntimeError):
    """Every simulated trajectory left the representable range."""


class CertificationRefusedError(FundlimError, RuntimeError):
    """Certification was requested on a simulation flagged unstable."""
