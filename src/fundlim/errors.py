"""Exception types shared across the toolkit."""

import json
import math

__all__ = [
    "CertificationRefusedError",
    "DegenerateRealizationError",
    "FundlimError",
    "InvalidModelError",
    "InvalidNormOrderError",
    "NonIntegrableSpectrumError",
    "UnstableLoopError",
    "ZeroTransferFunctionError",
]


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


def finite_power(base: float, exponent: float, what: str) -> float:
    """Return base**exponent, or raise InvalidModelError when it leaves float range.

    The power is taken in Python floats, which raise OverflowError where a
    numpy scalar would warn and return inf.
    """
    try:
        return float(base) ** exponent
    except OverflowError:
        raise InvalidModelError(f"{what} overflows the float range") from None


def read_utf8(path) -> str:
    """Return the text of a UTF-8 file, or raise InvalidModelError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidModelError(f"{path} is not UTF-8 text: {exc}") from None


def read_json(path, what: str):
    """Return the JSON value of a UTF-8 file, or raise InvalidModelError naming ``what``."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"{what} is not valid JSON: {exc}") from exc


class ZeroTransferFunctionError(FundlimError, ValueError):
    """Every Markov parameter of the plant vanishes; input-output quantities are undefined."""


class DegenerateRealizationError(FundlimError, ValueError):
    """Finite zeros are ill-posed: a zero lies at infinity to working precision,
    or the transfer function is identically zero."""


class NonIntegrableSpectrumError(FundlimError, ValueError):
    """A power spectrum has a nonpositive sample, so its log integral diverges."""


class UnstableLoopError(FundlimError, RuntimeError):
    """Every simulated trajectory left the representable range."""


class CertificationRefusedError(FundlimError, RuntimeError):
    """Certification was requested on a simulation flagged unstable."""
