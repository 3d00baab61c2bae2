"""Exception types shared across the toolkit, and the input checks and readers that raise them."""

import dataclasses
import json
import math
import numbers
import operator

import numpy as np

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


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string or any other non-number raises TypeError.

    An integer past the float range reads as an infinity of its sign.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_number(name: str, value, least: float | None = None, *, strict: bool = False) -> float:
    """``value`` as a finite float, not below ``least`` (above it when ``strict``).

    A bool, a string or any other non-number raises TypeError; a NaN, an
    infinity or a number out of bounds raises InvalidModelError. Both name
    ``name``.
    """
    number = _real(name, value)
    low = -math.inf if least is None else least
    if not (math.isfinite(number) and (number > low if strict else number >= low)):
        bound = "" if least is None else f" and {'>' if strict else '>='} {least:g}"
        raise InvalidModelError(f"{name} must be finite{bound}, got {number}")
    return number


def check_numbers(name: str, entry: str, values, flat: bool = False) -> np.ndarray:
    """``values``, a number or a list of numbers nested to any depth, as a float array.

    Each entry is checked as ``check_number`` checks a number: one that is
    not a number raises TypeError naming ``entry`` ("a lag coefficient"),
    and a NaN or an infinity raises InvalidModelError naming ``name``
    ("coeffs"). With ``flat`` the array is 1-D, a number being a list of
    one, and deeper nesting raises InvalidModelError. An ndarray of a real
    dtype is taken whole, without a pass over its entries.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        array = np.array(values, dtype=float)
    else:
        objects = np.asarray(values, dtype=object)
        array = np.fromiter((_real(entry, v) for v in objects.flat), float, objects.size)
        array = array.reshape(objects.shape)
    if flat:
        array = np.atleast_1d(array)
        if array.ndim != 1:
            raise InvalidModelError(f"{name} must be a flat list, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidModelError(f"{name} contain NaN or Inf")
    return array


def parse_numbers(tokens, what: str) -> list:
    """The floats of the items of ``tokens`` that are not blank, each read by ``float``.

    ``tokens`` is the text of a flag split at its commas. An item that does
    not read raises InvalidModelError naming ``what``.
    """
    try:
        return [float(text) for text in tokens if text.strip()]
    except ValueError as exc:
        raise InvalidModelError(f"bad {what}: {exc}") from None


def check_order(p: float, name: str = "norm order") -> float:
    """Return p as a float, or raise InvalidNormOrderError naming ``name`` unless p >= 1.

    An order is a number, not a bool, or the string ``"inf"`` that
    ``json_order`` writes.
    """
    try:
        p = math.inf if isinstance(p, str) and p == "inf" else _real(name, p)
    except TypeError as exc:
        raise InvalidNormOrderError(str(exc)) from None
    if math.isnan(p) or p < 1.0:
        raise InvalidNormOrderError(f"{name} must satisfy p >= 1, got {p}")
    return p


def check_whole(name: str, value, least: int | None = None) -> int:
    """``value`` as an int: an integer (numpy's or any ``__index__`` type) or a whole float.

    A bool, a fraction, a string or any other value raises InvalidModelError,
    and so does a whole number below ``least``.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or isinstance(value, bool):
        raise InvalidModelError(f"{name} must be a whole number, got {value!r}")
    if least is not None and whole < least:
        raise InvalidModelError(f"{name} must be >= {least}, got {whole}")
    return whole


def json_order(p: float):
    """A norm order as JSON: ``"inf"`` for math.inf, else a float."""
    return "inf" if math.isinf(p) else float(p)


def from_fields(cls, payload: dict, owner: str, values: str):
    """Build the dataclass ``cls`` from the entries of ``payload`` named by its fields.

    Raises InvalidModelError naming ``owner`` ("plant file") for a payload
    that is not a JSON object, a key that is not a field or a field without
    a default that is absent, and naming ``values`` ("plant matrices") for a
    TypeError or ValueError of ``cls``; ``cls``'s own FundlimErrors pass
    through.
    """
    if not isinstance(payload, dict):
        raise InvalidModelError(f"{owner} must hold a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(payload) - {f.name for f in fields})
    if unknown:
        raise InvalidModelError(f"{owner} has unknown keys: {', '.join(unknown)}")
    for f in fields:
        if f.name not in payload and f.default is f.default_factory is dataclasses.MISSING:
            raise InvalidModelError(f"{owner} is missing field {f.name!r}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, FundlimError):
            raise
        raise InvalidModelError(f"{values} are malformed: {exc}") from exc


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
    text = read_utf8(path)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
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
