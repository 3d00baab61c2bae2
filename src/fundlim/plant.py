"""State-space plant analysis.

Extracts the plant-side quantities entering the performance floors of a SISO
discrete-time loop: eigenvalues and the unstable-pole product, finite zeros
and the nonminimum-phase zero product, relative degree, and the leading
Markov gain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateRealizationError,
    InvalidModelError,
    ZeroTransferFunctionError,
    from_fields,
    read_json,
)

__all__ = [
    "AnalysisWarning",
    "PlantCharacteristics",
    "StateSpaceModel",
    "analyze_plant",
    "analyze_poles",
    "compute_finite_zeros",
    "load_plant",
    "nmp_zero_product",
    "relative_degree_and_gain",
]

# A Markov parameter C A^i B counts as zero below this tolerance, relative
# to the scale ||C|| ||A||^i ||B|| (spectral norms).
TOL_MARKOV = 1e-9
# A zero with |z| > 1 / TOL_INF is indistinguishable from a zero at infinity.
TOL_INF = 1e-8
# Pole-zero pairs closer than this (relative to magnitude) trigger a warning.
TOL_CANCEL = 1e-6


class AnalysisWarning(UserWarning):
    """Non-fatal findings from plant analysis."""


@dataclass(frozen=True)
class StateSpaceModel:
    """SISO discrete-time plant ``x_{k+1} = A x_k + B e_k``, ``y_k = C x_k``.

    Parameters
    ----------
    A : array_like
        State matrix, shape (n, n) with n >= 1.
    B : array_like
        Input vector; accepted flat of length n or as a column (n, 1).
    C : array_like
        Output vector; accepted flat of length n or as a row (1, n).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise InvalidModelError("A must be a square matrix of order >= 1")
        n = A.shape[0]
        B = self._as_column(self.B, n, "B")
        C = self._as_column(self.C, n, "C").T
        for name, mat in (("A", A), ("B", B), ("C", C)):
            if not np.all(np.isfinite(mat)):
                raise InvalidModelError(f"{name} contains NaN or Inf entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @staticmethod
    def _as_column(value, n: int, name: str) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        elif arr.ndim == 2 and 1 in arr.shape:
            arr = arr.reshape(-1, 1)
        else:
            raise InvalidModelError(f"{name} must be a vector (plant is SISO)")
        if arr.shape[0] != n:
            raise InvalidModelError(f"{name} must have length {n} to match A")
        return arr

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @classmethod
    def from_dict(cls, payload: dict) -> "StateSpaceModel":
        """Build a plant from a JSON object whose keys are exactly its fields."""
        if not isinstance(payload, dict):
            raise InvalidModelError("plant file must hold a JSON object")
        return from_fields(cls, payload, "plant file", "plant matrices")

    def to_dict(self) -> dict:
        """JSON-ready description: A as a list of rows, B and C flat."""
        def entry(value: np.ndarray) -> list:
            return value.tolist() if value is self.A else value.ravel().tolist()

        return {f.name: entry(getattr(self, f.name)) for f in fields(self)}


def load_plant(path) -> StateSpaceModel:
    """Read a plant from a JSON file with fields A, B, C."""
    return StateSpaceModel.from_dict(read_json(path, "plant file"))


@dataclass(frozen=True)
class PlantCharacteristics:
    """Plant-side factors of the performance floors.

    Attributes
    ----------
    poles : ndarray
        Eigenvalues of A (complex).
    unstable_pole_product : float
        prod_i max(1, |pole_i|) over all n eigenvalues.
    finite_zeros : ndarray
        Finite invariant zeros of (A, B, C), sorted by (real, imag).
    nmp_zero_product : float
        prod over zeros of max(1, |zero|); 1.0 when there are none.
    relative_degree : int
        Index of the first nonzero Markov parameter C A^i B.
    markov_gain : float
        Value of that first nonzero Markov parameter.
    """

    poles: np.ndarray
    unstable_pole_product: float
    finite_zeros: np.ndarray
    nmp_zero_product: float
    relative_degree: int
    markov_gain: float

    def to_dict(self) -> dict:
        return {
            "poles": [[float(z.real), float(z.imag)] for z in self.poles],
            "unstable_pole_product": float(self.unstable_pole_product),
            "finite_zeros": [[float(z.real), float(z.imag)] for z in self.finite_zeros],
            "nmp_zero_product": float(self.nmp_zero_product),
            "relative_degree": int(self.relative_degree),
            "markov_gain": float(self.markov_gain),
        }


def analyze_poles(model: StateSpaceModel) -> tuple[np.ndarray, float]:
    """Eigenvalues of A and the product of their magnitudes clipped below at 1."""
    poles = np.linalg.eigvals(model.A)
    product = float(np.prod(np.maximum(1.0, np.abs(poles))))
    return poles, product


def relative_degree_and_gain(model: StateSpaceModel) -> tuple[int, float]:
    """First index i with C A^i B nonzero, and that Markov parameter.

    The zero test is relative: |C A^i B| must exceed
    ``TOL_MARKOV * ||C|| * ||A||^i * ||B||`` in spectral norms. If every
    Markov parameter through i = n vanishes the transfer function is
    identically zero and ZeroTransferFunctionError is raised.
    """
    norm_a = np.linalg.norm(model.A, 2)
    scale0 = np.linalg.norm(model.C, 2) * np.linalg.norm(model.B, 2)
    v = model.B
    for i in range(model.n + 1):
        markov = (model.C @ v).item()
        if abs(markov) > TOL_MARKOV * scale0 * norm_a**i:
            return i, markov
        v = model.A @ v
    raise ZeroTransferFunctionError(
        "every Markov parameter C A^i B vanishes for i <= n; "
        "the plant has no input-output path"
    )


def compute_finite_zeros(model: StateSpaceModel) -> np.ndarray:
    """Finite invariant zeros of the SISO triple (A, B, C).

    Zeros are the eigenvalues of the zero dynamics: the closed loop
    ``A - B C A^{d+1} / g`` that holds the output at zero, restricted to the
    subspace ``ker [C; CA; ...; CA^d]`` it leaves invariant, where d is the
    relative degree and ``g = C A^d B`` the leading Markov parameter. That
    subspace has dimension ``n - 1 - d``, the degree of the numerator
    ``C adj(zI - A) B``, so the count is exact by construction. A zero with
    ``|z| > 1 / TOL_INF`` is indistinguishable from infinity at working
    precision and raises DegenerateRealizationError, as does an identically
    zero transfer function.

    Returns
    -------
    ndarray
        Complex zeros sorted by (real, imag); possibly empty.
    """
    try:
        degree, gain = relative_degree_and_gain(model)
    except ZeroTransferFunctionError:
        raise DegenerateRealizationError(
            "the transfer function is identically zero, so it has no zeros"
        ) from None
    return _zeros_for_degree(model, degree, gain)


def _zeros_for_degree(model: StateSpaceModel, degree: int, gain: float) -> np.ndarray:
    # Body of compute_finite_zeros once the relative degree and gain are known.
    if degree >= model.n - 1:
        return np.zeros(0, dtype=complex)
    rows = [model.C]
    for _ in range(degree):
        rows.append(rows[-1] @ model.A)
    observability = np.vstack(rows)
    basis = np.linalg.svd(observability)[2][degree + 1 :].T
    closed = model.A - model.B @ (rows[-1] @ model.A) / gain
    zeros = np.linalg.eigvals(basis.T @ closed @ basis).astype(complex)
    if np.any(np.abs(zeros) > 1.0 / TOL_INF):
        raise DegenerateRealizationError(
            "the zero dynamics put a zero at infinity to working precision"
        )
    order = np.lexsort((zeros.imag, zeros.real))
    return zeros[order]


def nmp_zero_product(zeros) -> float:
    """Product of max(1, |zero|) over the given zeros; 1.0 for an empty set."""
    zeros = np.asarray(zeros, dtype=complex)
    return float(np.prod(np.maximum(1.0, np.abs(zeros)))) if zeros.size else 1.0


def analyze_plant(model: StateSpaceModel) -> PlantCharacteristics:
    """Run the full plant analysis.

    Emits AnalysisWarning for a relative degree of zero (the loop then has a
    direct feedthrough path from disturbance to measurement within one step)
    and for near pole-zero cancellations, which make the zero set numerically
    fragile.
    """
    poles, pole_product = analyze_poles(model)
    degree, gain = relative_degree_and_gain(model)
    zeros = _zeros_for_degree(model, degree, gain)
    if degree == 0:
        warnings.warn(
            "relative degree is 0: C B is nonzero, so the current disturbance "
            "sample reaches the measurement instantly",
            AnalysisWarning,
            stacklevel=2,
        )
    if zeros.size:
        gaps = np.abs(poles[:, None] - zeros[None, :])
        scales = np.maximum(1.0, np.abs(poles))[:, None]
        if np.any(gaps < TOL_CANCEL * scales):
            warnings.warn(
                "near pole-zero cancellation detected; zero locations may be "
                "numerically fragile",
                AnalysisWarning,
                stacklevel=2,
            )
    return PlantCharacteristics(
        poles=poles,
        unstable_pole_product=pole_product,
        finite_zeros=zeros,
        nmp_zero_product=nmp_zero_product(zeros),
        relative_degree=degree,
        markov_gain=gain,
    )
