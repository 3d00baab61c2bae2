"""Shared oracle helpers for the test suite."""

import numpy as np
from hypothesis import settings
from scipy import signal

from fundlim import StateSpaceModel

# Selected with --hypothesis-profile=ci: the same examples on every run, so
# a failure in CI reproduces locally.
settings.register_profile("ci", derandomize=True)


def companion_realization(num_coeffs, den_coeffs):
    """Controllable canonical state-space form of num(z)/den(z).

    Coefficients are numpy-ordered (highest power first); den must be monic
    of degree n >= 1 and num of degree < n. Built independently of the
    package internals so it can serve as an oracle: the transfer function of
    the returned triple is num/den by construction, hence its zeros are
    exactly roots(num).
    """
    den = np.asarray(den_coeffs, dtype=float)
    num = np.asarray(num_coeffs, dtype=float)
    assert den[0] == 1.0 and den.ndim == 1 and den.size >= 2
    n = den.size - 1
    assert num.size <= n
    a_matrix = np.zeros((n, n))
    if n > 1:
        a_matrix[:-1, 1:] = np.eye(n - 1)
    a_matrix[-1, :] = -den[1:][::-1]
    b_vector = np.zeros(n)
    b_vector[-1] = 1.0
    c_vector = np.zeros(n)
    c_vector[: num.size] = num[::-1]
    return StateSpaceModel(a_matrix, b_vector, c_vector)


def lfilter_ar_sample(model, rng, length):
    """One GaussianAR trajectory built with scipy's filter from rng's next draws.

    The draws are the innovations, then the standard normals of the initial
    lags, whose covariance is the model's own; lfiltic turns the lags into
    the filter's initial state, and lfilter runs the innovations through it.
    """
    innovations = model.innovation_std * rng.standard_normal(length)
    chol = np.linalg.cholesky(model._unit_lag_covariance)
    lags = model.innovation_std * (chol @ rng.standard_normal(model.order))
    denominator = np.concatenate(([1.0], -np.asarray(model.coeffs)))
    state = signal.lfiltic([1.0], denominator, y=lags)
    return signal.lfilter([1.0], denominator, innovations, zi=state)[0]


def sorted_complex(values):
    """Complex values ordered by (real, imag) for set comparisons."""
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return values[order]


def assert_complex_sets_close(actual, expected, atol=1e-6):
    # Greedy nearest-neighbor matching. Sort order alone is unreliable when
    # conjugate pairs have real parts differing only by rounding noise.
    actual = np.asarray(actual, dtype=complex).ravel()
    expected = np.asarray(expected, dtype=complex).ravel()
    assert actual.shape == expected.shape, (actual, expected)
    remaining = list(actual)
    for want in expected:
        gaps = [abs(have - want) for have in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, (want, remaining, gaps[best])
        remaining.pop(best)
