"""Reference evaluations of the unit strip's exit-time law, for tests only.

``combexit.series.strip_moment`` and ``strip_half_moment`` evaluate closed
forms.  These oracles do not share their algorithms: the survival function
by its spectral and image series, integer moments by an exact rational
recursion, fractional moments by scipy's quadrature of the survival
function, and the half-moment from any start by its odd-sine series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

_IMAGES_CROSSOVER = 0.1

# Absolute accuracy the spectral series and the quadrature aim for, and the
# spectral series' term cap.
_ABS_TOLERANCE = 1e-12
_MAX_TERMS = 2048


def _strip_survival_spectral(t: np.ndarray) -> np.ndarray:
    tmin = float(np.min(t))
    target = math.log(4.0 / (math.pi * _ABS_TOLERANCE))
    need = math.sqrt(target * 8.0 / (math.pi**2 * tmin))
    terms = min(_MAX_TERMS, max(2, math.ceil((need - 1.0) / 2.0) + 1))
    k = np.arange(terms)
    rates = (2 * k + 1) ** 2 * math.pi**2 / 8.0
    weights = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / (2 * k + 1)
    return np.exp(-np.outer(t, rates)) @ weights


def _strip_survival_images(t: np.ndarray) -> np.ndarray:
    # reflection representation; for t < 0.1 four image pairs reach 1e-170
    out = np.ones_like(t)
    pos = t > 0
    if np.any(pos):
        root = 1.0 / np.sqrt(t[pos])
        acc = np.zeros_like(root)
        for k in range(-4, 5):
            sign = 1.0 if k % 2 == 0 else -1.0
            acc += sign * (ndtr((2 * k + 1) * root) - ndtr((2 * k - 1) * root))
        out[pos] = acc
    return out


def strip_survival(t):
    """P(exit time of BM from (-1,1) started at 0 exceeds t). Vectorized."""
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("time must be finite and nonnegative")
    out = np.empty_like(arr)
    late = arr >= _IMAGES_CROSSOVER
    if np.any(late):
        out[late] = _strip_survival_spectral(arr[late])
    if not np.all(late):
        out[~late] = _strip_survival_images(arr[~late])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _interval_moment_exact(k: int) -> Fraction:
    """m_k(0) for the recursion (1/2) m_k'' = -k m_{k-1}, m_k(+-1) = 0.

    Polynomials are kept as exact rationals; coefficients index powers of
    the space variable.
    """
    poly = [Fraction(1)]
    for j in range(1, k + 1):
        rhs = [(-2 * j) * c for c in poly]
        integ = [Fraction(0), Fraction(0)]
        integ += [c / ((i + 1) * (i + 2)) for i, c in enumerate(rhs)]
        at_plus = sum(integ)
        at_minus = sum(c if i % 2 == 0 else -c for i, c in enumerate(integ))
        integ[0] -= (at_plus + at_minus) / 2
        integ[1] -= (at_plus - at_minus) / 2
        poly = integ
    return poly[0]


def _strip_moment_quadrature(p: float) -> float:
    # E[tau^p] = int_0^inf p t^{p-1} S(t) dt; substituting t = s^{1/p} on the
    # head removes the endpoint singularity for p < 1
    tol = max(_ABS_TOLERANCE, 1e-13)

    def surv(t: float) -> float:
        return strip_survival(t)

    head, _ = quad(lambda s: surv(s ** (1.0 / p)), 0.0, 1.0,
                   epsabs=tol, epsrel=tol, limit=200)
    tail, _ = quad(lambda t: p * t ** (p - 1.0) * surv(t), 1.0, np.inf,
                   epsabs=tol, epsrel=tol, limit=200)
    return head + tail


def odd_sine_half_moment(a: float, width: float, terms: int = 10**6):
    """E_a[tau^(1/2)] on (0, width) by its first ``terms`` odd-sine terms,
    and the Abel bound on the rest.

    E_a[tau^p] = sum over odd n of (4/(n pi)) sin(n theta) Gamma(p+1)
    (2 width^2 / (n^2 pi^2))^p with theta = pi a / width; at p = 1/2 the
    coefficients c_n = (2 sqrt 2 width / pi^(3/2)) / n^2 decrease, and the
    partial sums of sin(n theta) over odd n, sin(m theta)^2 / sin(theta),
    lie in [0, 1 / sin(theta)], so the tail is at most the first omitted
    coefficient over sin(theta).
    """
    theta = math.pi * a / width
    n = np.arange(1, 2 * terms, 2, dtype=float)
    scale = 2.0 * math.sqrt(2.0) * width / math.pi**1.5
    value = scale * float(np.sum(np.sin(n * theta) / (n * n)))
    return value, scale / (2 * terms + 1) ** 2 / math.sin(theta)
