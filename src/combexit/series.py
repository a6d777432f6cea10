"""Series kernels for planar exit-time laws.

Three families of deterministic evaluations live here:

* harmonic measure of the horizontal sides of a centered rectangle, and the
  per-passage survival factor ``theta0`` built from it;
* the exit-time law of one-dimensional Brownian motion from ``(-1, 1)``
  started at 0 (survival function and moments, integer moments exactly);
* the exit-time law of planar Brownian motion from the unit disk, tabulated
  once for inverse-transform sampling in the walk-on-spheres engine.

All series are alternating or exponentially decaying, so truncations carry
certified remainder bounds. Everything is pure: same inputs, same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

# scipy is imported inside the functions that use it: importing it here
# would cost every CLI command that never builds the disk law or integrates
# a moment about half a second of start-up.
if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

__all__ = [
    "SeriesParams",
    "Theta0Result",
    "DEFAULT_SERIES_PARAMS",
    "rect_exit_tb_prob",
    "theta0",
    "strip_survival",
    "strip_moment",
    "scaled_strip_moment",
    "DiskLawTable",
    "build_disk_law",
    "default_disk_law",
]


@dataclass(frozen=True)
class SeriesParams:
    """Truncation budget shared by the series evaluators.

    ``truncation_terms`` is a hard cap; evaluators pick the smallest count
    that certifies ``abs_tolerance`` and raise if the cap is too small for
    the requested accuracy.
    """

    truncation_terms: int = 2048
    abs_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.truncation_terms < 1:
            raise ValueError("truncation_terms must be a positive integer")
        if not (self.abs_tolerance > 0) or not math.isfinite(self.abs_tolerance):
            raise ValueError("abs_tolerance must be a positive real")


DEFAULT_SERIES_PARAMS = SeriesParams()


@dataclass(frozen=True)
class Theta0Result:
    """Per-passage survival factor for a gap/height aspect ratio ``ell``.

    ``p_top_bottom`` is the probability that Brownian motion from the center
    of the rectangle (-1,1) x (-ell,ell) leaves through a horizontal side;
    ``theta0 = 1 - p_top_bottom/2`` is the bound on the probability that a
    single slit passage fails to end the excursion.
    """

    ell: float
    p_top_bottom: float
    theta0: float
    remainder_bound: float


def _sech(x: np.ndarray) -> np.ndarray:
    # 2e^{-x} / (1 + e^{-2x}): no overflow for large x, exact for small x
    e = np.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def _rect_series(a: float, b: float, params: SeriesParams) -> tuple[float, float]:
    """Direct series for the top/bottom exit probability, orientation a >= b.

    Terms alternate with strictly decreasing magnitude, so the remainder
    after K terms is at most (4/pi) * |term_K|, itself below
    (8/pi) * exp(-x_K) / (2K+1).
    """
    step = math.pi * a / (2.0 * b)
    # smallest K with (8/pi) e^{-(2K+1) step} <= abs_tolerance, conservatively
    need = math.log(8.0 / (math.pi * params.abs_tolerance)) / (2.0 * step)
    terms = max(2, math.ceil(need + 0.5))
    terms = min(terms, params.truncation_terms)
    k = np.arange(terms)
    x = (2 * k + 1) * step
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    total = float(np.sum(signs * _sech(x) / (2 * k + 1)))
    x_next = (2 * terms + 1) * step
    bound = (8.0 / math.pi) * math.exp(-x_next) / (2 * terms + 1)
    if bound > params.abs_tolerance:
        raise ValueError(
            f"truncation_terms={params.truncation_terms} cannot reach "
            f"abs_tolerance={params.abs_tolerance:g} at aspect ratio "
            f"{b / a:g}; certified remainder is {bound:.3g}"
        )
    return 1.0 - (4.0 / math.pi) * total, bound


def _rect_tb_with_bound(a: float, b: float, params: SeriesParams) -> tuple[float, float]:
    # The defining series converges like exp(-pi*a/b); for the tall
    # orientation evaluate the rotated rectangle and use that the two side
    # pairs exhaust the boundary.
    if b <= a:
        value, bound = _rect_series(a, b, params)
    else:
        other, bound = _rect_series(b, a, params)
        value = 1.0 - other
    return min(max(value, 0.0), 1.0), bound


def rect_exit_tb_prob(a: float, b: float, params: SeriesParams | None = None) -> float:
    """Probability that Brownian motion from the center of (-a,a) x (-b,b)
    exits through the top or bottom side."""
    params = params or DEFAULT_SERIES_PARAMS
    if not (a > 0 and b > 0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("rectangle half-dimensions must be positive and finite")
    value, _ = _rect_tb_with_bound(a, b, params)
    return value


def theta0(ell: float, params: SeriesParams | None = None) -> Theta0Result:
    """Survival factor of a single passage across a gap of aspect ratio ell.

    For ell beyond roughly 23 the top/bottom exit probability drops under one
    ulp of 1 and the factor rounds to exactly 1.0; downstream certification
    treats that as "no geometric decay", the conservative reading.
    """
    params = params or DEFAULT_SERIES_PARAMS
    if not (ell > 0) or not math.isfinite(ell):
        raise ValueError("aspect ratio ell must be positive and finite")
    p_tb, bound = _rect_tb_with_bound(1.0, ell, params)
    return Theta0Result(
        ell=float(ell),
        p_top_bottom=p_tb,
        theta0=1.0 - 0.5 * p_tb,
        remainder_bound=0.5 * bound,
    )


_IMAGES_CROSSOVER = 0.1


def _strip_survival_spectral(t: np.ndarray, params: SeriesParams) -> np.ndarray:
    tmin = float(np.min(t))
    target = math.log(4.0 / (math.pi * params.abs_tolerance))
    need = math.sqrt(target * 8.0 / (math.pi**2 * tmin))
    terms = min(params.truncation_terms, max(2, math.ceil((need - 1.0) / 2.0) + 1))
    k = np.arange(terms)
    rates = (2 * k + 1) ** 2 * math.pi**2 / 8.0
    weights = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / (2 * k + 1)
    return np.exp(-np.outer(t, rates)) @ weights


def _strip_survival_images(t: np.ndarray) -> np.ndarray:
    # reflection representation; for t < 0.1 four image pairs reach 1e-170
    from scipy.special import ndtr

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


def strip_survival(t, params: SeriesParams | None = None):
    """P(exit time of BM from (-1,1) started at 0 exceeds t). Vectorized."""
    params = params or DEFAULT_SERIES_PARAMS
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("time must be finite and nonnegative")
    out = np.empty_like(arr)
    late = arr >= _IMAGES_CROSSOVER
    if np.any(late):
        out[late] = _strip_survival_spectral(arr[late], params)
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


def _strip_moment_quadrature(p: float, params: SeriesParams) -> float:
    # E[tau^p] = int_0^inf p t^{p-1} S(t) dt; substituting t = s^{1/p} on the
    # head removes the endpoint singularity for p < 1
    from scipy.integrate import quad

    tol = max(params.abs_tolerance, 1e-13)

    def surv(t: float) -> float:
        return strip_survival(t, params)

    head, _ = quad(lambda s: surv(s ** (1.0 / p)), 0.0, 1.0,
                   epsabs=tol, epsrel=tol, limit=200)
    tail, _ = quad(lambda t: p * t ** (p - 1.0) * surv(t), 1.0, np.inf,
                   epsabs=tol, epsrel=tol, limit=200)
    return head + tail


# E[tau^p] of the unit strip exceeds the largest float from integer order 178
# on; refusing those orders up front also spares the O(p**2) rational
# recursion for huge integral values such as 1e308.
_LARGEST_INTEGER_ORDER = 177


def strip_moment(p: float, params: SeriesParams | None = None) -> float:
    """E[tau^p] for the exit time of BM from (-1,1) started at 0.

    Integer orders use the exact polynomial recursion; fractional orders
    integrate the survival function.  Orders whose moment or integrand
    overflows a float (integers from 178, fractions from about 70) raise
    ValueError.
    """
    params = params or DEFAULT_SERIES_PARAMS
    if not (p > 0) or not math.isfinite(p):
        raise ValueError("moment order must satisfy 0 < p < infinity")
    if float(p).is_integer():
        if p > _LARGEST_INTEGER_ORDER:
            raise ValueError(
                f"moment order {p:g} is out of range: E[tau^p] overflows a "
                f"float for integer orders above {_LARGEST_INTEGER_ORDER}"
            )
        return float(_interval_moment_exact(int(p)))
    try:
        value = _strip_moment_quadrature(float(p), params)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"moment order {p:g} is out of range: the integrand "
            "p * t**(p-1) * P(tau > t) overflows a float"
        )
    return value


def scaled_strip_moment(a_left: float, a_right: float, p: float,
                        params: SeriesParams | None = None) -> float:
    """Upper bound max(a_left, a_right)^{2p} E[tau^p] for the exit time of a
    strip (-a_left, a_right) started at 0.

    This is the domain-monotonicity bound, not the exact asymmetric moment.
    Orders whose bound overflows a float raise ValueError, as in
    :func:`strip_moment`.
    """
    if not (a_left > 0 and a_right > 0):
        raise ValueError("strip half-widths must be positive")
    moment = strip_moment(p, params)
    try:
        value = max(a_left, a_right) ** (2.0 * p) * moment
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"moment order {p:g} is out of range: the bound "
            f"max({a_left:g}, {a_right:g})**(2p) * E[tau^p] overflows a float"
        )
    return value


# ---------------------------------------------------------------------------
# unit-disk exit-time law


def _disk_modes(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import j1, jn_zeros

    zeros = jn_zeros(0, n_modes)
    coeffs = 2.0 / (zeros * j1(zeros))
    rates = 0.5 * zeros * zeros
    return rates, coeffs


def disk_survival(t, n_modes: int = 96):
    """Survival function of the unit-disk exit time from the center.

    The eigenfunction series needs ~30 modes at t = 0.01 and fewer later;
    the default mode count keeps full accuracy on t >= 0.01, which is all
    the table builder evaluates (below that the CDF is under 1e-16).
    """
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    rates, coeffs = _disk_modes(n_modes)
    out = np.clip(np.exp(-np.outer(arr, rates)) @ coeffs, 0.0, 1.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class DiskLawTable:
    """Inverse-CDF table for the unit-disk exit time.

    The body of the law is a monotone cubic interpolant of quantiles; beyond
    ``u_cut`` the law is single-mode exponential to machine precision and is
    inverted analytically. ``mean_error`` and ``second_moment_error`` record
    the residuals of the build-time validation against the exact moments
    1/2 and 3/8.
    """

    u_knots: np.ndarray
    t_knots: np.ndarray
    u_cut: float
    t_cut: float
    lam1: float
    log_c1: float
    mean_error: float
    second_moment_error: float
    interp: PchipInterpolator

    def times_from_uniform(self, u):
        """Map uniform(0,1) draws to exit-time draws (unit radius)."""
        arr = np.asarray(u, dtype=float)
        body = self.interp(np.clip(arr, self.u_knots[0], self.u_cut))
        tail = (self.log_c1 - np.log1p(-np.minimum(arr, 1.0 - 1e-17))) / self.lam1
        return np.where(arr <= self.u_cut, body, tail)


def build_disk_law(n_knots: int = 4096, u_cut: float = 0.999,
                   n_modes: int = 96, t_lo: float = 0.01) -> DiskLawTable:
    """Tabulate the inverse CDF of the unit-disk exit time and validate it.

    Raises if the implied mean and second moment disagree with the exact
    values beyond the resolution the knot count should deliver.
    """
    from scipy.interpolate import PchipInterpolator

    if n_knots < 16:
        raise ValueError("table needs at least 16 knots")
    if not (0.9 < u_cut < 1.0):
        raise ValueError("u_cut must sit in the exponential tail, in (0.9, 1)")
    rates, coeffs = _disk_modes(n_modes)
    lam1, c1 = float(rates[0]), float(coeffs[0])
    log_c1 = math.log(c1)
    t_cut = (log_c1 - math.log1p(-u_cut)) / lam1
    # CDF values below float resolution collapse into flats (and can even
    # wobble backwards by one ulp) near t_lo; knots there are dropped so the
    # interpolant is well posed. Events that tiny never occur at
    # double-precision uniform granularity. Oversample until the kept count
    # still meets the request.
    n_raw = n_knots + max(64, n_knots // 8)
    for _ in range(4):
        t = np.geomspace(t_lo, t_cut, n_raw)
        t[-1] = t_cut
        u = np.maximum(1.0 - np.exp(-np.outer(t, rates)) @ coeffs, 0.0)
        running = np.maximum.accumulate(u)
        keep = np.concatenate(([True], u[1:] > running[:-1]))
        if int(keep.sum()) >= n_knots:
            break
        n_raw *= 2
    u, t = u[keep], t[keep]
    if len(u) < n_knots:
        raise RuntimeError("could not place the requested number of table knots")
    interp = PchipInterpolator(u, t, extrapolate=False)

    eps = 1.0 - u_cut
    big_l = log_c1 - math.log(eps)
    tail_mean = eps * (big_l + 1.0) / lam1
    tail_second = eps * (big_l * big_l + 2.0 * big_l + 2.0) / (lam1 * lam1)
    body_mean = float(interp.integrate(u[0], u[-1]))
    grid = np.linspace(u[0], u[-1], 200_001)
    body_second = float(np.trapezoid(interp(grid) ** 2, grid))
    mean_error = abs(body_mean + tail_mean - 0.5)
    second_error = abs(body_second + tail_second - 0.375)
    if mean_error > 5e-6 or second_error > 5e-5:
        raise RuntimeError(
            f"disk law table failed moment validation: mean off by "
            f"{mean_error:.2e}, second moment off by {second_error:.2e}"
        )
    return DiskLawTable(
        u_knots=u,
        t_knots=t,
        u_cut=float(u[-1]),
        t_cut=float(t[-1]),
        lam1=lam1,
        log_c1=log_c1,
        mean_error=mean_error,
        second_moment_error=second_error,
        interp=interp,
    )


_SHARED_TABLE: DiskLawTable | None = None


def default_disk_law() -> DiskLawTable:
    """Shared read-only table, built on first use."""
    global _SHARED_TABLE
    if _SHARED_TABLE is None:
        _SHARED_TABLE = build_disk_law()
    return _SHARED_TABLE
