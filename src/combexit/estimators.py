"""Moment and tail estimation on exit-time sample sets.

Censoring discipline: samples stopped at ``time_cap`` carry ``tau = cap``,
which is a lower bound for the true exit time.  Moment estimates built from
capped values are therefore lower bounds themselves and are flagged as such.
Survival probabilities below the cap are unaffected (a censored trajectory
certainly survived past any ``t < cap``), so ``survival_curve`` is exact on
``[0, cap)`` and refuses grids that reach the cap.

Tail estimation targets the exponent ``H`` in ``P(tau > t) ~ c * t**-H``,
which coincides with the supremum of finite moment orders when the tail is
a genuine power law.  That identification is exact for wedges and the
half-plane and is the calibration regime; for general combs the survival
tail need not be regularly varying, so the estimate is a diagnostic, not a
proof.  The Hill estimator treats capped values as right-censored: they
enter the log-excess sum at the cap but not the exceedance count, the
standard censored-Pareto likelihood correction.  The log-log regression
always fits the quantile window (0.80, 0.99).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import SampleSet, SimParams

__all__ = [
    "FINITE_LIKELY",
    "INFINITE_LIKELY",
    "UNCERTAIN",
    "MomentEstimate",
    "TailDiagnostic",
    "estimate_moment",
    "survival_curve",
    "tail_index",
    "moment_verdict",
    "synthetic_sample_set",
]

FINITE_LIKELY = "FiniteLikely"
INFINITE_LIKELY = "InfiniteLikely"
UNCERTAIN = "Uncertain"

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Quantile window of the log-log regression.
_LOGLOG_WINDOW = (0.80, 0.99)


@dataclass(frozen=True)
class MomentEstimate:
    """Sample estimate of E[tau^p] with a delta-free plain-mean error bar.

    ``lower_bound_only`` is True whenever any sample was censored, because
    capped values understate tau and hence tau^p.
    """

    p: float
    point_estimate: float
    standard_error: float
    ci_95: tuple[float, float]
    censored_fraction: float
    lower_bound_only: bool


@dataclass(frozen=True)
class TailDiagnostic:
    """Estimated survival-tail exponent H with a 95% band.

    ``method`` is "hill" (top-k order statistics, ``k`` set) or "loglog"
    (least-squares slope of log-survival over the quantile window
    ``fit_range``, always (0.80, 0.99)).  ``n_effective`` counts the
    observations that actually inform the estimate: uncensored exceedances
    for Hill, samples inside the fit window for the regression.
    """

    H_hat: float
    ci_95: tuple[float, float]
    method: str
    k: int | None
    fit_range: tuple[float, float] | None
    n_effective: int


def _columns(samples: SampleSet) -> tuple[np.ndarray, np.ndarray, float]:
    if samples.total == 0:
        raise ValueError("sample set is empty")
    return samples.tau, samples.censor, samples.params.time_cap


def synthetic_sample_set(taus, time_cap: float, censored=None) -> SampleSet:
    """Wrap raw exit times in a SampleSet for estimator use.

    Meant for fixtures and externally generated data; the embedded params
    carry only the time cap, and the fingerprint marks the set synthetic.
    """
    taus = np.asarray(taus, dtype=float)
    if censored is None:
        censored = np.zeros(taus.shape, dtype=bool)
    censored = np.asarray(censored, dtype=bool)
    if censored.shape != taus.shape:
        raise ValueError("censored flags must match the exit times one to one")
    nan = np.full(taus.shape, math.nan)
    return SampleSet(taus, nan, nan, censored, None,
                     np.zeros(taus.shape, dtype=np.int64),
                     domain_fingerprint="synthetic",
                     params=SimParams(time_cap=float(time_cap)))


def estimate_moment(samples: SampleSet, p: float) -> MomentEstimate:
    """Mean of min(tau, cap)^p with its standard error.

    Capped values already sit at the cap, so the estimator is the plain
    p-th power mean; censoring turns it into a lower bound for E[tau^p].
    """
    if not p > 0.0:
        raise ValueError("moment order p must be positive")
    taus, cen, _ = _columns(samples)
    powers = taus**p
    point = float(powers.mean())
    se = float(powers.std(ddof=1) / math.sqrt(powers.size)) if powers.size > 1 else 0.0
    frac = float(cen.mean())
    return MomentEstimate(
        p=float(p),
        point_estimate=point,
        standard_error=se,
        ci_95=(point - _Z95 * se, point + _Z95 * se),
        censored_fraction=frac,
        lower_bound_only=frac > 0.0,
    )


def survival_curve(samples: SampleSet, t_grid) -> list[tuple[float, float, float]]:
    """Empirical P(tau > t) with binomial standard errors on a grid.

    The grid must be increasing and stay strictly below the time cap: at or
    past the cap, censored trajectories make the survival fraction
    undefined rather than merely noisy.
    """
    taus, _, cap = _columns(samples)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if grid[0] < 0.0:
        raise ValueError("t_grid must start at or above 0")
    if grid[-1] >= cap:
        raise ValueError(
            f"t_grid reaches {grid[-1]:g} but survival is undefined at or "
            f"beyond the censoring cap {cap:g}"
        )
    n = taus.size
    out = []
    for t in grid:
        frac = float((taus > t).mean())
        se = math.sqrt(frac * (1.0 - frac) / n)
        out.append((float(t), frac, se))
    return out


def _hill(taus: np.ndarray, cen: np.ndarray, k: int | None) -> TailDiagnostic:
    n = taus.size
    if k is None:
        k = int(n ** (2.0 / 3.0))
    if k < 10:
        raise ValueError("insufficient tail data: need k >= 10 order statistics")
    if k > n // 10:
        raise ValueError(f"k={k} exceeds n/10={n // 10}; the tail window must "
                         "stay in the tail")
    # The top k are the last k of a stable argsort, found by selection: all
    # values above the threshold order statistic (NaN sorts above), then the
    # threshold's ties with the highest indices.  Sorted, they sum in the
    # argsort's order.
    threshold = float(np.partition(taus, n - k - 1)[n - k - 1])
    if threshold <= 0.0:
        raise ValueError("insufficient tail data: threshold order statistic is 0")
    above = np.flatnonzero(~(taus <= threshold))
    ties = np.flatnonzero(taus == threshold)
    top = np.concatenate((above, ties[ties.size - (k - above.size):]))
    n_unc = int((~cen[top]).sum())
    if n_unc < 10:
        raise ValueError(
            "insufficient tail data: censoring leaves fewer than 10 "
            "uncensored exceedances; lower k or raise time_cap"
        )
    log_excess = float(np.log(np.sort(taus[top]) / threshold).sum())
    h_hat = n_unc / log_excess
    rel = _Z95 / math.sqrt(n_unc)
    lo = max(h_hat * (1.0 - rel), 0.0)
    hi = h_hat * (1.0 + rel)
    return TailDiagnostic(H_hat=float(h_hat), ci_95=(lo, hi), method="hill",
                          k=int(k), fit_range=None, n_effective=n_unc)


def _loglog(taus: np.ndarray, cap: float) -> TailDiagnostic:
    q_lo, q_hi = _LOGLOG_WINDOW
    levels = np.linspace(q_lo, q_hi, 25)
    t_pts = np.quantile(taus, levels)
    keep = (t_pts > 0.0) & (t_pts < cap)
    t_pts = np.unique(t_pts[keep])
    if t_pts.size < 5:
        raise ValueError("insufficient tail data: fewer than 5 distinct "
                         "fit points in the quantile window")
    surv = np.array([(taus > t).mean() for t in t_pts])
    keep = surv > 0.0
    t_pts, surv = t_pts[keep], surv[keep]
    coeffs, cov = np.polyfit(np.log(t_pts), np.log(surv), 1, cov=True)
    h_hat = -float(coeffs[0])
    se = float(math.sqrt(cov[0, 0]))
    n_eff = int(((taus >= t_pts[0]) & (taus <= t_pts[-1])).sum())
    return TailDiagnostic(H_hat=h_hat, ci_95=(h_hat - _Z95 * se, h_hat + _Z95 * se),
                          method="loglog", k=None,
                          fit_range=(float(q_lo), float(q_hi)), n_effective=n_eff)


def tail_index(samples: SampleSet, method: str = "hill",
               k: int | None = None) -> TailDiagnostic:
    """Estimate the survival-tail exponent of the exit time.

    "hill": maximum-likelihood slope of the top-k log excesses, with capped
    values treated as right-censored.  "loglog": ordinary least squares on
    log-survival versus log-t at 25 quantile levels across the window
    (0.80, 0.99) (error bars are the naive regression ones and ignore
    dependence between points; prefer Hill when both apply).

    Hill carries a second-order bias that its 95% interval does not cover.
    On the quarter-plane wedge, whose exponent is exactly H = 2, WosTime
    batches of n = 30k at the default k = n^(2/3) give H_hat = 1.726, 1.761
    and 1.756 at seeds 0, 1 and 2 (``scripts/tail_calibration.py``), and
    each interval misses 2.  The estimate falls as k grows: at seed 1 it is
    1.88 at k = 100, 1.72 at 400 and 1.61 at 3000.
    """
    taus, cen, cap = _columns(samples)
    if taus.size < 1000:
        raise ValueError("insufficient tail data: need at least 1000 samples")
    if method == "hill":
        return _hill(taus, cen, k)
    if method == "loglog":
        return _loglog(taus, cap)
    raise ValueError(f"method must be 'hill' or 'loglog', got {method!r}")


def moment_verdict(diag: TailDiagnostic, p: float) -> str:
    """Tri-state empirical call on whether E[tau^p] is finite.

    The moment is finite exactly when p is below the tail exponent, so the
    verdict compares p against the 95% band of the tail estimate ``diag``
    (from :func:`tail_index`) and refuses to call close cases.  A
    certificate from the analytic checker always outranks this diagnostic.

    The band inherits the Hill bias stated in :func:`tail_index`: on the
    quarter-plane wedge (H = 2, n = 30k) every band lies below 2, so
    p = 1.95 is called infinite-likely at seeds 0, 1 and 2 although the
    moment is finite.
    """
    if not 0.0 < p < math.inf:
        raise ValueError("moment order p must be positive and finite")
    lo, hi = diag.ci_95
    if p < lo:
        return FINITE_LIKELY
    if p > hi:
        return INFINITE_LIKELY
    return UNCERTAIN
