"""Estimator tests: exact Pareto self-tests for the tail machinery, strip
oracles for moments, and the censoring/validation edge cases."""

import math

import numpy as np
import pytest

from combexit.engine import SimParams, run_batch
from combexit.estimators import (
    FINITE_LIKELY,
    INFINITE_LIKELY,
    UNCERTAIN,
    estimate_moment,
    moment_verdict,
    survival_curve,
    synthetic_sample_set,
    tail_index,
)
from combexit.geometry import CombSpec, ExplicitSlits, VerticalStrip, build_comb, symmetrize
from combexit.series import strip_moment
from strip_oracles import strip_survival

SINGLE_SLIT = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0),))))


def pareto_set(alpha, n=20_000, seed=0, cap=math.inf):
    """Unit-scale Pareto draws, optionally right-censored at cap."""
    rng = np.random.default_rng(seed)
    x = rng.random(n) ** (-1.0 / alpha)
    cen = x >= cap
    return synthetic_sample_set(np.minimum(x, cap), time_cap=cap, censored=cen)


class TestTailSelfCalibration:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_hill_recovers_pareto_index(self, alpha):
        diag = tail_index(pareto_set(alpha, seed=int(10 * alpha)))
        lo, hi = diag.ci_95
        assert lo < alpha < hi
        assert diag.method == "hill" and diag.k == int(20_000 ** (2 / 3))

    def test_hill_censoring_correction(self):
        # a fifth of the tail window is capped; the corrected estimator
        # should still bracket the true index while the naive one (count
        # censored values as exact) would sit visibly higher
        diag = tail_index(pareto_set(1.0, seed=3, cap=50.0))
        lo, hi = diag.ci_95
        assert lo < 1.0 < hi

    def test_hill_selection_matches_stable_argsort(self):
        # the top k are found by selection; every field must equal what
        # the full stable argsort gives, ties and censor flags included
        def reference(taus, cen, k):
            n = taus.size
            order = np.argsort(taus, kind="stable")
            top = order[n - k:]
            threshold = float(taus[order[n - k - 1]])
            n_unc = int((~cen[top]).sum())
            h_hat = n_unc / float(np.log(taus[top] / threshold).sum())
            rel = 1.959963984540054 / math.sqrt(n_unc)
            return (h_hat, (max(h_hat * (1.0 - rel), 0.0), h_hat * (1.0 + rel)),
                    n_unc)

        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1000, 6000))
            x = 1.0 + rng.pareto(rng.uniform(0.5, 3.0), n)
            kind = trial % 4
            if kind == 1:  # few distinct values: ties at the threshold
                x = np.round(x, 1)
            cap = float(np.quantile(x, rng.uniform(0.97, 0.999)))
            cen = x >= cap if kind == 2 else np.zeros(n, dtype=bool)
            if kind == 2:  # censored at the cap, which the top k reach
                x = np.minimum(x, cap)
            if kind == 3:  # rounded, with flags that tell ties apart
                x = np.round(x, 0)
                cen = rng.random(n) < 0.3
            k = None if trial % 2 else int(rng.integers(10, n // 10 + 1))
            samples = synthetic_sample_set(x, time_cap=cap, censored=cen)
            try:
                diag = tail_index(samples, k=k)
            except ValueError:
                continue
            want = reference(x, cen, diag.k)
            assert (diag.H_hat, diag.ci_95, diag.n_effective) == want, trial

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_loglog_recovers_pareto_index(self, alpha):
        diag = tail_index(pareto_set(alpha, seed=7), method="loglog")
        assert diag.method == "loglog" and diag.fit_range == (0.80, 0.99)
        assert abs(diag.H_hat - alpha) < 0.15 * alpha

    def test_methods_agree_on_heavy_tail(self):
        s = pareto_set(1.0, seed=11)
        h = tail_index(s).H_hat
        l = tail_index(s, method="loglog").H_hat
        assert abs(h - l) < 0.15


class TestMomentEstimates:
    def test_strip_first_two_moments(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 30_000,
                       SimParams(master_seed=201))
        for p in (1.0, 2.0):
            est = estimate_moment(ss, p)
            want = strip_moment(p)
            assert abs(est.point_estimate - want) < 4.0 * est.standard_error + 0.02
            assert est.ci_95[0] <= est.point_estimate <= est.ci_95[1]
            assert not est.lower_bound_only and est.censored_fraction == 0.0

    def test_degenerate_all_zero(self):
        est = estimate_moment(synthetic_sample_set(np.zeros(100), 10.0), 1.0)
        assert est.point_estimate == 0.0 and est.standard_error == 0.0
        assert est.ci_95 == (0.0, 0.0)

    def test_censoring_flags_lower_bound(self):
        taus = np.array([0.5, 1.0, 2.0, 2.0])
        cen = np.array([False, False, True, True])
        est = estimate_moment(synthetic_sample_set(taus, 2.0, cen), 1.0)
        assert est.lower_bound_only and est.censored_fraction == 0.5

    def test_moment_monotone_and_jensen_on_fixture(self):
        rng = np.random.default_rng(5)
        s = synthetic_sample_set(1.0 + rng.exponential(2.0, size=4000), 1e9)
        orders = [0.5, 1.0, 1.5, 2.0, 3.0]
        moments = [estimate_moment(s, p).point_estimate for p in orders]
        assert all(a < b for a, b in zip(moments, moments[1:]))
        roots = [m ** (1.0 / p) for m, p in zip(moments, orders)]
        assert all(a <= b + 1e-12 for a, b in zip(roots, roots[1:]))

    def test_invalid_inputs(self):
        s = synthetic_sample_set(np.ones(10), 10.0)
        with pytest.raises(ValueError, match="positive"):
            estimate_moment(s, 0.0)
        with pytest.raises(ValueError, match="empty"):
            estimate_moment(synthetic_sample_set(np.array([]), 10.0), 1.0)


class TestSurvivalCurve:
    def test_strip_survival_matches_series(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 30_000,
                       SimParams(master_seed=202))
        curve = survival_curve(ss, [0.0, 0.5, 1.0, 2.0])
        t0, f0, _ = curve[0]
        assert t0 == 0.0 and f0 == 1.0
        for t, frac, se in curve[1:]:
            want = float(strip_survival(t))
            assert abs(frac - want) < 4.0 * se + 0.003
        fracs = [f for _, f, _ in curve]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_markov_inequality(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 20_000,
                       SimParams(master_seed=203))
        m1 = estimate_moment(ss, 1.0)
        for t, frac, se in survival_curve(ss, [2.0, 5.0, 10.0]):
            assert frac <= m1.point_estimate / t + 3.0 * se + 1e-9

    def test_grid_validation(self):
        s = synthetic_sample_set(np.linspace(0.1, 5.0, 50), time_cap=100.0)
        with pytest.raises(ValueError, match="cap"):
            survival_curve(s, [1.0, 100.0])
        with pytest.raises(ValueError, match="increasing"):
            survival_curve(s, [1.0, 1.0])
        with pytest.raises(ValueError, match="0"):
            survival_curve(s, [-1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty"):
            survival_curve(s, [])


class TestTailValidation:
    def test_needs_enough_samples(self):
        with pytest.raises(ValueError, match="1000"):
            tail_index(synthetic_sample_set(np.ones(999), 10.0))

    def test_k_must_stay_in_tail(self):
        s = pareto_set(1.0, n=2000, seed=1)
        with pytest.raises(ValueError, match="n/10"):
            tail_index(s, k=500)
        with pytest.raises(ValueError, match="k >= 10"):
            tail_index(s, k=5)

    def test_too_much_censoring(self):
        taus = np.full(5000, 10.0)
        cen = np.ones(5000, dtype=bool)
        with pytest.raises(ValueError, match="uncensored"):
            tail_index(synthetic_sample_set(taus, 10.0, cen))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            tail_index(pareto_set(1.0, n=2000, seed=2), method="kernel")


class TestVerdicts:
    def test_heavy_tail_flags_infinite(self):
        assert moment_verdict(tail_index(pareto_set(0.5, seed=21)), 1.0) == INFINITE_LIKELY

    def test_light_tail_flags_finite(self):
        assert moment_verdict(tail_index(pareto_set(5.0, seed=22)), 1.0) == FINITE_LIKELY

    def test_boundary_is_uncertain(self):
        diag = tail_index(pareto_set(1.0, seed=23))
        assert moment_verdict(diag, diag.H_hat) == UNCERTAIN

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="positive"):
            moment_verdict(tail_index(pareto_set(1.0, seed=24)), -1.0)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        diag = tail_index(pareto_set(1.0, seed=24))
        with pytest.raises(ValueError, match="must be positive and finite"):
            moment_verdict(diag, p)


class TestDomainConsistency:
    def test_tail_index_start_point_invariance(self):
        # moment finiteness does not depend on the starting point, so two
        # interior starts of the same comb should give compatible exponents
        params = SimParams(engine="WosTime", time_cap=1e8, master_seed=204)
        a = tail_index(run_batch(SINGLE_SLIT, (0.3, 0.0), 15_000, params))
        b = tail_index(run_batch(SINGLE_SLIT, (-0.7, 0.4), 15_000, params))
        assert a.ci_95[0] < b.ci_95[1] and b.ci_95[0] < a.ci_95[1]

    def test_one_sided_matches_symmetrization(self):
        spec = CombSpec(ExplicitSlits(((0.0, 0.0), (1.0, 1.0), (2.0, 1.0))),
                        one_sided=True)
        one = build_comb(spec)
        two = symmetrize(one)
        params = SimParams(engine="WosTime", time_cap=1e8, master_seed=205)
        a = tail_index(run_batch(one, (0.5, 0.2), 15_000, params))
        b = tail_index(run_batch(two, (0.5, 0.2), 15_000, params))
        assert a.ci_95[0] < b.ci_95[1] and b.ci_95[0] < a.ci_95[1]
