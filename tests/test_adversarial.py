"""Staged comb construction: exact certificates, cross-check batches,
reproducibility."""

import logging

import numpy as np
import pytest

from combexit.adversarial import build_adversarial
from combexit.checker import INCONCLUSIVE, check_theorem1
from combexit.engine import SimParams, run_batch
from combexit.estimators import estimate_moment
from combexit.geometry import CombSpec, ExplicitSlits, VerticalStrip, build_comb
from combexit.series import strip_half_moment

START = (1.0, 0.0)
EVAL_PARAMS = SimParams(engine="WosTime", time_cap=1e16, master_seed=11)
# E_1[tau^(1/2)] on (0, 17) and on (0, 65), to the digits printed
BOUND_17 = 2.697393
BOUND_65 = 3.768201


def strip_domain(wall):
    return build_comb(
        CombSpec(ExplicitSlits(((0.0, 0.0), (wall, 0.0))), one_sided=True)
    )


def cross_check(domain, n=4000, params=EVAL_PARAMS):
    """mean(min(tau, cap)^{1/2}) - 3 SE and the estimate, as the builder's
    cross-check batches compute them."""
    est = estimate_moment(run_batch(domain, START, n, params), 0.5)
    return est.point_estimate - 3.0 * est.standard_error, est


@pytest.fixture(scope="module")
def three_stage():
    return build_adversarial(3)


class TestCertificates:
    def test_three_stages_exceed_their_indices(self, three_stage):
        comb, trace = three_stage
        assert len(trace) == 3
        for tr in trace:
            assert tr.lower_bound > tr.stage
        assert [tr.stage for tr in trace] == [1, 2, 3]

    def test_abscissas_strictly_increase(self, three_stage):
        _, trace = three_stage
        xs = [tr.abscissa for tr in trace]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[0] > START[0]

    def test_output_comb_carries_wall_plus_unit_teeth(self, three_stage):
        comb, trace = three_stage
        assert comb.one_sided
        assert comb.xs[0] == 0.0
        np.testing.assert_array_equal(comb.xs[1:], [tr.abscissa for tr in trace])
        # wall is a full line, every tooth has height exactly 1
        assert comb.lines.par[0] == 0.0
        np.testing.assert_array_equal(comb.bs[1:], np.ones(3))

    def test_single_stage(self):
        comb, trace = build_adversarial(1)
        assert len(trace) == 1
        assert trace[0].lower_bound > 1.0
        assert len(comb.xs) == 2

    def test_trace_bookkeeping(self, three_stage):
        _, trace = three_stage
        for tr in trace:
            assert tr.samples_used > 0
            assert tr.search_iterations >= 1
        # later stages certify on their first candidate: the stage domains
        # are nested, so the first-stage certificate already covers them
        assert trace[1].search_iterations == 1
        assert trace[2].search_iterations == 1


class TestExactPlan:
    @pytest.mark.parametrize("stages, walls, bound", [
        (2, [17.0, 57.0], BOUND_17), (3, [65.0, 225.0, 625.0], BOUND_65)])
    def test_walls_and_bound_do_not_depend_on_the_seed(self, stages, walls, bound):
        runs = [build_adversarial(stages, seed=seed) for seed in (0, 1)]
        for comb, trace in runs:
            np.testing.assert_array_equal(comb.xs, [0.0, *walls])
            assert [t.lower_bound for t in trace] == [trace[0].lower_bound] * stages
            assert bound <= trace[0].lower_bound < bound + 1e-6
        assert runs[0][1][0].lower_bound == runs[1][1][0].lower_bound
        # the cross-check batches do depend on the seed
        assert runs[0][1][0].estimate != runs[1][1][0].estimate

    def test_two_stage_bookkeeping(self):
        _, trace = build_adversarial(2, seed=5)
        assert [t.samples_used for t in trace] == [20000, 4000]
        assert [t.search_iterations for t in trace] == [5, 1]
        assert trace[0].lower_bound == strip_half_moment(1.0, 17.0)

    def test_one_log_record_per_candidate(self, caplog):
        with caplog.at_level(logging.INFO, logger="combexit.adversarial"):
            build_adversarial(2)
        records = [r for r in caplog.records if r.name == "combexit.adversarial"]
        assert [r.args[:2] for r in records] == [
            (1, 2.0), (1, 3.0), (1, 5.0), (1, 9.0), (1, 17.0), (2, 57.0)]

    def test_cross_checks_are_independent(self, three_stage):
        # stages 2 and 3 add walls beyond x_1; batches sharing a seed would
        # replay stage 2's paths and give stage 3 the same estimate
        _, trace = three_stage
        assert trace[1].estimate != trace[2].estimate

    def test_every_batch_has_its_own_seed(self, monkeypatch):
        seeds = []

        def recording(domain, start, n, params):
            seeds.append(params.master_seed)
            return run_batch(domain, start, 50, params)

        monkeypatch.setattr("combexit.adversarial.run_batch", recording)
        for seed in (0, 1):
            build_adversarial(2, seed=seed)
        assert len(seeds) == 12
        assert len(set(seeds)) == 12

    def test_stage_count_beyond_float_walls_is_refused_at_once(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr("combexit.adversarial.run_batch", no_sampling)
        for stages in (328, 1_000_000):
            with pytest.raises(ValueError, match="at most 327 stages"):
                build_adversarial(stages)

    def test_strip_batch_matches_the_exact_value(self):
        est = estimate_moment(
            run_batch(VerticalStrip(0.0, 17.0), START, 4000, EVAL_PARAMS), 0.5)
        assert est.censored_fraction == 0.0
        assert abs(est.point_estimate - BOUND_17) <= 4.5 * est.standard_error


class TestSearchBehavior:
    def test_strip_estimate_grows_with_the_wall(self):
        bounds = [cross_check(strip_domain(w))[0] for w in (2.0, 8.0, 32.0)]
        assert bounds[0] < bounds[1] < bounds[2]
        assert bounds[2] - bounds[0] > 1.0

    def test_candidate_doubling_is_monotone_within_noise(self):
        # nested domains: the wall at 2x strictly contains the wall at x
        _, est1 = cross_check(strip_domain(16.0))
        _, est2 = cross_check(strip_domain(32.0))
        joint = 3.0 * float(np.hypot(est1.standard_error, est2.standard_error))
        assert est2.point_estimate >= est1.point_estimate - joint

    def test_certificates_are_truncation_safe(self, three_stage):
        # nothing is censored at the builder's cap, so the cross-check
        # estimates are plain sample means
        _, trace = three_stage
        _, est = cross_check(strip_domain(trace[0].abscissa))
        assert est.censored_fraction == 0.0
        assert est.lower_bound_only is False


class TestReproducibility:
    def test_rerun_is_bit_identical(self, three_stage):
        comb1, trace1 = three_stage
        comb2, trace2 = build_adversarial(3)
        assert trace1 == trace2
        np.testing.assert_array_equal(comb1.xs, comb2.xs)


class TestOutputDomain:
    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_checker_stays_inconclusive_at_one_half(self, stages, three_stage):
        # the artifact contains a half-plane past its last tooth, so its
        # true half-moment is infinite; certifying p = 1/2 would be wrong
        comb = three_stage[0] if stages == 3 else build_adversarial(stages)[0]
        verdict = check_theorem1(comb, 0.5)
        assert verdict.status == INCONCLUSIVE

    def test_gaps_grow_geometrically(self, three_stage):
        comb, _ = three_stage
        gaps = np.diff(comb.xs)
        assert np.all(gaps[1:] >= gaps[:-1])
        assert gaps[-1] >= 2.0 * gaps[-2]


class TestValidation:
    def test_rejects_nonpositive_stages(self):
        with pytest.raises(ValueError, match="stages"):
            build_adversarial(0)
