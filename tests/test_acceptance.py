"""Acceptance gate: one test per advertised guarantee, run end to end.

Each test exercises a guarantee at its stated tolerance and prints a single
pass/fail line under ``pytest -v``.  Sample sizes and seeds are fixed so the
whole gate is deterministic; the statistical checks use 3-sigma slack on
their own standard errors.  Expect a few minutes of wall time.
"""

import json
import math
import time

import numpy as np
import pytest

from combexit.adversarial import build_adversarial
from combexit.checker import (
    FINITE_CERTIFIED,
    INCONCLUSIVE,
    check_refined_unit,
    check_theorem1,
    geometric_threshold,
)
from combexit.cli import run_command
from combexit.engine import SimParams, run_batch
from combexit.estimators import estimate_moment, survival_curve, tail_index
from combexit.geometry import (
    CombSpec,
    ExplicitSlits,
    HalfPlane,
    Rectangle,
    UniformGaps,
    VerticalStrip,
    Wedge,
    build_comb,
)
from combexit.series import strip_moment, theta0

Z99 = 2.5758293035489004

STRIP = VerticalStrip(-1.0, 1.0)
UNIFORM_COMB = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40))


def binom_se(frac, n):
    return math.sqrt(frac * (1.0 - frac) / n)


def geometric_gap_comb(r, n_gaps=8):
    xs = np.concatenate([[0.0], np.cumsum(r ** np.arange(1, n_gaps + 1))])
    return build_comb(CombSpec(ExplicitSlits(tuple((float(x), 1.0) for x in xs)),
                               one_sided=True))


def test_criterion_01_theta0_exact_and_fast(tmp_path):
    out = tmp_path / "theta0.json"
    assert run_command(["theta0", "--ell", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["theta0"] == pytest.approx(0.75, abs=1e-12)

    theta0(1.0)  # warm caches before timing
    best = min(
        (lambda t0: (theta0(1.0), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    assert best < 1e-3, f"theta0(1) took {best * 1e3:.3f} ms"


def test_criterion_02_strip_moment_oracles():
    exact = {1.0: 1.0, 2.0: 5.0 / 3.0, 3.0: 61.0 / 15.0}
    for p, value in exact.items():
        assert strip_moment(p) == pytest.approx(value, abs=1e-10)

    ss = run_batch(STRIP, (0.0, 0.0), 1_000_000,
                   SimParams(engine="WosTime", master_seed=2))
    for p, value in exact.items():
        est = estimate_moment(ss, p)
        assert abs(est.point_estimate - value) <= 3.0 * est.standard_error, (
            f"p={p}: {est.point_estimate:.5f} vs {value:.5f} "
            f"(3se={3 * est.standard_error:.5f})"
        )


def test_criterion_03_rectangle_harmonic_measure():
    assert theta0(1.0).p_top_bottom == pytest.approx(0.5, abs=1e-12)

    n = 100_000
    for a, b in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
        ss = run_batch(Rectangle(a, b), (0.0, 0.0), n,
                       SimParams(engine="WosTime", master_seed=3))
        # nearest side decides top/bottom vs left/right
        tb = (b - np.abs(ss.v)) < (a - np.abs(ss.u))
        frac = tb.mean()
        target = theta0(b / a).p_top_bottom
        assert abs(frac - target) <= 3.0 * binom_se(target, n), (
            f"({a},{b}): {frac:.4f} vs {target:.4f}"
        )


def test_criterion_04_strip_scaling_law():
    n = 100_000
    for d in (1.0, 2.0, 3.0):
        ss = run_batch(VerticalStrip(-d, d), (0.0, 0.0), n,
                       SimParams(engine="WosTime", master_seed=4))
        taus = ss.tau
        mean = taus.mean()
        se = taus.std(ddof=1) / math.sqrt(n)
        assert abs(mean - d * d) <= 3.0 * se, f"d={d}: {mean:.4f} vs {d * d}"


def test_criterion_05_passage_count_bound():
    n = 100_000
    ss = run_batch(UNIFORM_COMB, (0.5, 0.0), n, SimParams(master_seed=5))
    J = ss.passages
    for j in range(1, 11):
        bound = 0.75**j
        frac = (J > j).mean()
        assert frac <= bound + 3.0 * binom_se(bound, n), (
            f"j={j}: P(J>j)={frac:.5f} exceeds {bound:.5f}"
        )


def test_criterion_06_theorem_bound_consistency():
    ss = run_batch(UNIFORM_COMB, (0.5, 0.0), 100_000,
                   SimParams(engine="WosTime", master_seed=6))
    for p in (1.0, 2.0):
        verdict = check_theorem1(UNIFORM_COMB, p)
        assert verdict.status == FINITE_CERTIFIED
        est = estimate_moment(ss, p)
        # one-sided: the empirical moment may exceed the bound only by noise
        assert est.point_estimate - 3.0 * est.standard_error \
            <= verdict.bound_on_moment_root**p, (
            f"p={p}: empirical {est.point_estimate:.4f} vs "
            f"bound^p {verdict.bound_on_moment_root**p:.4f}"
        )


def test_criterion_07_geometric_threshold():
    ok = check_refined_unit(geometric_gap_comb(1.1), 1.0)
    assert ok.status == FINITE_CERTIFIED
    no = check_refined_unit(geometric_gap_comb(1.2), 1.0)
    assert no.status == INCONCLUSIVE
    assert geometric_threshold(1.0, 0.75) == (4.0 / 3.0) ** 0.5


def test_criterion_08_tail_calibration():
    single_slit = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0),))))
    cases = [
        (Wedge(math.pi / 2), (1.0, 0.5), 1.0, 0.15),
        (Wedge(math.pi / 4), (1.0, 0.2), 2.0, 0.30),
        (single_slit, (0.0, 0.0), 0.5, 0.10),
        (HalfPlane(), (0.0, 1.0), 0.5, 0.10),
    ]
    params = SimParams(engine="WosTime", time_cap=1e9, master_seed=8)
    for dom, start, target, tol in cases:
        ss = run_batch(dom, start, 100_000, params)
        diag = tail_index(ss, method="hill")
        assert abs(diag.H_hat - target) <= tol, (
            f"{dom.kind}: H_hat={diag.H_hat:.3f}, want {target} +- {tol}"
        )


def test_criterion_09_coupling_claims():
    n = 100_000
    # exit-height spread grows with |Im| of the start between two full walls
    channel = build_comb(CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 0.0))),
                                  one_sided=True))
    beta = 1.0
    fracs = []
    for y in (0.0, 0.5, 0.9):
        ss = run_batch(channel, (1.0, y), n,
                       SimParams(engine="WosTime", master_seed=9))
        fracs.append((np.abs(ss.v) >= beta).mean())
    for lo, hi in zip(fracs, fracs[1:]):
        slack = 3.0 * math.hypot(binom_se(lo, n), binom_se(hi, n))
        assert hi >= lo - slack, f"fractions not nondecreasing: {fracs}"

    # center-start floor: half the rectangle top/bottom exit probability
    ss = run_batch(STRIP, (0.0, 0.0), n, SimParams(engine="WosTime", master_seed=9))
    frac = (np.abs(ss.v) >= beta).mean()
    floor = 0.5 * theta0(beta).p_top_bottom
    assert frac >= floor - 3.0 * binom_se(frac, n), f"{frac:.4f} < {floor:.4f}"


def test_criterion_10_engine_cross_validation():
    n = 40_000
    for dom in (STRIP, Rectangle(1.0, 1.0)):
        runs = {
            engine: run_batch(dom, (0.0, 0.0), n,
                              SimParams(engine=engine, master_seed=10))
            for engine in ("EulerBridge", "WosTime")
        }
        pooled = np.concatenate([r.tau for r in runs.values()])
        grid = np.unique(np.quantile(pooled, np.linspace(0.1, 0.9, 9)))
        euler = survival_curve(runs["EulerBridge"], grid)
        wos = survival_curve(runs["WosTime"], grid)
        for (t, fe, se_e), (_, fw, se_w) in zip(euler, wos):
            band = Z99 * math.hypot(se_e, se_w)
            assert abs(fe - fw) <= band, (
                f"{dom.kind} t={t:.3f}: |{fe:.4f}-{fw:.4f}| > {band:.4f}"
            )

    # halving the discretization knobs pulls the engines together
    n = 200_000
    gaps = []
    for h, eps in [(0.16, 0.08), (0.08, 0.04), (0.04, 0.02)]:
        me = run_batch(STRIP, (0.0, 0.0), n,
                       SimParams(step_h=h, master_seed=40)).tau.mean()
        mw = run_batch(STRIP, (0.0, 0.0), n,
                       SimParams(engine="WosTime", shell_eps=eps,
                                 master_seed=40)).tau.mean()
        gaps.append(abs(me - mw))
    assert gaps[0] > gaps[1] > gaps[2], f"halving not monotone: {gaps}"


def test_criterion_11_adversarial_construction():
    domain, trace = build_adversarial(3)
    assert [t.stage for t in trace] == [1, 2, 3]
    for t in trace:
        assert t.lower_bound > t.stage

    domain2, trace2 = build_adversarial(3)
    assert trace2 == trace
    assert np.array_equal(domain2.xs, domain.xs)


def test_criterion_12_worker_determinism():
    reference = run_batch(STRIP, (0.0, 0.0), 9_000,
                          SimParams(engine="WosTime", master_seed=12, workers=1))
    for workers in (3, 5):
        rerun = run_batch(STRIP, (0.0, 0.0), 9_000,
                          SimParams(engine="WosTime", master_seed=12,
                                    workers=workers))
        assert rerun.samples == reference.samples

    euler_one = run_batch(STRIP, (0.0, 0.0), 6_000,
                          SimParams(master_seed=12, workers=1))
    euler_two = run_batch(STRIP, (0.0, 0.0), 6_000,
                          SimParams(master_seed=12, workers=2))
    assert euler_two.samples == euler_one.samples
