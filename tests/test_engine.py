"""Sampler tests: statistical oracles with fixed seeds, exact structural
invariants (exits land on the boundary), and bit-level reproducibility."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from combexit import engine, reports
from combexit.engine import (
    ExitSample,
    SampleSet,
    SimParams,
    WindowEscapeError,
    run_batch,
    simulate_exit,
)
from combexit.geometry import (
    CombSpec,
    ExplicitSlits,
    GeometricGaps,
    HalfPlane,
    Rectangle,
    UniformGaps,
    VerticalStrip,
    Wedge,
    build_comb,
    domain_fingerprint,
)
from combexit.reports import samples_to_csv
from combexit.series import default_disk_law, theta0


def exit_points(ss):
    return np.column_stack((ss.u, ss.v))


def uncensored(ss):
    keep = ~ss.censor
    return exit_points(ss)[keep], ss.tau[keep]


def square_mean_exit_time():
    """E[tau] from the center of [-1,1]^2, by separation of variables:
    1 - (32/pi^3) * sum over odd k of (-1)^((k-1)/2) / (k^3 cosh(k pi / 2))."""
    total = 0.0
    for k in range(1, 40, 2):
        total += (-1) ** ((k - 1) // 2) / (k**3 * math.cosh(k * math.pi / 2.0))
    return 1.0 - 32.0 / math.pi**3 * total


UNIFORM_COMB = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40))

# WosTime's lane pool width: tests that must cross a pool refill size
# their batches from it.
_POOL = engine._WOS_POOL

Z99 = 2.5758293035489004


class TestStatisticalOracles:
    def test_strip_mean_euler(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 40_000,
                       SimParams(master_seed=101))
        t = ss.tau
        se = t.std(ddof=1) / math.sqrt(t.size)
        assert ss.censored == 0
        assert abs(t.mean() - 1.0) < 4.0 * se + 0.01

    def test_strip_mean_wos(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 40_000,
                       SimParams(engine="WosTime", master_seed=102))
        t = ss.tau
        se = t.std(ddof=1) / math.sqrt(t.size)
        assert abs(t.mean() - 1.0) < 4.0 * se

    def test_strip_width_scaling(self):
        # tau scales like the squared half-width; compare d = 2 against the
        # analytic moment rather than against another simulation.
        ss = run_batch(VerticalStrip(-2.0, 2.0), (0.0, 0.0), 30_000,
                       SimParams(master_seed=103))
        t = ss.tau
        se = t.std(ddof=1) / math.sqrt(t.size)
        want = 4.0  # 2**2 * E[tau] of the unit strip
        assert abs(t.mean() - want) < 4.0 * se + 0.04

    def test_rectangle_side_split_and_mean(self):
        ss = run_batch(Rectangle(1.0, 1.0), (0.0, 0.0), 30_000,
                       SimParams(master_seed=104))
        pts, t = uncensored(ss)
        top_bottom = np.isclose(np.abs(pts[:, 1]), 1.0).mean()
        want = theta0(1.0).p_top_bottom
        sigma = math.sqrt(want * (1 - want) / pts.shape[0])
        assert abs(top_bottom - want) < 4.0 * sigma
        se = t.std(ddof=1) / math.sqrt(t.size)
        assert abs(t.mean() - square_mean_exit_time()) < 4.0 * se + 0.005

    def test_strip_asymmetric_start_wos(self):
        # From (0.5, 0) in the strip (-1, 1) the walk exits at u = +1 with
        # probability 0.75, and E[tau] = (1 - 0.5) * (1 + 0.5) = 0.75.  The
        # other WosTime gates start where the domain is symmetric, so they
        # cannot see a skewed jump direction.
        n = 100_000
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.5, 0.0), n,
                       SimParams(engine="WosTime", master_seed=1801))
        assert ss.censored == 0
        right = np.count_nonzero(ss.u > 0.0) / n
        assert abs(right - 0.75) <= Z99 * math.sqrt(0.75 * 0.25 / n), right
        se = ss.tau.std(ddof=1) / math.sqrt(n)
        assert abs(ss.tau.mean() - 0.75) <= Z99 * se, f"{ss.tau.mean():.4f} +- {se:.4f}"

    def test_half_plane_median_wos(self):
        # Exit time is the level-hitting time of the vertical coordinate:
        # P(tau > t) = erf(1 / sqrt(2 t)), so the median is 2.1981.
        ss = run_batch(HalfPlane(), (0.0, 1.0), 6_000,
                       SimParams(engine="WosTime", time_cap=1e8, master_seed=105))
        med = np.median(ss.tau)
        assert 1.9 < med < 2.5

    def test_half_plane_levy_survival_at_default_step(self):
        # One line: the bridge test and the crossing time are exact, so the
        # default step is the largest the guard accepts.  The grid is the
        # one perfbench's halfplane-euler check reads.
        n = 40_000
        ss = run_batch(HalfPlane(), (0.0, 1.0), n,
                       SimParams(time_cap=1e3, master_seed=1703))
        assert ss.params.step_h == 0.25
        for t in (0.25, 1.0, 4.0, 16.0, 64.0, 256.0):
            want = math.erf(1.0 / math.sqrt(2.0 * t))
            band = Z99 * math.sqrt(want * (1.0 - want) / n)
            got = np.count_nonzero(ss.tau > t) / n
            assert abs(got - want) <= band, f"t={t:g}: {got:.4f} vs {want:.4f}"

    @pytest.mark.parametrize("h, seed", [(0.01, 1704), (0.04, 1705), (0.16, 1706)])
    def test_strip_mean_flat_in_step(self, h, seed):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 100_000,
                       SimParams(step_h=h, master_seed=seed))
        t = ss.tau
        se = t.std(ddof=1) / math.sqrt(t.size)
        assert ss.censored == 0
        assert abs(t.mean() - 1.0) <= Z99 * se, f"{t.mean():.4f} +- {se:.4f}"

    def test_wedge_engines_agree_on_median(self):
        w = Wedge(math.pi / 2.0)
        start = (math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))
        a = run_batch(w, start, 5_000, SimParams(master_seed=106, time_cap=1e3))
        b = run_batch(w, start, 5_000,
                      SimParams(engine="WosTime", master_seed=107, time_cap=1e3))
        ma, mb = np.median(a.tau), np.median(b.tau)
        assert 0.85 < ma / mb < 1.18


class TestStructuralInvariants:
    def test_comb_exits_land_on_slits(self):
        ss = run_batch(UNIFORM_COMB, (0.5, 0.0), 8_000, SimParams(master_seed=21))
        pts, _ = uncensored(ss)
        assert np.isin(pts[:, 0], UNIFORM_COMB.xs).all()
        assert (np.abs(pts[:, 1]) >= 1.0).all()

    def test_strip_exits_on_walls_and_no_passages(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 4_000,
                       SimParams(master_seed=22))
        pts, _ = uncensored(ss)
        assert np.isin(pts[:, 0], [-1.0, 1.0]).all()
        assert all(s.passages is None for s in ss.samples)

    def test_comb_passages_positive_and_tail_bounded(self):
        ss = run_batch(UNIFORM_COMB, (0.5, 0.0), 20_000, SimParams(master_seed=23))
        J = np.array([s.passages for s in ss.samples])
        assert (J[~ss.censor] >= 1).all()
        n = J.size
        for j in range(1, 7):
            bound = 0.75**j
            sigma = math.sqrt(bound * (1 - bound) / n)
            assert (J > j).mean() <= bound + 4.0 * sigma

    def test_one_sided_comb_wall(self):
        comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=30,
                                   one_sided=True))
        ss = run_batch(comb, (0.5, 0.0), 4_000, SimParams(master_seed=24))
        pts, _ = uncensored(ss)
        assert (pts[:, 0] >= 0.0).all()
        on_wall = pts[:, 0] == 0.0
        on_teeth = np.abs(pts[:, 1]) >= 1.0
        assert (on_wall | on_teeth).all()
        # some trajectories should actually reach the wall inside |v| < 1
        assert (on_wall & ~on_teeth).any()

    def test_wos_exits_sit_on_boundary(self):
        for dom, start in [
            (VerticalStrip(-1.0, 1.0), (0.0, 0.0)),
            (Rectangle(1.0, 0.5), (0.0, 0.0)),
            (UNIFORM_COMB, (0.5, 0.0)),
            (Wedge(math.pi / 2.0), (0.7, 0.7)),
            (Wedge(_REFLEX), (math.cos(0.75 * _REFLEX), math.sin(0.75 * _REFLEX))),
            (HalfPlane(), (0.0, 1.0)),
        ]:
            ss = run_batch(dom, start, 1_500,
                           SimParams(engine="WosTime", master_seed=25))
            pts, _ = uncensored(ss)
            assert len(pts)
            d = dom.lines.distance(pts[:, 0], pts[:, 1])
            assert np.max(np.abs(d)) < 1e-9

    def test_euler_wedge_exits_on_rays(self):
        w = Wedge(math.pi / 2.0)
        ss = run_batch(w, (0.7, 0.7), 3_000,
                       SimParams(master_seed=26, time_cap=1e3))
        pts, _ = uncensored(ss)
        on0 = np.isclose(pts[:, 1], 0.0) & (pts[:, 0] >= -1e-12)
        on1 = np.isclose(pts[:, 0], 0.0) & (pts[:, 1] >= -1e-12)
        assert (on0 | on1).all()

    def test_censoring_at_time_cap(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 2_000,
                       SimParams(time_cap=0.05, master_seed=27))
        cen = ss.censor
        assert cen.any() and ss.censored == cen.sum()
        t = ss.tau
        assert (t <= 0.05 + 1e-12).all()
        assert np.all(t[cen] == 0.05)

    @pytest.mark.parametrize("engine_name", ["EulerBridge", "WosTime"])
    def test_no_exit_after_time_cap(self, engine_name):
        # the step that crosses the cap may also cross the boundary; such
        # an exit comes after the cap, so the sample is censored there
        strip = VerticalStrip(-1.0, 1.0)
        for seed in range(20, 30):
            ss = run_batch(strip, (0.0, 0.0), 2_000,
                           SimParams(engine=engine_name, time_cap=0.05,
                                     master_seed=seed))
            cen = ss.censor
            assert cen.any()
            assert np.all(ss.tau[~cen] <= 0.05), seed
            assert np.all(ss.tau[cen] == 0.05), seed
            assert np.all(strip.contains(ss.u[cen], ss.v[cen])), seed

    def test_censoring_at_max_steps(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 500,
                       SimParams(max_steps=10, master_seed=28))
        cen = [s for s in ss.samples if s.censored]
        assert cen  # ten steps of h = 1/25 rarely suffice to exit
        assert all(s.steps == 10 for s in cen)
        assert all(s.steps <= 10 for s in ss.samples)

    def test_window_escape_raises_both_engines(self):
        tiny = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=1))
        for engine in ("EulerBridge", "WosTime"):
            with pytest.raises(WindowEscapeError, match="window_radius"):
                run_batch(tiny, (0.5, 0.0), 2_000,
                          SimParams(engine=engine, master_seed=29))


class TestReproducibility:
    @pytest.mark.parametrize("engine_name", ["EulerBridge", "WosTime"])
    def test_worker_partition_bit_identity(self, engine_name):
        args = (UNIFORM_COMB, (0.5, 0.0), 9_000)
        a, b, c = (run_batch(*args, SimParams(engine=engine_name, master_seed=31,
                                              workers=workers))
                   for workers in (1, 3, 5))
        assert column_digest(a) == column_digest(b) == column_digest(c)

    def test_single_sample_replay(self):
        for params in (SimParams(master_seed=32),
                       SimParams(engine="WosTime", master_seed=32)):
            batch = run_batch(UNIFORM_COMB, (0.5, 0.0), 64, params)
            for i in (0, 17, 63):
                solo = simulate_exit(UNIFORM_COMB, (0.5, 0.0), params,
                                     sample_index=i)
                assert solo == batch.samples[i]

    @pytest.mark.parametrize("engine_name, indices", [
        ("EulerBridge", (0, 4095, 4096, 8191, 8192, 8_999)),
        ("WosTime", (0, _POOL // 2 - 1, _POOL // 2, _POOL - 1, _POOL,
                     5 * _POOL // 2 - 1)),
    ], ids=["EulerBridge", "WosTime"])
    def test_wos_replay_across_pool_refills(self, engine_name, indices):
        # WosTime: 2.5 pools of samples take the pool through several
        # refills, so samples from _POOL on join it mid-batch, beside lanes
        # still running.  EulerBridge: 9k samples run in three chunks of at
        # most 4096.  Two workers split the batch in two ranges, each of
        # which still crosses a refill or a chunk boundary.
        params = SimParams(engine=engine_name, master_seed=34)
        batch = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), indices[-1] + 1,
                          params)
        for i in indices:
            solo = simulate_exit(VerticalStrip(-1.0, 1.0), (0.0, 0.0), params,
                                 sample_index=i)
            assert solo == batch.samples[i]
        split = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), indices[-1] + 1,
                          replace(params, workers=2))
        assert column_digest(split) == column_digest(batch)

    def test_seed_changes_draws(self):
        a = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 50,
                      SimParams(master_seed=1))
        b = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 50,
                      SimParams(master_seed=2))
        assert not np.array_equal(a.tau, b.tau)

    def test_sampleset_metadata(self):
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 32,
                       SimParams(master_seed=33))
        assert ss.total == 32 and len(ss.samples) == 32
        assert ss.domain_fingerprint == domain_fingerprint(VerticalStrip(-1.0, 1.0))
        # resolved step echoed back: scale 1 -> h = 1/25
        assert ss.params.step_h == pytest.approx(1.0 / 25.0)
        ws = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 8,
                       SimParams(engine="WosTime", master_seed=33))
        assert ws.params.shell_eps == pytest.approx(1e-4)
        assert all(s.engine == "WosTime" for s in ws.samples)


def column_digest(ss):
    """sha256 of the (tau, u, v, censored, passages, steps) column bytes;
    untracked passages hash as -1."""
    passages = (np.full(ss.total, -1) if ss.passages is None
                else ss.passages)
    cols = (
        ss.tau.astype(np.float64),
        ss.u.astype(np.float64),
        ss.v.astype(np.float64),
        ss.censor.astype(np.uint8),
        passages.astype(np.int64),
        ss.steps.astype(np.int64),
    )
    digest = hashlib.sha256()
    for col in cols:
        digest.update(col.tobytes())
    return digest.hexdigest()


_REFLEX = 1.5 * math.pi

# Sizes are chosen so that a chunk's first passes hold too many lanes for a
# full window (more than ``_LANE_STEPS // _WINDOW_START``), and the
# long-lived half-plane runs reach passes where a few lanes are evaluated
# over many steps.
GUARD_CASES = {
    "strip": (VerticalStrip(-1.0, 1.0), (0.3, 0.0), 2_000,
              dict(master_seed=41)),
    "rectangle": (Rectangle(1.0, 0.5), (0.2, -0.1), 2_000,
                  dict(master_seed=42)),
    "convex-wedge": (Wedge(math.pi / 2.0), (0.7, 0.7), 1_500,
                     dict(master_seed=43, time_cap=100.0)),
    "reflex-wedge": (Wedge(_REFLEX),
                     (math.cos(0.75 * _REFLEX), math.sin(0.75 * _REFLEX)),
                     1_500, dict(master_seed=44, time_cap=100.0)),
    "half-plane-time-cap": (HalfPlane(), (0.0, 1.0), 2_000,
                            dict(master_seed=45, time_cap=40.0)),
    "half-plane-max-steps": (HalfPlane(), (0.0, 1.0), 2_000,
                             dict(master_seed=46, max_steps=700)),
    "uniform-comb": (UNIFORM_COMB, (0.5, 0.0), 2_000,
                     dict(master_seed=47, time_cap=200.0)),
    # More samples than one EulerBridge chunk of 4096 lanes.
    "uniform-comb-multichunk": (UNIFORM_COMB, (0.5, 0.0), 9_000,
                                dict(master_seed=47, time_cap=20.0)),
    "half-plane-multichunk": (HalfPlane(), (0.0, 1.0), 9_000,
                              dict(master_seed=45, time_cap=40.0)),
    # Five slits, two of them full walls: static slots with S > 1, passages
    # and a non-convex domain.
    "explicit-comb": (
        build_comb(CombSpec(ExplicitSlits(((-2.5, 0.0), (-1.0, 0.5), (0.0, 1.0),
                                           (1.5, 0.8), (3.0, 0.0))))),
        (0.5, 0.0), 2_000, dict(master_seed=71, time_cap=100.0)),
    # 17 lines with unequal gaps: slot windows found per step.
    "geometric-comb": (
        build_comb(CombSpec(GeometricGaps(1.5, 1.0), window_radius=8)),
        (0.2, 0.0), 2_000, dict(master_seed=72, time_cap=20.0)),
    # A finite lower escape edge: the wall of a one-sided comb.
    "one-sided-uniform-comb": (
        build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40,
                            one_sided=True)),
        (0.5, 0.0), 2_000, dict(master_seed=73, time_cap=200.0)),
    "wos-rectangle": (Rectangle(1.0, 0.5), (0.2, -0.1), 2_000,
                      dict(engine="WosTime", master_seed=61)),
    "wos-convex-wedge": (Wedge(math.pi / 2.0), (0.7, 0.7), 1_500,
                         dict(engine="WosTime", master_seed=62, time_cap=100.0)),
    "wos-reflex-wedge": (Wedge(_REFLEX),
                         (math.cos(0.75 * _REFLEX), math.sin(0.75 * _REFLEX)),
                         1_500, dict(engine="WosTime", master_seed=63,
                                     time_cap=100.0)),
    "wos-half-plane-time-cap": (HalfPlane(), (0.0, 1.0), 2_000,
                                dict(engine="WosTime", master_seed=64,
                                     time_cap=40.0)),
    "wos-uniform-comb": (UNIFORM_COMB, (0.5, 0.0), 2_000,
                         dict(engine="WosTime", master_seed=65, time_cap=200.0)),
    "wos-uniform-comb-j200": (
        build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=200)),
        (0.5, 0.0), 2_000,
        dict(engine="WosTime", master_seed=66, time_cap=200.0)),
    "wos-one-sided-explicit": (
        build_comb(CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 1.0), (4.5, 1.0),
                                           (9.0, 0.0))), one_sided=True)),
        (1.0, 0.0), 2_000, dict(engine="WosTime", master_seed=67)),
    # More samples than one WosTime lane pool holds, so later samples join
    # the pool as earlier ones finish.
    "wos-strip-refill": (VerticalStrip(-1.0, 1.0), (0.0, 0.0), 5 * _POOL // 2,
                         dict(engine="WosTime", master_seed=68)),
    "wos-uniform-comb-refill": (UNIFORM_COMB, (0.5, 0.0), 9 * _POOL // 4,
                                dict(engine="WosTime", master_seed=69,
                                     time_cap=200.0)),
    "wos-half-plane-max-steps-refill": (HalfPlane(), (0.0, 1.0), 9 * _POOL // 4,
                                        dict(engine="WosTime", master_seed=70,
                                             max_steps=40)),
}

GUARD_DIGESTS = {
    "strip":
        "4893c580061e65c5781ecae19d475fb1fd9698eda2c2153d01c26fe1c3c44f2d",
    "rectangle":
        "b8f09a436014509bca6256aed4680b2a24eec056ec848f359d629cb95ab2a602",
    "convex-wedge":
        "93e7097a39e0274e3e695f4cb2865002a80ed5d27d3678c0009239461ddb3c8f",
    "reflex-wedge":
        "83a060ad2aa3a8866ce81c820451a66cedf14c4699ce698885bccda44fbae166",
    "half-plane-time-cap":
        "c2ee82f5cf7b78d0b90aed99ed1788d7d5a27e22ffe903132cbced167406279e",
    "half-plane-max-steps":
        "72ee08f5e2b081b8c140d0164f3d026d41494c8757371b70b6dcd0b484eeab4e",
    "uniform-comb":
        "c583324cacb6c50acfbf3ddf26fa54a9c226c75374102d0a03d4724ed28238b8",
    "uniform-comb-multichunk":
        "16d2cf031539a43b6781f7a9e6fabcc18bf481248cac90d9f84ff59e09170f85",
    "half-plane-multichunk":
        "065661a1efabbb0c44ca64f21c58829f7afa4dbb600aa345856048945be2d8fe",
    "explicit-comb":
        "3a5e6d475eadace5911456e2ad21a31a7f20f3db942397a39a730a0ee5f6129b",
    "geometric-comb":
        "eb06fdc8214d49b5d76f572e35c7109145f7143b92c5cc8893b32577978e82d4",
    "one-sided-uniform-comb":
        "5616840c75a55979414dc7f318fc6760af22b1312850c80d16c952b1ec978b0c",
    "wos-rectangle":
        "ac932378e85ac9380d1abfdad9bd9742314cc21c15f8692b6a0d66357a7f9ff6",
    "wos-convex-wedge":
        "436eddb6bc9db25b5ca9742ebccbe9e966ad7ccbdd05578fb4479a3952c746e3",
    "wos-reflex-wedge":
        "41fde21282029f29fc79916ec5e3c50c52d058eaf7a55d0ef3c97b2810e303ca",
    "wos-half-plane-time-cap":
        "c5e32927168a1fb175e9ba107581f02aec98e97c39d83a12d1db06f97683d5c6",
    "wos-uniform-comb":
        "00c3b0098fbb801ede7f4bfaafc98047e706131468b371712c34548d2f077666",
    "wos-uniform-comb-j200":
        "b36a38a46309f46efa85409154f0f5b0d3b3a53108eadb529a4f912bb439cfb8",
    "wos-one-sided-explicit":
        "cd3b3deb654915af3d7c3920eeb935f77df2bb625b5c5788d562966d22595101",
    "wos-strip-refill":
        "790e71048b2b7e7baba41211ba1efd6b834af856b3407cf87e3ee08e6a55dca7",
    "wos-uniform-comb-refill":
        "4d5088b9df971d6ca9b4b3b508f48ba962bd8e3d002c691faa22d750b3ed7733",
    "wos-half-plane-max-steps-refill":
        "19be8c135f5c4c1895dd8dce810db777cabad7e80bedb9161b32c3e954156604",
}


class TestBitIdentityGuard:
    """Pinned outputs of both engines: any change to a kernel's float
    expressions, their order, the boundary distance and nearest point
    WosTime reads, or the draw schedule shows up here.

    The digests were recorded with numpy 2.4 on x86-64 with AVX-512, whose
    vectorized ``exp`` may round differently from other builds; on another
    platform, record them afresh from a known-good commit before trusting a
    mismatch.
    """

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_column_digest(self, case):
        domain, start, n, kw = GUARD_CASES[case]
        ss = run_batch(domain, start, n, SimParams(**kw))
        assert column_digest(ss) == GUARD_DIGESTS[case]

    def test_window_escape_names_the_same_sample(self):
        comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=2))
        with pytest.raises(WindowEscapeError) as err:
            run_batch(comb, (0.5, 0.0), 2_000, SimParams(master_seed=48))
        assert str(err.value).startswith("sample 1399 ")

    def test_wos_window_escape_names_the_same_sample(self):
        # Sample by sample, 27 is the lowest index that stands outside the
        # window at jump 2, the earliest jump any of the 2000 escapes at.
        comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=2))
        with pytest.raises(WindowEscapeError) as err:
            run_batch(comb, (0.5, 0.0), 2_000,
                      SimParams(engine="WosTime", master_seed=48))
        assert str(err.value).startswith("sample 27 ")

    @pytest.mark.parametrize("radius, n, kw, named", [
        (2, 9 * _POOL // 4, dict(engine="WosTime", master_seed=49), 7),
        (8, 5 * _POOL // 4, dict(engine="WosTime", master_seed=2, time_cap=50.0),
         19_717),
        (7, 12_000, dict(master_seed=1, time_cap=50.0), 1402),
        (8, 12_000, dict(master_seed=2, time_cap=50.0), 4804),
    ], ids=["wos-first-fill", "wos-refill", "euler-first-chunk",
            "euler-second-chunk"])
    def test_wos_window_escape_beyond_one_pool(self, radius, n, kw, named):
        # The first WosTime case escapes within the first pool fill; in the
        # second no sample of the first fill escapes, and the one named
        # joined the pool at a refill.  The first EulerBridge case names a
        # sample of its first chunk, the second one of its second chunk; at
        # seed 1 every radius up to 8 that escapes names a first-chunk
        # sample, so the second runs at seed 2.
        comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=radius))
        with pytest.raises(WindowEscapeError) as err:
            run_batch(comb, (0.5, 0.0), n, SimParams(**kw))
        assert str(err.value).startswith(f"sample {named} ")


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
INDICES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40]


class TestSeeding:
    """One hash runs from the seed to every variate: sample ``i``'s key is
    output ``i`` of SplitMix64 seeded with the first SplitMix64 output of
    the master seed, and WosTime draws every jump and EulerBridge its path
    and every crossing variate from SplitMix64 seeded with that key.  These
    pin the keys and WosTime's draws to a SplitMix64 reference on Python
    ints."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_keys_are_splitmix64(self, seed):
        keys = engine._sample_keys(seed, np.array(INDICES))
        assert keys.dtype == np.uint64 and keys.shape == (len(INDICES),)
        assert keys.tolist() == [reference_key(seed, i) for i in INDICES]

    def test_golden_shifted_seeds_share_no_key(self):
        # Seed 2**64 - gamma plus gamma wraps to seed 0, so without the
        # seed mix its keys would be seed 0's shifted by one index.
        shifted = 2**64 - SPLITMIX_GAMMA
        assert shifted == 0x61C8864680B583EB
        indices = np.arange(100)
        assert not (set(engine._sample_keys(0, indices).tolist())
                    & set(engine._sample_keys(shifted, indices).tolist()))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wos_jumps_read_splitmix64_outputs(self, seed, monkeypatch):
        # Jump k of sample i reads SplitMix64 outputs 2k (its angle) and
        # 2k + 1 (its disk-law time) under the sample's key.
        reads, times = [], []
        uniform = engine._uniform
        law = type(default_disk_law())
        invert = law.times_from_uniform

        def read(key, counter):
            out = uniform(key, counter)
            reads.extend(zip(np.broadcast_to(key, counter.shape).ravel().tolist(),
                             counter.ravel().tolist(), out.ravel().tolist()))
            return out

        def read_times(table, u):
            times.extend(u.tolist())
            return invert(table, u)

        monkeypatch.setattr(engine, "_uniform", read)
        monkeypatch.setattr(law, "times_from_uniform", read_times)
        params = SimParams(engine="WosTime", master_seed=seed)
        for index in (0, 2**40, 2**63 - 1):
            reads.clear()
            times.clear()
            sample = simulate_exit(UNIFORM_COMB, (0.5, 0.0), params,
                                   sample_index=index)
            key = reference_key(seed, index)
            want = [((w >> 11) + 1) * 2.0**-53
                    for w in splitmix64_reference(key, 2 * sample.steps)]
            assert sample.steps > 1
            assert reads == [(key, c, x) for c, x in enumerate(want)]
            assert times == want[1::2]

    # Recorded when the sample keys began to come from SplitMix64 of the
    # mixed master seed.
    FAR_SAMPLES = {
        ("EulerBridge", 2**40):
            ExitSample(1.1711696379257506, (0.0, -1.1201117513716565),
                       False, 1, 30, "EulerBridge"),
        ("EulerBridge", 2**63 - 1):
            ExitSample(0.4629264813096892, (1.0, -1.1290338415117223),
                       False, 1, 12, "EulerBridge"),
        ("WosTime", 2**40):
            ExitSample(4.588275148099446, (3.0, -1.0722110479404117),
                       False, None, 36, "WosTime"),
        ("WosTime", 2**63 - 1):
            ExitSample(4.864462202151886, (0.0, -1.264189862404339),
                       False, None, 35, "WosTime"),
    }

    @pytest.mark.parametrize("key", sorted(FAR_SAMPLES),
                             ids=lambda key: f"{key[0]}-{key[1]}")
    def test_far_sample_index_replays_the_old_stream(self, key, monkeypatch):
        engine_name, index = key
        params = SimParams(engine=engine_name, master_seed=2**32 + 5)
        sample = simulate_exit(UNIFORM_COMB, (0.5, 0.0), params,
                               sample_index=index)
        assert sample == self.FAR_SAMPLES[key]
        # the same sample from keys of the SplitMix64 reference
        def reference_keys(seed, indices):
            return np.array([reference_key(seed, int(i)) for i in indices],
                            dtype=np.uint64)

        monkeypatch.setattr(engine, "_sample_keys", reference_keys)
        assert simulate_exit(UNIFORM_COMB, (0.5, 0.0), params,
                             sample_index=index) == sample

    @pytest.mark.parametrize("index", [-1, 2**63, 2**64, 1.5, True])
    def test_bad_sample_index(self, index):
        with pytest.raises(ValueError, match="sample_index"):
            simulate_exit(VerticalStrip(-1.0, 1.0), (0.0, 0.0), SimParams(),
                          sample_index=index)


SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_reference(seed, n):
    """The first ``n`` outputs of SplitMix64 seeded with ``seed`` (Steele,
    Lea & Flood 2014), on Python ints: the state advances by the golden
    gamma and each output mixes it."""
    out = []
    for _ in range(n):
        seed = (seed + SPLITMIX_GAMMA) % 2**64
        z = (seed ^ seed >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        out.append(z ^ z >> 31)
    return out


def reference_key(master_seed, index):
    """Sample ``index``'s key: output ``index`` of SplitMix64 seeded with
    the first output of SplitMix64 seeded with ``master_seed``.  Output
    ``c`` of a seed is the first output of the seed plus ``c * gamma``."""
    word = splitmix64_reference(master_seed, 1)[0]
    return splitmix64_reference((word + index * SPLITMIX_GAMMA) % 2**64, 1)[0]


class TestCrossingVariates:
    """EulerBridge reads its path from SplitMix64 hashes of (sample key,
    step, slot) and every crossing variate from hashes of (sample key,
    step, line, slot); these pin the hash and the path, and check that the
    window schedule only regroups them."""

    def test_reference_matches_published_outputs(self):
        # splitmix64.c's first outputs from seed 1234567
        assert splitmix64_reference(1234567, 3) == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]

    @pytest.mark.parametrize("key", [0, 1234567, 2**63 + 11, 2**64 - 1])
    def test_hash_is_splitmix64(self, key):
        # the state runs through key + k * gamma, so output c of ``key`` is
        # the first output of key + c * gamma
        far = [2**32 - 1, 2**32, 2**32 + 3, 2**40 + 7, 2**62 - 1, 2**64 - 2]
        want = splitmix64_reference(key, 40) + [
            splitmix64_reference((key + c * SPLITMIX_GAMMA) % 2**64, 1)[0]
            for c in far]
        keys = np.full(40 + len(far), key, dtype=np.uint64)
        counters = np.array(list(range(40)) + far, dtype=np.uint64)
        assert engine._splitmix64(keys, counters).tolist() == want
        assert engine._uniform(keys, counters).tolist() == [
            ((w >> 11) + 1) * 2.0**-53 for w in want]

    def test_censored_path_is_hashed_box_muller(self):
        # A max_steps-censored sample stands where its hashed Box-Muller
        # pairs put it: step k reads SplitMix64 outputs 2**63 + 2k (the
        # radius) and 2**63 + 2k + 1 (the angle) under the sample's key, and
        # the steps are summed from the start one at a time.  The engine
        # takes cos and sin from the tangent of the half angle, so its sums
        # agree with math.cos and math.sin to rounding only.
        params = SimParams(master_seed=46, max_steps=700)
        ss = run_batch(HalfPlane(), (0.0, 1.0), 100, params)
        picked = np.flatnonzero(ss.censor)[:3]
        assert picked.size == 3 and (ss.steps[picked] == 700).all()
        sqrt_h = math.sqrt(ss.params.step_h)
        for i in picked.tolist():
            key = reference_key(46, i)
            # output 2**63 + c of ``key`` is output c of key + 2**63 * gamma
            words = splitmix64_reference((key + 2**63 * SPLITMIX_GAMMA) % 2**64,
                                         2 * 700)
            uniforms = [((w >> 11) + 1) * 2.0**-53 for w in words]
            u, v = 0.0, 1.0
            for radius_u, angle_u in zip(uniforms[0::2], uniforms[1::2]):
                rho = math.sqrt(-2.0 * math.log(radius_u))
                angle = 2.0 * math.pi * (angle_u - 0.5)
                u += sqrt_h * rho * math.cos(angle)
                v += sqrt_h * rho * math.sin(angle)
            assert ss.u[i] == pytest.approx(u, rel=0.0, abs=1e-9)
            assert ss.v[i] == pytest.approx(v, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("case", ["half-plane-time-cap", "uniform-comb",
                                      "explicit-comb", "strip", "rectangle",
                                      "reflex-wedge"])
    def test_window_schedule_only_regroups(self, case, monkeypatch):
        # the half-plane, dynamic comb slots, static vertical slots (S = 5
        # and S = 2), axis lines (S = 4) and oblique lines, under other
        # first windows, pass sizes and chunk widths; a pass budget below a
        # chunk's lane count runs one-step windows, so the workspace is
        # viewed at shapes that shrink and grow again
        domain, start, _, kw = GUARD_CASES[case]
        reference = column_digest(run_batch(domain, start, 300, SimParams(**kw)))
        for window_start, lane_steps, chunk in ((3, 700, 37), (256, 1 << 17, 4096),
                                                (8, 40, 64)):
            monkeypatch.setattr(engine, "_WINDOW_START", window_start)
            monkeypatch.setattr(engine, "_LANE_STEPS", lane_steps)
            monkeypatch.setattr(engine, "_CHUNK", chunk)
            assert column_digest(run_batch(domain, start, 300,
                                           SimParams(**kw))) == reference


CSV_CASES = {
    "wos-strip": (VerticalStrip(-1.0, 1.0), (0.0, 0.0), 500,
                  dict(engine="WosTime", master_seed=51)),
    "euler-uniform-comb": (UNIFORM_COMB, (0.5, 0.0), 500,
                           dict(master_seed=52, time_cap=200.0)),
}

CSV_DIGESTS = {
    "wos-strip":
        "def3485485a063086def6e8ea53bc1b40a62554522c1e41f47905daf835178af",
    "euler-uniform-comb":
        "86fc3bba7a7f9649e552523b5beff795dfd82329340dbb8622fc1e5e1550604b",
}


class TestCsvBytesGuard:
    """Pinned ``samples_to_csv`` bytes: the text encoding of every column
    (``repr`` floats, 0/1 flags, the passages column filled for combs and
    empty otherwise) as well as the samples themselves.

    Recorded with numpy 2.4 on x86-64 with AVX-512; as for
    ``TestBitIdentityGuard``, record them afresh from a known-good commit
    on another platform before trusting a mismatch.
    """

    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    def test_csv_digest(self, case, tmp_path, monkeypatch):
        # the bytes do not depend on how many rows each written chunk holds
        domain, start, n, kw = CSV_CASES[case]
        samples = run_batch(domain, start, n, SimParams(**kw))
        path = tmp_path / "samples.csv"
        for rows in (1, 7, reports._CSV_ROWS):
            monkeypatch.setattr(reports, "_CSV_ROWS", rows)
            digest = samples_to_csv(samples, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
            assert digest == CSV_DIGESTS[case]


class TestClock:
    """EulerBridge lanes read their grid times at their own step counts
    from one clock table, so the table must hold the running sums that
    stepping one lane alone gives, and every lane must stop at the first
    step count whose time reaches ``time_cap`` or that equals
    ``max_steps``."""

    H = 0.04   # not a dyadic fraction: the sums round

    def running_sums(self, n):
        t, sums = 0.0, [0.0]
        for _ in range(n):
            t += self.H
            sums.append(t)
        return sums

    def test_entries_are_running_sums(self):
        want = self.running_sums(5000)
        clock = engine._Clock(self.H)
        # every count but 500 extends the table, 1001 by a single entry
        for k in (10, 63, 1000, 500, 1001, 5000):
            assert clock.upto(k).tolist() == want[:k + 1]

    @pytest.mark.parametrize("kw", [dict(time_cap=3.0), dict(max_steps=60),
                                    dict(time_cap=3.0, max_steps=80)],
                             ids=["time-cap", "max-steps", "both"])
    def test_first_cap_step(self, kw, monkeypatch):
        # a narrow pool that refills holds lanes at different step counts
        monkeypatch.setattr(engine, "_CHUNK", 50)
        params = SimParams(step_h=self.H, master_seed=5, **kw)
        ss = run_batch(HalfPlane(), (0.0, 1.0), 600, params)
        sums = self.running_sums(params.max_steps if "max_steps" in kw else 200)
        cap = next(k for k, t in enumerate(sums)
                   if t >= params.time_cap or k >= params.max_steps)
        assert np.count_nonzero(ss.censor) > 100
        assert (ss.steps[ss.censor] == cap).all()
        assert (ss.tau[ss.censor] == min(sums[cap], params.time_cap)).all()
        assert (ss.steps[~ss.censor] <= cap).all()


class TestWorkingSet:
    """tracemalloc peaks of 8192-sample EulerBridge batches.  Every pass of
    a sample range views one workspace, so a batch holds its result
    columns, one pass's dense arrays and that pass's crossing lists.

    The bounds are the peaks measured with numpy 2.4 on x86-64 plus 20%:
    2.59 MiB on the half-plane and 6.40 MiB on the uniform comb, where a
    fresh set of dense arrays per pass and twice the pass budget peaked at
    5.32 and 13.18 MiB.
    """

    @pytest.mark.parametrize("domain, start, time_cap, bound_mib", [
        (HalfPlane(), (0.0, 1.0), 1000.0, 3.11),
        (UNIFORM_COMB, (0.5, 0.0), 200.0, 7.68),
    ], ids=["half-plane", "uniform-comb"])
    def test_run_batch_peak(self, domain, start, time_cap, bound_mib):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs; its peak is not this batch's")
        params = SimParams(master_seed=7, time_cap=time_cap)
        run_batch(domain, start, 64, params)
        tracemalloc.start()
        try:
            run_batch(domain, start, 8192, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mib


class TestCouplingProperties:
    """Distributional comparisons the geometry forces on exit laws."""

    def test_taller_teeth_slow_exits(self):
        # enlarging every tooth gap (b 1 -> 2) enlarges the domain, so mean
        # exit time can only go up; one-sided comparison at 3 joint SEs
        short = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40))
        tall = build_comb(CombSpec(UniformGaps(1.0, 2.0), window_radius=40))
        means = {}
        for name, dom in (("short", short), ("tall", tall)):
            ss = run_batch(dom, (0.5, 0.0), 30_000,
                           SimParams(master_seed=21, time_cap=1e4))
            t = ss.tau
            means[name] = (t.mean(), t.std(ddof=1) / math.sqrt(t.size))
        joint = math.hypot(means["short"][1], means["tall"][1])
        assert means["tall"][0] >= means["short"][0] - 3.0 * joint

    def test_exit_height_spread_grows_with_start_height(self):
        # strip as a two-full-line comb; the chance of exiting at height
        # at least beta is smallest from the centerline and grows with |y|
        strip = build_comb(
            CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 0.0))), one_sided=True)
        )
        beta = 1.0
        fracs = []
        for y in (0.0, 0.5 * beta, 0.9 * beta):
            ss = run_batch(strip, (1.0, y), 30_000, SimParams(master_seed=5))
            pts = exit_points(ss)
            frac = float((np.abs(pts[:, 1]) >= beta).mean())
            se = math.sqrt(frac * (1.0 - frac) / len(pts))
            fracs.append((frac, se))
        for (lo, se_lo), (hi, se_hi) in zip(fracs, fracs[1:]):
            assert hi >= lo - 3.0 * math.hypot(se_lo, se_hi)

    def test_center_exit_height_bound(self):
        # a trajectory exiting the inscribed rectangle through a horizontal
        # side sits at height beta with a fresh symmetric vertical motion,
        # so at least half of that mass keeps |v| >= beta at the strip exit
        beta = 1.0
        ss = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 30_000,
                       SimParams(master_seed=13))
        pts = exit_points(ss)
        frac = float((np.abs(pts[:, 1]) >= beta).mean())
        se = math.sqrt(frac * (1.0 - frac) / len(pts))
        floor = 0.5 * theta0(beta).p_top_bottom
        assert frac >= floor - 3.0 * se


def first_hit_density(x, y, h):
    """The first-hit density, up to a constant, of a line at distance ``x``
    for a Brownian bridge that ends at distance ``y`` (either side) after
    ``h``: hitting at ``t`` (density ``x exp(-x**2/2t) / sqrt(2 pi t**3)``)
    and going on from the line to ``y``, or to its mirror image by the
    reflection principle, in the remaining ``h - t``."""
    return lambda t: (t**-1.5 * (h - t)**-0.5
                      * math.exp(-x * x / (2.0 * t) - y * y / (2.0 * (h - t))))


class TestCrossingTimeLaw:
    """The kernel's crossing fraction (``_crossing_fraction``) against the
    bridge's first-hit law, integrated numerically."""

    @staticmethod
    def fractions(x, y, h, n, seed):
        rng = np.random.default_rng(seed)
        nu = rng.standard_normal(n)
        u = rng.random(n)
        return engine._crossing_fraction(np.full(n, x), np.full(n, abs(y)), h, nu, u)

    def test_sign_change_mean(self):
        # the exact mean is 0.2629; the linear fraction 0.3 / (0.3 + 0.2)
        # = 0.6 is late
        x, y, h, n = 0.3, -0.2, 1.0, 200_000
        density = first_hit_density(x, y, h)
        exact = (quad(lambda t: t / h * density(t), 0.0, h)[0]
                 / quad(density, 0.0, h)[0])
        assert round(exact, 4) == 0.2629
        f = self.fractions(x, y, h, n, 1701)
        se = f.std(ddof=1) / math.sqrt(n)
        assert abs(f.mean() - exact) <= Z99 * se, f"{f.mean():.4f} vs {exact:.4f}"

    def test_same_side_first_hit_law(self):
        x, y, h, n = 0.3, 0.2, 0.25, 20_000
        density = first_hit_density(x, y, h)
        edges = np.linspace(0.0, h, 2001)
        mass = np.r_[0.0, np.cumsum([quad(density, a, b)[0]
                                     for a, b in zip(edges[:-1], edges[1:])])]
        cdf = lambda q: np.interp(q * h, edges, mass / mass[-1])  # noqa: E731
        assert kstest(self.fractions(x, y, h, n, 1702), cdf).pvalue >= 0.01

    def test_ends_on_the_line(self):
        # a path that ends on the line hits it at the end of the step, one
        # that starts on it at the start
        f = engine._crossing_fraction(np.array([0.3, 0.0]), np.array([0.0, 0.2]),
                                      0.04, np.array([0.7, -1.1]),
                                      np.array([0.4, 0.9]))
        assert f.tolist() == [1.0, 0.0]


class TestValidation:
    def test_start_outside_domain(self):
        with pytest.raises(ValueError, match="inside"):
            run_batch(VerticalStrip(-1.0, 1.0), (1.5, 0.0), 10, SimParams())
        with pytest.raises(ValueError, match="inside"):
            simulate_exit(Rectangle(1.0, 1.0), (0.0, 2.0), SimParams())

    @pytest.mark.parametrize("domain, start", [
        (HalfPlane(), (math.nan, 1.0)),
        (HalfPlane(), (0.0, math.inf)),
        (VerticalStrip(-1.0, 1.0), (0.5, math.nan)),
        (UNIFORM_COMB, (0.5, math.nan)),
    ], ids=["half-plane-nan", "half-plane-inf", "strip-nan", "comb-nan"])
    @pytest.mark.parametrize("engine_name", ["EulerBridge", "WosTime"])
    def test_non_finite_start(self, domain, start, engine_name):
        params = SimParams(engine=engine_name, time_cap=100.0)
        with pytest.raises(ValueError, match="start point .* is not finite"):
            run_batch(domain, start, 1_000, params)
        with pytest.raises(ValueError, match="start point .* is not finite"):
            simulate_exit(domain, start, params)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 0, SimParams())

    def test_bad_params(self):
        with pytest.raises(ValueError, match="engine"):
            SimParams(engine="Exact")
        with pytest.raises(ValueError, match="step_h"):
            SimParams(step_h=-0.1)
        with pytest.raises(ValueError, match="time_cap"):
            SimParams(time_cap=0.0)
        with pytest.raises(ValueError, match="workers"):
            SimParams(workers=0)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None])
    @pytest.mark.parametrize("name", ["master_seed", "max_steps", "workers"])
    def test_params_refuse_non_integers(self, name, value):
        # A fractional or boolean seed would run as int(value) while the
        # report echoes the value given.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimParams(engine="WosTime", **{name: value})

    @pytest.mark.parametrize("name", ["step_h", "shell_eps", "time_cap"])
    def test_params_refuse_bool_floats(self, name):
        # True would run as 1.0 while the report echoes true
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            SimParams(engine="WosTime", **{name: True})

    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None])
    def test_batch_size_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), n, SimParams())

    def test_batch_size_takes_numpy_integers(self):
        result = run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), np.int64(3),
                           SimParams(engine="WosTime"))
        assert result.total == 3

    def test_params_take_numpy_integers(self):
        params = SimParams(master_seed=np.uint64(5), max_steps=np.int32(7),
                           workers=np.int64(2))
        assert (params.master_seed, params.max_steps, params.workers) == (5, 7, 2)

    def test_step_h_invariant_vs_domain(self):
        # gap 1 means step_h must stay below 1/4
        with pytest.raises(ValueError, match="step_h"):
            run_batch(UNIFORM_COMB, (0.5, 0.0), 10,
                      SimParams(step_h=0.5, master_seed=1))

    def test_shell_eps_invariant_vs_domain(self):
        with pytest.raises(ValueError, match="shell_eps"):
            run_batch(UNIFORM_COMB, (0.5, 0.0), 10,
                      SimParams(engine="WosTime", shell_eps=0.2, master_seed=1))
