import hashlib
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from combexit import series
from combexit.series import (
    build_disk_law,
    default_disk_law,
    disk_survival,
    strip_half_moment,
    strip_moment,
    theta0,
)
from strip_oracles import (
    _interval_moment_exact,
    _strip_moment_quadrature,
    _strip_survival_images,
    _strip_survival_spectral,
    odd_sine_half_moment,
    strip_survival,
)

# independently derived reference values (rational recursion / Dirichlet-beta
# sums / direct high-precision summation)
RECT_21 = 0.8902302005857929
MOMENT_HALF = 0.9305277754396651
MOMENT_3_HALVES = 1.2215285530117383
MOMENT_5_HALVES = 2.4997153357974438


def tb(a, b):
    """P(exit through top or bottom) from the center of (-a,a) x (-b,b):
    theta0 of the aspect ratio b / a evaluates it."""
    return theta0(b / a).p_top_bottom


def test_rect_square_is_half():
    assert tb(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_rect_frozen_values():
    assert tb(2.0, 1.0) == pytest.approx(RECT_21, abs=1e-12)
    assert tb(1.0, 2.0) == pytest.approx(1.0 - RECT_21, abs=1e-12)


def test_rect_tall_limit():
    vals = [tb(1.0, b) for b in (2.0, 5.0, 10.0, 50.0)]
    assert vals[-1] < 0.01
    assert all(x > y for x, y in zip(vals, vals[1:]))


@given(st.floats(0.3, 5.0), st.floats(0.3, 5.0))
@settings(max_examples=150, deadline=None)
def test_rect_side_roles_sum_to_one(a, b):
    total = tb(a, b) + tb(b, a)
    assert total == pytest.approx(1.0, abs=2e-12)


def test_theta0_unit_aspect():
    res = theta0(1.0)
    assert res.theta0 == pytest.approx(0.75, abs=1e-12)
    assert res.p_top_bottom == pytest.approx(0.5, abs=1e-12)
    assert res.theta0 == 1.0 - 0.5 * res.p_top_bottom
    assert res.remainder_bound < 1e-12


def test_theta0_flat_limit():
    assert theta0(1e-3).theta0 == pytest.approx(0.5, abs=1e-3)


def test_theta0_increasing_and_bounded():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [theta0(e).theta0 for e in grid]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(0.5 < v < 1.0 for v in vals)
    assert vals[3] > 0.75  # ell=2 beats the unit square


def test_theta0_saturates_at_extreme_aspect():
    # beyond ell ~ 23 the top/bottom probability underflows one ulp of 1 and
    # the factor rounds to exactly 1, the conservative side for certification;
    # below ell ~ 0.043 it rounds to exactly 1/2 for the mirror reason
    assert theta0(128.0).theta0 == 1.0
    assert theta0(0.01).theta0 == 0.5


def test_theta0_frozen_value():
    assert theta0(2.0).theta0 == pytest.approx(0.9451151002928964, abs=1e-12)


def test_theta0_validation():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            theta0(bad)


def test_survival_endpoints():
    assert strip_survival(0.0) == 1.0
    s10 = strip_survival(10.0)
    assert 0.0 < s10 <= (4.0 / math.pi) * math.exp(-math.pi**2 * 10 / 8) * (1 + 1e-9)
    with pytest.raises(ValueError):
        strip_survival(-0.1)
    with pytest.raises(ValueError):
        strip_survival([0.5, math.nan])


def test_survival_monotone_and_vectorized():
    t = np.linspace(0.0, 6.0, 301)
    s = strip_survival(t)
    assert s.shape == t.shape
    assert np.all(np.diff(s) <= 1e-15)
    assert np.array_equal(s, strip_survival(t))  # pure, bit-identical


def test_survival_representations_agree():
    # both expansions are accurate on a band around the crossover
    t = np.linspace(0.02, 0.3, 57)
    spectral = _strip_survival_spectral(t)
    images = _strip_survival_images(t)
    assert np.max(np.abs(spectral - images)) < 1e-13


def test_survival_integrates_to_mean():
    val, _ = quad(lambda t: strip_survival(t), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_survival_log_slope():
    rate = math.log(strip_survival(5.0)) - math.log(strip_survival(6.0))
    assert rate == pytest.approx(math.pi**2 / 8, abs=1e-6)


def test_integer_moments_exact():
    from fractions import Fraction

    assert _interval_moment_exact(1) == 1
    assert _interval_moment_exact(2) == Fraction(5, 3)
    assert _interval_moment_exact(3) == Fraction(61, 15)
    assert _interval_moment_exact(4) == Fraction(277, 21)
    assert strip_moment(2) == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert strip_moment(3.0) == pytest.approx(61.0 / 15.0, abs=1e-14)


def test_fractional_moments_frozen():
    assert strip_moment(0.5) == pytest.approx(MOMENT_HALF, abs=1e-9)
    assert strip_moment(1.5) == pytest.approx(MOMENT_3_HALVES, abs=1e-9)
    assert strip_moment(2.5) == pytest.approx(MOMENT_5_HALVES, abs=1e-9)


def test_quadrature_path_matches_recursion():
    # the quadrature oracle against the closed form at integer orders
    for p in (1.0, 2.0):
        quad_val = _strip_moment_quadrature(p)
        assert quad_val == pytest.approx(strip_moment(p), abs=1e-9)


def test_moment_monotone_in_p():
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    vals = [strip_moment(p) for p in grid]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_moment_validation():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            strip_moment(bad)


def test_closed_form_matches_quadrature_oracle():
    for p in (0.1, 0.25, 0.5, 0.75, 1.5, 2.5, 5, 7.3, 12, 30.5, 60.5):
        oracle = _strip_moment_quadrature(p)
        assert strip_moment(p) == pytest.approx(oracle, rel=1e-13, abs=0.0), p


def test_closed_form_matches_rational_oracle():
    for k in [*range(1, 31), 170, 177]:
        exact = float(_interval_moment_exact(k))
        assert strip_moment(k) == pytest.approx(exact, rel=1e-13, abs=0.0), k


def test_half_moment_on_the_unit_strip():
    # (0, 2) started at 1 is (-1, 1) started at 0
    assert strip_half_moment(1.0, 2.0) == pytest.approx(
        strip_moment(0.5), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a, width", [
    *((1.0, float(w)) for w in range(3, 66)), (2.7, 17.3), (5.5, 12.0)])
def test_half_moment_matches_odd_sine_series(a, width):
    # a bound below the series value, by less than the series' own remainder
    # plus the few 1e-14 the million-term sum itself rounds off
    oracle, remainder = odd_sine_half_moment(a, width)
    value = strip_half_moment(a, width)
    assert oracle - remainder - 1e-13 <= value <= oracle + remainder + 1e-13


def test_half_moment_increases_in_the_width():
    widths = sorted({*np.linspace(2.0, 200.0, 397).tolist(),
                     *(1.0 + 2.0**k for k in range(1, 1024))})
    values = [strip_half_moment(1.0, w) for w in widths]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_half_moment_validation():
    for a, width in ((0.0, 2.0), (1.5, 2.0), (-1.0, 3.0), (1.0, math.inf),
                     (math.nan, 2.0), (1e-300, 1e10)):
        with pytest.raises(ValueError):
            strip_half_moment(a, width)


def test_moment_overflow_edge():
    # E[tau^p] passes the largest float between orders 177.81 and 177.82,
    # for fractional and integer orders alike
    assert math.isfinite(strip_moment(177.81))
    for p in (177.82, 177.9, 178, 178.5, 1e308):
        with pytest.raises(ValueError, match=re.escape(f"moment order {p:g} ")):
            strip_moment(p)


def test_disk_survival_shape():
    assert disk_survival(0.01) == pytest.approx(1.0, abs=1e-12)
    t = np.linspace(0.05, 4.0, 80)
    s = disk_survival(t)
    assert np.all(np.diff(s) < 0)
    # leading eigenvalue controls the tail
    lam1 = 0.5 * 2.404825557695773**2
    rate = math.log(disk_survival(3.0)) - math.log(disk_survival(4.0))
    assert rate == pytest.approx(lam1, abs=1e-9)


def test_disk_table_build():
    table = build_disk_law()
    assert len(table.u_knots) >= 4096
    assert table.mean_error < 5e-6
    assert table.second_moment_error < 5e-5
    # seam between interpolant and analytic tail is continuous
    lo = float(table.times_from_uniform(table.u_cut - 1e-12))
    hi = float(table.times_from_uniform(table.u_cut + 1e-12))
    assert abs(hi - lo) < 1e-6


# sha256 over every field of ``build_disk_law()`` except
# ``second_moment_error`` (see ``table_digest``): every field that sampling
# reads, and the mean's residual.  Recorded with numpy 2.4 on x86-64 with
# AVX-512, like the engine's bit-identity pins, at the commit whose build
# still checked the second moment on a 200,001-point trapezoid grid: the
# exact integral changed no field it covers.  Record it afresh from a
# known-good commit on another platform before trusting a mismatch.
DISK_TABLE_DIGEST = "f37bc49202081a1e23426957214b7bebec976fa64350941ceff733f4dda07819"
# The table's second-moment residual, from the exact integral of the
# squared cubics; pinned on its own, as it changed with that integral.
DISK_SECOND_MOMENT_ERROR = 4.1011638529653283e-13


def table_digest(table):
    digest = hashlib.sha256()
    for name in ("u_knots", "t_knots", "cubics", "guide", "guide_knots"):
        arr = getattr(table, name)
        for part in (name, str(arr.dtype), str(arr.shape)):
            digest.update(part.encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    for name in ("u_cut", "t_cut", "lam1", "log_c1", "mean_error"):
        digest.update(name.encode())
        digest.update(struct.pack("<d", getattr(table, name)))
    return digest.hexdigest()


def test_disk_table_bits_pinned():
    # the build evaluates its knots in blocks and its moments as exact
    # integrals; every sampling field keeps the bits of the whole-array build
    assert table_digest(build_disk_law()) == DISK_TABLE_DIGEST


def test_disk_table_second_moment_error_pinned():
    assert build_disk_law().second_moment_error == DISK_SECOND_MOMENT_ERROR


def _gauss_legendre_moments(x, cubics):
    """Integrals of the piecewise cubic and of its square by a 4-point
    Gauss-Legendre rule per interval, exact for polynomials of degree 7."""
    nodes, weights = np.polynomial.legendre.leggauss(4)
    h = np.diff(x)[:, None]
    s = 0.5 * h * (nodes + 1.0)
    c0, c1, c2, c3 = (col[:, None] for col in cubics.T)
    p = ((c0 * s + c1) * s + c2) * s + c3
    return (float(np.sum(0.5 * h * weights * p)),
            float(np.sum(0.5 * h * weights * p * p)))


def test_disk_body_moments_match_gauss_legendre():
    table = default_disk_law()
    rng = np.random.default_rng(5)
    random_knots = np.cumsum(rng.uniform(0.05, 1.0, 65))
    for x, cubics in ((table.u_knots, table.cubics),
                      (random_knots, rng.uniform(-3.0, 3.0, (64, 4)))):
        exact = series._body_moments(x, cubics)
        oracle = _gauss_legendre_moments(x, cubics)
        assert exact == pytest.approx(oracle, rel=1e-12)
    # the table's second moment is the body's plus the exponential tail's
    lam1, eps = table.lam1, 1.0 - series._DISK_U_CUT
    big_l = table.log_c1 - math.log(eps)
    tail_second = eps * (big_l * big_l + 2.0 * big_l + 2.0) / (lam1 * lam1)
    body_second = _gauss_legendre_moments(table.u_knots, table.cubics)[1]
    assert abs(body_second + tail_second - 0.375) == pytest.approx(
        table.second_moment_error, abs=1e-15)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestDiskLawMatchesScipy:
    """The disk law ships its Bessel constants and a numpy port of scipy's
    PCHIP; these rebuild both with scipy and compare them bit for bit."""

    def test_bessel_constants(self):
        from scipy.special import j1, jn_zeros

        from combexit import series

        zeros = jn_zeros(0, 96)
        assert np.array_equal(bits(series._J0_ZEROS), bits(zeros))
        assert np.array_equal(bits(series._J1_AT_ZEROS), bits(j1(zeros)))

    def test_pchip_coefficients(self):
        from scipy.interpolate import PchipInterpolator

        table = default_disk_law()
        ref = PchipInterpolator(table.u_knots, table.t_knots).c
        assert np.array_equal(bits(table.cubics.T), bits(ref))

    @staticmethod
    def scipy_times(table):
        """``table.times_from_uniform`` through scipy's own interpolant."""
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(table.u_knots, table.t_knots, extrapolate=False)

        def times(u):
            body = interp(np.clip(u, table.u_knots[0], table.u_cut))
            tail = (table.log_c1 - np.log1p(-np.minimum(u, 1.0 - 1e-17))) / table.lam1
            return np.where(u <= table.u_cut, body, tail)

        return times

    def test_times_from_uniform(self):
        table = default_disk_law()
        scipy_times = self.scipy_times(table)
        rng = np.random.default_rng(2024)
        for _ in range(4):  # 4M uniforms in slices of 1M
            u = rng.random(1_000_000)
            assert np.array_equal(bits(table.times_from_uniform(u)),
                                  bits(scipy_times(u)))
        knots, seam = table.u_knots, np.array([table.u_cut])
        for u in (knots, np.nextafter(knots, 0.0), np.nextafter(knots, 1.0),
                  np.nextafter(seam, 0.0), seam, np.nextafter(seam, 1.0),
                  np.array([0.0, 1.0 - 2**-53])):
            assert np.array_equal(bits(table.times_from_uniform(u)),
                                  bits(scipy_times(u)))

    def test_guide_lookup_at_cell_edges_and_in_the_crowded_cell(self):
        # The guide table finds each interval from the cell of 2**-14 that
        # holds u; it must pick the interval searchsorted picks at every
        # cell edge, on either side of it, and in the lowest cell, which
        # holds about a thousand knots and is searched.
        table = default_disk_law()
        scipy_times = self.scipy_times(table)
        edges = np.arange(2**14 + 1) / 2**14
        for u in (edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)):
            u = u[(u >= 0.0) & (u < 1.0)]
            assert np.array_equal(bits(table.times_from_uniform(u)),
                                  bits(scipy_times(u)))
        low = np.random.default_rng(14).random(1_000_000) * 2**-14
        assert np.array_equal(bits(table.times_from_uniform(low)),
                              bits(scipy_times(low)))
        for u in (0.0, 2**-14, np.nextafter(2**-14, 0.0), float(low[0]), 0.5):
            assert table.times_from_uniform(u) == scipy_times(np.array([u]))[0]
        # NaN is no cell: it maps to NaN as scipy's interpolant does
        assert np.isnan(table.times_from_uniform([0.5, np.nan])).tolist() == [False, True]

    def test_scalar_input(self):
        table = default_disk_law()
        u = 0.3
        assert np.ndim(table.times_from_uniform(u)) == 0
        assert table.times_from_uniform(u) == table.times_from_uniform([u])[0]


def test_disk_time_at_u_one_is_finite():
    table = default_disk_law()
    top = float(table.times_from_uniform(np.nextafter(1.0, 0.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_one = float(table.times_from_uniform(1.0))
    assert math.isfinite(at_one) and at_one == top


def test_disk_quantiles_monotone():
    table = default_disk_law()
    u = np.sort(np.random.default_rng(11).random(5000))
    times = table.times_from_uniform(u)
    assert np.all(np.diff(times) >= 0)
    assert np.all(times >= 0)


def test_disk_sampling_moments():
    table = default_disk_law()
    draws = table.times_from_uniform(np.random.default_rng(5).random(200_000))
    n = len(draws)
    mean_se = draws.std() / math.sqrt(n)
    assert draws.mean() == pytest.approx(0.5, abs=4 * mean_se)
    sq = draws**2
    sq_se = sq.std() / math.sqrt(n)
    assert sq.mean() == pytest.approx(0.375, abs=4 * sq_se)


@given(st.floats(0.05, 20.0))
@settings(max_examples=100, deadline=None)
def test_theta0_range_property(ell):
    v = theta0(ell).theta0
    assert 0.5 < v < 1.0
