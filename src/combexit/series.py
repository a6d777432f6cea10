"""Series kernels for planar exit-time laws.

Four families of deterministic evaluations live here:

* harmonic measure of the horizontal sides of a centered rectangle, and the
  per-passage survival factor ``theta0`` built from it;
* the moments of the exit time of one-dimensional Brownian motion from
  ``(-1, 1)`` started at 0, for every order from one closed form in the
  Gamma and Dirichlet beta functions, to a stated relative accuracy;
* a certified lower bound on the half-moment of that exit time from any
  interval and start, from one closed form in Clausen's function;
* the exit-time law of planar Brownian motion from the unit disk, tabulated
  once for inverse-transform sampling in the walk-on-spheres engine.  Its
  eigenfunction series reads 96 Bessel zeros shipped as literals, and its
  table is a numpy port of scipy's PCHIP interpolant evaluated in scipy's
  summation order, so the walk-on-spheres path never imports scipy and
  draws exactly what scipy's interpolant would give.

No module of the package imports scipy; the tests use it to rebuild the
shipped constants and as an independent oracle.  The numerics are fixed:
the rectangle series alternates with a certified remainder bound below
1e-12, which it reaches in at most 10 terms; the beta series is
accelerated with a truncation error far below rounding; the disk law is
tabulated on at least 4096 knots up to the CDF value 0.999 from the
96-mode eigenfunction series.  Everything is pure: same inputs, same bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Theta0Result",
    "theta0",
    "strip_moment",
    "strip_half_moment",
    "disk_survival",
    "DiskLawTable",
    "build_disk_law",
    "default_disk_law",
]


# Certified absolute accuracy of the rectangle series.
_RECT_TOLERANCE = 1e-12


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


def _rect_series(a: float, b: float) -> tuple[float, float]:
    """Direct series for the top/bottom exit probability, orientation a >= b.

    Terms alternate with strictly decreasing magnitude, so the remainder
    after K terms is at most (4/pi) * |term_K|, itself below
    (8/pi) * exp(-x_K) / (2K+1).  Summing K = ceil(L / (2 step) + 1/2)
    terms, with L = ln(8 / (pi 1e-12)), puts the returned bound below
    1e-12; as a >= b gives step >= pi/2, K is at most 10.
    """
    step = math.pi * a / (2.0 * b)
    need = math.log(8.0 / (math.pi * _RECT_TOLERANCE)) / (2.0 * step)
    terms = max(2, math.ceil(need + 0.5))
    k = np.arange(terms)
    with np.errstate(over="ignore"):  # ell near 0: inf, where sech is 0
        x = (2 * k + 1) * step
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    total = float(np.sum(signs * _sech(x) / (2 * k + 1)))
    x_next = (2 * terms + 1) * step
    bound = (8.0 / math.pi) * math.exp(-x_next) / (2 * terms + 1)
    return 1.0 - (4.0 / math.pi) * total, bound


def _rect_tb_with_bound(a: float, b: float) -> tuple[float, float]:
    # The defining series converges like exp(-pi*a/b); for the tall
    # orientation evaluate the rotated rectangle and use that the two side
    # pairs exhaust the boundary.
    if b <= a:
        value, bound = _rect_series(a, b)
    else:
        other, bound = _rect_series(b, a)
        value = 1.0 - other
    return min(max(value, 0.0), 1.0), bound


def theta0(ell: float) -> Theta0Result:
    """Survival factor of a single passage across a gap of aspect ratio ell.

    For ell beyond roughly 23 the top/bottom exit probability drops under one
    ulp of 1 and the factor rounds to exactly 1.0; downstream certification
    treats that as "no geometric decay", the conservative reading.
    """
    if not (ell > 0) or not math.isfinite(ell):
        raise ValueError("aspect ratio ell must be positive and finite")
    p_tb, bound = _rect_tb_with_bound(1.0, ell)
    return Theta0Result(
        ell=float(ell),
        p_top_bottom=p_tb,
        theta0=1.0 - 0.5 * p_tb,
        remainder_bound=0.5 * bound,
    )


# Terms of the accelerated Dirichlet beta series: its relative truncation
# error is at most 2 / (3 + sqrt(8))**24 < 1e-18, far below rounding.
_BETA_TERMS = 24

# E[tau^p] passes the largest float between orders 177.81 and 177.82; orders
# from 178 on are refused before any work.
_FIRST_OVERFLOWING_ORDER = 178


def _dirichlet_beta(s: float) -> float:
    """beta(s) = sum_k (-1)^k / (2k+1)^s for s >= 1.

    The terms are the moments of a positive measure on [0, 1], so algorithm 1
    of Cohen, Rodriguez Villegas & Zagier (Exp. Math. 9, 2000) sums them with
    relative error at most 2 / (3 + sqrt(8))**n after n terms.
    """
    d = (3.0 + math.sqrt(8.0)) ** _BETA_TERMS
    d = (d + 1.0 / d) / 2.0
    b, c, total = -1.0, -d, 0.0
    for k in range(_BETA_TERMS):
        c = b - c
        total += c * (2 * k + 1) ** -s
        b *= (k + _BETA_TERMS) * (k - _BETA_TERMS) / ((k + 0.5) * (k + 1))
    return total / d


def strip_moment(p: float) -> float:
    """E[tau^p] for the exit time of BM from (-1,1) started at 0.

    Integrating the spectral survival series sum_k w_k exp(-lambda_k t), with
    w_k = (4/pi)(-1)^k/(2k+1) and lambda_k = (2k+1)^2 pi^2/8, term by term
    gives, for every p > 0,

        E[tau^p] = (4/pi) Gamma(p+1) (8/pi^2)^p beta(2p+1),

    with beta the Dirichlet beta function (p = 1 gives 1, p = 2 gives 5/3,
    and p = 1/2 gives 4 sqrt(2) G / pi^(3/2), G Catalan's constant).
    Against a 40-digit evaluation at 1,703 orders in (0, 177.8] the relative
    error is at most 7.3e-15.  It grows like p * 4e-17, from rounding 8/pi^2
    before raising it to the power p, plus a few ulp from ``math.gamma`` and
    the products, so integer orders can miss their rational values by a few
    ulp: p = 1 gives 1.0000000000000002.

    Orders whose moment overflows a float (from about 177.81 on) raise
    ValueError.
    """
    if not (p > 0) or not math.isfinite(p):
        raise ValueError("moment order must satisfy 0 < p < infinity")
    value = math.inf
    if p < _FIRST_OVERFLOWING_ORDER:
        value = ((4.0 / math.pi) * _dirichlet_beta(2.0 * p + 1.0)
                 * (8.0 / math.pi**2) ** p)
        # Gamma(p+1) = p (p-1) ... x Gamma(x) for p >= 1: the decrements are
        # exact, whereas p + 1 can round (near p = 127 by 2**-46, which moves
        # Gamma by 7e-14), and math.gamma overflows past 171.6.  Below 1,
        # p + 1 rounds by at most 2**-53 and p Gamma(p) would overflow for
        # the tiniest p.
        if p < 1.0:
            value *= math.gamma(p + 1.0)
        else:
            x = p
            value *= x
            while x > 170.0:
                x -= 1.0
                value *= x
            value *= math.gamma(x)
    if math.isinf(value):
        raise ValueError(
            f"moment order {p:g} is out of range: E[tau^p] overflows a "
            "float for orders above about 177.81"
        )
    return value


_EPS = 2.0**-53  # unit roundoff of a double


def _clausen_coefficients(n: int) -> tuple[float, ...]:
    """|B_2k| / (2k (2k+1)!) for k = 1..n, each one correctly rounded
    division of integers: |B_2k| = 2k T_k / (4^k (4^k - 1)), with the
    tangent numbers T_k from Brent & Harvey's algorithm TangentNumbers
    ("Fast computation of Bernoulli, tangent and secant numbers", 2013)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[k] / (4**k * (4**k - 1) * math.factorial(2 * k + 1))
                 for k in range(1, n + 1))


# For 0 < x <= pi the 28th term is below 2e-19.
_CLAUSEN_COEFFS = _clausen_coefficients(28)


def _clausen(x: float) -> tuple[float, float]:
    """Cl2(x) = sum_k sin(kx)/k^2 for 0 < x <= pi, and a bound on its error.

    Cl2(x) = x - x ln x + sum_k |B_2k| x^(2k+1) / (2k (2k+1)!), whose terms
    are positive, each below (x / 2 pi)^2 <= 1/4 times the one before (as
    |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^(2k)), so the omitted tail is at most
    a third of the last term kept.  The sum is correctly rounded
    (``math.fsum``), and each part carries at most 3 roundings, counting
    the logarithm and the power as one ulp each.
    """
    x_log_x = x * math.log(x)
    terms = [c * x ** (2 * k + 1) for k, c in enumerate(_CLAUSEN_COEFFS, start=1)]
    value = math.fsum([x, -x_log_x, *terms])
    rounding = _EPS * (abs(value) + 3.0 * (abs(x_log_x) + math.fsum(terms)))
    return value, rounding + terms[-1] / 3.0


def strip_half_moment(a: float, width: float) -> float:
    """Certified lower bound on E_a[tau^(1/2)] for BM on (0, width) from a.

    At p = 1/2 the odd-sine series of E_a[tau^p], the sum over odd n of
    (4 / n pi) sin(n theta) Gamma(p+1) (2 width^2 / n^2 pi^2)^p with
    theta = pi a / width, sums term by term to

        (2 sqrt 2 width / pi^(3/2)) D(theta),  D = Cl2(theta) - Cl2(2 theta)/4,

    in Clausen's function Cl2.  With a <= width / 2 (by symmetry a start
    past the midpoint has the value at width - a), 2 theta <= pi, and the
    value is evaluated as (2 sqrt 2 a / sqrt pi) D(theta) / theta, which
    cannot overflow.  Subtracted from it are the scaled ``_clausen`` error
    bounds plus 12 roundings of the value (3 from theta, 6 from the
    prefactor, 2 from the difference and the product, 1 spare).  Rounding
    theta moves the value by at most theta's relative
    error: D' = ln cot(theta/2) / 2 is positive and decreasing, so the
    relative sensitivity of D / theta, theta D'/D - 1, lies in (-1, 0].
    The total is 2.0e-15 at width 2 and 8.3e-15 at width 65, from start 1.

    Raises ValueError unless 0 < a <= width / 2 and theta is a normal float.
    """
    if not 0.0 < a <= 0.5 * width:
        raise ValueError("start a must satisfy 0 < a <= width / 2")
    theta = math.pi * a / width
    if not theta >= sys.float_info.min:
        raise ValueError(f"start {a:g} is too close to an end of (0, {width:g})")
    c1, e1 = _clausen(theta)
    c2, e2 = _clausen(2.0 * theta)
    scale = 2.0 * math.sqrt(2.0) * a / (math.sqrt(math.pi) * theta)
    value = scale * (c1 - 0.25 * c2)
    return value - (scale * (e1 + 0.25 * e2) + 12.0 * _EPS * value)


# ---------------------------------------------------------------------------
# unit-disk exit-time law


# The first 96 positive zeros j_k of the Bessel function J0 and the values
# J1(j_k), exactly as ``scipy.special.jn_zeros(0, 96)`` and
# ``scipy.special.j1`` give them (``repr`` literals round-trip every bit),
# so the disk law needs no scipy.
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998, 58.90698392608094,
    62.048469190227166, 65.18996480020687, 68.3314693298568, 71.47298160359374,
    74.61450064370183, 77.75602563038805, 80.89755587113763, 84.0390907769382,
    87.18062984364116, 90.32217263721049, 93.46371878194478, 96.60526795099626,
    99.7468198586806, 102.88837425419479, 106.02993091645162,
    109.17148964980538, 112.3130502804949, 115.45461265366694,
    118.59617663087253, 121.73774208795096, 124.87930891323295,
    128.02087700600833, 131.1624462752139, 134.30401663830546,
    137.44558802028428, 140.58716035285428, 143.72873357368974,
    146.87030762579664, 150.01188245695477, 153.15345801922788,
    156.29503426853353, 159.43661116426316, 162.57818866894667,
    165.71976674795502, 168.86134536923583, 172.0029245030782,
    175.14450412190274, 178.28608420007376, 181.42766471373105,
    184.5692456406387, 187.71082696004936, 190.85240865258152,
    193.99399070010912, 197.1355730856614, 200.2771557933324,
    203.41873880819864, 206.56032211624446, 209.70190570429406,
    212.8434895599495, 215.98507367153402, 219.12665802804057,
    222.2682426190843, 225.40982743485932, 228.5514124660988,
    231.69299770403853, 234.83458314038324, 237.97616876727565,
    241.11775457726802, 244.2593405632957, 247.40092671865284,
    250.54251303696995, 253.6840995121931, 256.82568613856444,
    259.9672729106045, 263.1088598230955, 266.2504468710659,
    269.39203404977604, 272.5336213547049, 275.67520878153744,
    278.8167963261531, 281.9583839846149, 285.09997175315954,
    288.2415596281877, 291.3831476062552, 294.5247356840649,
    297.66632385845895, 300.80791212641117,
])
_J1_AT_ZEROS = np.array([
    0.5191474972894669, -0.34026480655836827, 0.271452299928382,
    -0.23245983136472478, 0.20654643307799597, -0.18772880304043946,
    0.17326589422922983, -0.16170155068925002, 0.15218121377059457,
    -0.14416597768637315, 0.13729694340850299, -0.13132462666866793,
    0.12606949712727342, -0.12139862477175016, 0.11721119889066538,
    -0.11342919261642984, 0.10999114304627802, -0.10684788825471286,
    0.1039595728693621, -0.1012934989339433, 0.09882255380119995,
    -0.09652404046467991, 0.09437879398467641, -0.09237050482355331,
    0.09048519416295768, -0.0887108024409698, 0.0870368633240976,
    -0.08545424291091486, 0.08395492928345757, -0.08253186130830983,
    0.08117878831953207, -0.07989015430874276, 0.07866100171930493,
    -0.07748689103965989, 0.07636383321829138, -0.07528823255205501,
    0.0742568381822715, -0.07326670270620797, 0.07231514670236977,
    -0.07139972819623201, 0.07051821627333571, -0.06966856819003345,
    0.06884890944684943, -0.06805751638168503, 0.06729280091473991,
    -0.06655329713771117, 0.0658376494894271, -0.065144602300793,
    0.06447299052550669, -0.06382173150081485, 0.063189817605714,
    -0.06257630970331138, 0.06198033127024816, -0.06140106312970013,
    0.06083773871596136, -0.060289639808346895, 0.059756092680416394,
    -0.059236464617564454, 0.0587301607620443, -0.058236621249651344,
    0.05775531860672829, -0.05728575537997613, 0.05682746197485656,
    -0.05637999468123287, 0.055942933867378315, -0.05551588232564262,
    0.05509846375495184, -0.05469032136696416, 0.054291116604146684,
    -0.05390052795930568, 0.05351824988721487, -0.05314399179996981,
    0.0527774771385606, -0.05241844251392233, 0.052066636911401065,
    -0.05172182095317582, 0.051383766213711116, -0.05105225458379304,
    0.05072707767912493, -0.050408036289839954, 0.05009493986762599,
    -0.0497876060474634, 0.049485860201248136, -0.04918953502081814,
    0.04889847012812102, -0.0486125117104598, 0.04833151217893187,
    -0.04805532984833819, 0.04778382863698613, -0.04751687778494051,
    0.04725435158939828, -0.046996129155970165, 0.04674209416475137,
    -0.046492134650153304, 0.046246142793549716, -0.04600401472786514,
])


# Decay rates j_k^2 / 2 and weights 2 / (j_k J1(j_k)) of the 96 modes.
_DISK_RATES = 0.5 * _J0_ZEROS * _J0_ZEROS
_DISK_COEFFS = 2.0 / (_J0_ZEROS * _J1_AT_ZEROS)
_SURVIVAL_ROWS = 512


def disk_survival(t):
    """Survival function of the unit-disk exit time from the center.

    The eigenfunction series needs ~30 modes at t = 0.01 and fewer later;
    its 96 modes keep full accuracy on t >= 0.01, which is all the table
    builder evaluates (below that the CDF is under 1e-16).
    """
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(arr.shape)
    # the (times, modes) matrix is built _SURVIVAL_ROWS rows at a time
    for lo in range(0, arr.size, _SURVIVAL_ROWS):
        block = arr[lo:lo + _SURVIVAL_ROWS]
        out[lo:lo + block.size] = np.exp(-np.outer(block, _DISK_RATES)) @ _DISK_COEFFS
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, limited to keep shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_cubics(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The PCHIP interpolant (Fritsch & Carlson 1980) of values ``y`` at
    strictly increasing knots ``x``, as an ``(n - 1, 4)`` array whose row
    ``i`` holds the coefficients of ``s**3, s**2, s, 1`` with
    ``s = u - x[i]`` on ``[x[i], x[i+1]]``.

    A numpy port of scipy's ``PchipInterpolator`` (``_find_derivatives``,
    ``_edge_case`` and the ``CubicHermiteSpline`` coefficients) in scipy's
    order of operations, so the rows equal the columns of its ``c`` bit for
    bit.
    """
    hk = np.diff(x)
    mk = np.diff(y) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    dk = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    return np.stack([t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]], axis=1)


# The guide table (Chen & Asau 1974) cuts [0, 1) into this many equal
# cells.  Four cells per knot leave five cells in six without a knot and
# most of the rest with one; a power of two makes ``u * _GUIDE_CELLS`` exact,
# so its floor is the cell ``u`` lies in, and the table (128 KiB of int64)
# stays in cache.
_GUIDE_CELLS = 1 << 14


def _guide(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The guide table of knots ``x``: ``(guide, guide_knots)``.

    ``guide[c]`` is the number of knots of ``x[:-1]`` at or below the cell
    edge ``c / _GUIDE_CELLS``, or the sentinel ``len(x)`` for a cell that
    holds two or more of them; ``guide_knots`` is ``x[:-1]`` followed by two
    infinities, so ``guide_knots[guide[c]]`` is the first knot above the
    cell edge (infinite past the last knot and for the sentinel).
    """
    knots = x[:-1]
    edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS
    rank = np.searchsorted(knots, edges, "right")
    guide = np.where(np.diff(rank) > 1, x.size, rank[:-1])
    return guide, np.append(knots, [np.inf, np.inf])


def _eval_cubics(x: np.ndarray, cubics: np.ndarray, u,
                 guide: np.ndarray, guide_knots: np.ndarray) -> np.ndarray:
    """The piecewise cubic ``cubics`` on knots ``x`` at an array of points
    ``u`` inside ``[x[0], x[-1]]`` (and below 1), summed as scipy's ``PPoly``
    does: the interval ``i`` starts at the last knot at or below ``u`` other
    than ``x[-1]`` (the last interval holds ``x[-1]``), and with
    ``s = u - x[i]`` the sum is ``c3 + c2*s``, then ``+ c1*(s*s)``, then
    ``+ c0*((s*s)*s)``.

    The interval comes from the guide table (``_guide``) and always equals
    ``searchsorted(x[:-1], u, "right") - 1``: a cell holding at most one
    knot gives the rank at its lower edge plus one if ``u`` reached the
    first knot above that edge, and only a crowded cell searches.
    """
    rank = guide[(u * _GUIDE_CELLS).astype(np.intp)]
    rank += u >= guide_knots[rank]
    crowded = rank == x.size
    if crowded.any():
        rank[crowded] = np.searchsorted(x[:-1], u[crowded], "right")
    i = rank - 1
    s = u - x[i]
    c = cubics.take(i, axis=0)  # several times faster than cubics[i]
    out = c[..., 3] + c[..., 2] * s
    z = s * s
    out += c[..., 1] * z
    z *= s
    out += c[..., 0] * z
    return out


@dataclass(frozen=True, eq=False)
class DiskLawTable:
    """Inverse-CDF table for the unit-disk exit time.

    The body of the law is the PCHIP interpolant (monotone cubic) of the
    quantiles ``t_knots`` at CDF values ``u_knots``, stored as ``cubics``
    (see ``_pchip_cubics``) and evaluated in scipy's summation order, so
    every draw equals what scipy's ``PchipInterpolator`` gives, without
    importing scipy.  Beyond ``u_cut`` the law is single-mode exponential
    to machine precision and is inverted analytically.  ``mean_error`` and
    ``second_moment_error`` are the distances of the table's own law from
    the exact moments 1/2 and 3/8: the body's moments are exact integrals
    of the cubics and the tail's are closed forms, so they measure the
    interpolation error of the table (6.2e-14 and 4.1e-13), not the error
    of a quadrature.

    ``guide`` and ``guide_knots`` (see ``_guide``) find the interval of a
    uniform in O(1): a guide table over 2**14 equal cells of [0, 1), exact
    for every input (the interval ``searchsorted`` would give), with a
    binary search only in the cells that hold two or more knots.
    """

    u_knots: np.ndarray
    t_knots: np.ndarray
    cubics: np.ndarray
    guide: np.ndarray
    guide_knots: np.ndarray
    u_cut: float
    t_cut: float
    lam1: float
    log_c1: float
    mean_error: float
    second_moment_error: float

    def times_from_uniform(self, u):
        """Map uniform(0,1) draws to exit-time draws (unit radius)."""
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 0:
            return self.times_from_uniform(arr[None])[0]
        # fmax sends NaN to the first knot, so the guide never indexes with
        # it, and the tail below maps it to NaN
        body_u = np.fmin(np.fmax(arr, self.u_knots[0]), self.u_cut)
        out = _eval_cubics(self.u_knots, self.cubics, body_u,
                           self.guide, self.guide_knots)
        tail = ~(arr <= self.u_cut)
        if tail.any():
            # clamp at the largest double below 1, np.nextafter(1.0, 0.0), so
            # u = 1 maps to a finite time
            top = np.minimum(arr[tail], 1.0 - 2**-53)
            out[tail] = (self.log_c1 - np.log1p(-top)) / self.lam1
        return out


# The disk-law table: at least this many knots, from t = _DISK_T_LO up to
# the CDF value _DISK_U_CUT, past which the law is inverted analytically.
_DISK_KNOTS = 4096
_DISK_U_CUT = 0.999
_DISK_T_LO = 0.01


def _body_moments(x: np.ndarray, cubics: np.ndarray) -> tuple[float, float]:
    """The integrals of the piecewise cubic ``cubics`` on knots ``x`` and of
    its square over ``[x[0], x[-1]]``, exactly up to rounding.

    On interval ``i`` of width ``h`` the cubic is
    ``p(s) = c0 s**3 + c1 s**2 + c2 s + c3``, so the integral of ``p`` over
    ``[0, h]`` is a polynomial of degree 4 in ``h`` and that of ``p**2`` one
    of degree 7; both are summed by Horner's rule, one row per interval.
    """
    h = np.diff(x)
    c0, c1, c2, c3 = cubics.T
    first = float(np.sum(((c0 * h / 4.0 + c1 / 3.0) * h + c2 / 2.0) * h * h
                         + c3 * h))
    second = float(np.sum(
        (((((c0 * c0 * h / 7.0 + c0 * c1 / 3.0) * h
            + (c1 * c1 + 2.0 * c0 * c2) / 5.0) * h
           + (c0 * c3 + c1 * c2) / 2.0) * h
          + (c2 * c2 + 2.0 * c1 * c3) / 3.0) * h
         + c2 * c3) * h * h + c3 * c3 * h))
    return first, second


def build_disk_law() -> DiskLawTable:
    """Tabulate the inverse CDF of the unit-disk exit time and validate it.

    The table has at least 4096 knots (4285) on [0.01, t_cut], where the CDF
    reaches 0.999.  The mean and second moment of the law the table samples
    are exact (``_body_moments`` for the cubics, closed forms for the
    tail); raises RuntimeError if they miss 1/2 and 3/8 by more than 5e-6
    and 5e-5.
    """
    lam1, c1 = float(_DISK_RATES[0]), float(_DISK_COEFFS[0])
    log_c1 = math.log(c1)
    t_cut = (log_c1 - math.log1p(-_DISK_U_CUT)) / lam1
    # CDF values below float resolution collapse into flats (and can even
    # wobble backwards by one ulp) near t_lo; knots there are dropped so the
    # interpolant is well posed. Events that tiny never occur at
    # double-precision uniform granularity.  Oversampling by an eighth
    # leaves 4285 of 4608 knots.
    t = np.geomspace(_DISK_T_LO, t_cut, _DISK_KNOTS + _DISK_KNOTS // 8)
    t[-1] = t_cut
    u = 1.0 - disk_survival(t)
    running = np.maximum.accumulate(u)
    keep = np.concatenate(([True], u[1:] > running[:-1]))
    u, t = u[keep], t[keep]
    cubics = _pchip_cubics(u, t)
    guide, guide_knots = _guide(u)

    eps = 1.0 - _DISK_U_CUT
    big_l = log_c1 - math.log(eps)
    tail_mean = eps * (big_l + 1.0) / lam1
    tail_second = eps * (big_l * big_l + 2.0 * big_l + 2.0) / (lam1 * lam1)
    body_mean, body_second = _body_moments(u, cubics)
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
        cubics=cubics,
        guide=guide,
        guide_knots=guide_knots,
        u_cut=float(u[-1]),
        t_cut=float(t[-1]),
        lam1=lam1,
        log_c1=log_c1,
        mean_error=mean_error,
        second_moment_error=second_error,
    )


_SHARED_TABLE: DiskLawTable | None = None


def default_disk_law() -> DiskLawTable:
    """Shared read-only table, built on first use."""
    global _SHARED_TABLE
    if _SHARED_TABLE is None:
        _SHARED_TABLE = build_disk_law()
    return _SHARED_TABLE
