"""Certification of finite exit-time moments for comb domains.

The certificate rests on a per-passage survival factor theta0 derived from
the comb's gap/height aspect ratio: each passage between neighboring slit
abscissas ends the excursion with probability at least 1 - theta0.  M_j is
the largest squared gap among the gap labels |n| <= j (``_passage_maxima``).

The passage strip.  Cut the path at its crossings of slit lines.  Passage
j (j = 0, 1, ...) starts on a slit line x_n and lasts until the path first
meets a neighboring line x_{n-1} or x_{n+1}, so it runs in the strip
(x_{n-1}, x_{n+1}), two gaps wide, whose half-width is at most
sqrt(M_{j+1}).  Passage j happens with probability at most theta0^j, and
by Brownian scaling its duration tau_j then has

    E[tau_j^p]  <=  M_{j+1}^p * m_p,    m_p = strip_moment(p),

the p-th exit-time moment of the unit strip (-1, 1) from its center.  For
p >= 1 Minkowski's inequality sums the passages:

    E[tau^p]^(1/p)  <=  m_p^(1/p) * sum_{j>=0} theta0^(j/p) * M_{j+1}.

For p < 1, ``E[.^p]^(1/p)`` is not a norm and Minkowski does not hold;
subadditivity of x^p gives instead

    E[tau^p]  <=  m_p * sum_{j>=0} theta0^j * M_{j+1}^p.

With ``a = min(p, 1)`` both are one rule: ``x -> E[x^p]^(a/p)`` is
subadditive, so

    E[tau^p]^(1/p)  <=  m_p^(1/p) * S^(1/a),
    S = sum_{j>=0} theta0^(j*a/p) * M_{j+1}^a,

and ``bound_on_moment_root`` is that number (window partial sum plus a
certified tail).  On the uniform comb (unit gaps and heights, factor 0.75
from ``check_refined_unit``) it reads 9.64 at p = 2 and 13.85 at p = 1/2.
The terms of S are the a-th powers of those of sum theta0^(j/p) M_{j+1},
so both series converge under the same condition (a ratio test reads
theta0^(1/p) times the growth of M_j), and finiteness of E[tau^p] follows
whenever it holds.  The checker decides convergence from the growth class
of the maxima M_j, which it reads from the comb's generator alone
(``_growth_class``): bounded for uniform gaps and for polynomial gaps of
degree at most 1, polynomial above degree 1 (the tail sums the generator's
own gaps), geometric for a gap ratio r (M_{j+1}/M_j = r^2), and window for
an explicit slit list.

The convergence test is stated with weights theta^(j/p) starting at j = 1
while the numeric bound starts at j = 0 with maxima shifted by one; the two
series converge together, and this module always reports the j = 0 form.

A comb with no generative model (an explicit slit list) is extrapolated
from its window: the largest ratio rho of M_{j+1}/M_j from index 1 on is
taken to bound all later growth, and certification demands
rho * theta0^(1/p) <= 0.95, a margin of 0.05 so that one noisy ratio near
the boundary cannot flip the verdict.  The verdict is thus about the
infinite comb of which the list is the window, one that goes on at its
largest observed ratio.  It is not about the literal finite list that the
engines simulate (``truncated=False``): that domain contains the half-plane
beyond its last slit, so its E[tau^p] is infinite for every p >= 1/2,
whatever the verdict.

A verdict is never "infinite": the condition is sufficient only, so the
negative outcome is Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import (
    CombDomain,
    ExplicitSlits,
    GeometricGaps,
    PolynomialGaps,
    symmetrize,
)
from .series import strip_moment, theta0

__all__ = [
    "FINITE_CERTIFIED",
    "INCONCLUSIVE",
    "Verdict",
    "geometric_threshold",
    "check_theorem1",
    "check_refined_unit",
]

FINITE_CERTIFIED = "FiniteCertified"
INCONCLUSIVE = "Inconclusive"

# Window extrapolation: ratios M_{j+1}/M_j are read from this index on, and
# the extrapolated term weight must stay this far below 1.
_WINDOW_START = 1
_WINDOW_MARGIN = 0.05

# The polynomial tail is summed in blocks of this many terms, at most this
# many blocks; a weight within about 1e-13 of 1 spends the whole budget.
_TAIL_BLOCK = 4096
_TAIL_BLOCKS = 20_000


@dataclass(frozen=True)
class Verdict:
    status: str
    p: float
    theta0_used: float
    bound_on_moment_root: float
    reason: str
    growth_class_used: str


def geometric_threshold(p: float, theta: float) -> float:
    """Largest gap ratio r certifiable at exponent p: r < (1/theta)^(1/(2p))."""
    if not (p > 0) or not math.isfinite(p):
        raise ValueError("exponent p must be positive and finite")
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    try:
        return (1.0 / theta) ** (1.0 / (2.0 * p))
    except OverflowError:  # at tiny orders every finite ratio is certifiable
        return math.inf


def check_theorem1(comb: CombDomain, p: float) -> Verdict:
    """Certify E[tau^p] < infinity from the comb's aspect ratio.

    One-sided combs are symmetrized first: the one-sided domain is contained
    in its symmetrization, so any certified bound transfers.
    """
    comb, p, growth, note = _common_setup(comb, p)
    ell = _aspect_ratio(comb)
    if math.isinf(ell):
        return _inconclusive(
            p, 1.0, growth,
            note + (
                "aspect ratio ell is unbounded, so no single passage factor "
                "applies; removing slits from the complement only increases "
                "exit times, so deleting the offending slits to lower ell "
                "and re-checking is sound"
            ),
        )
    if ell == 0.0:
        return _inconclusive(
            p, 1.0, growth,
            note + (
                "aspect ratio ell is 0 (every slit's neighbors reach the "
                "axis), and the passage factor theta0 is defined only for "
                "ell > 0"
            ),
        )
    res = theta0(ell)
    note += f"theta0({ell:g})={res.theta0:.12g}; "
    return _certify(comb, p, res.theta0, growth, note)


def check_refined_unit(comb: CombDomain, p: float) -> Verdict:
    """Certify with the universal factor 3/4, valid for unit-height slits
    separated by gaps of at least 1."""
    if comb.kind != "comb":
        raise TypeError("a comb domain is required")
    if not np.all(comb.bs == 1.0) or comb.min_gap < 1.0 - 1e-12:
        raise ValueError(
            "refined proposition inapplicable: needs all heights exactly 1 "
            "and every gap at least 1"
        )
    comb, p, growth, note = _common_setup(comb, p)
    note += "universal per-passage factor 3/4 for unit heights and gaps >= 1; "
    return _certify(comb, p, 0.75, growth, note)


def _common_setup(comb, p):
    if comb.kind != "comb":
        raise TypeError("a comb domain is required")
    if not (p > 0) or not math.isfinite(p):
        raise ValueError("exponent p must be positive and finite")
    note = ""
    if comb.one_sided:
        comb = symmetrize(comb)
        note = "one-sided comb symmetrized (contained in the symmetric domain); "
    if comb.window_radius == 0:
        raise ValueError("empty window: the comb has no gaps to bound passages with")
    return comb, float(p), _growth_class(comb.spec.generator), note


def _growth_class(gen) -> tuple[str, str]:
    """The growth class of the passage maxima M_j, read from the comb's
    generator: its kind and the tag reported as ``growth_class_used``.

    bounded: uniform gaps, and polynomial gaps c*(n^d - (n-1)^d) of degree
    d <= 1, which are nonincreasing, so the maxima freeze.  polynomial: d > 1.
    geometric: gap ratio r, so M_{j+1}/M_j = r^2.  window: an explicit list,
    with no model; growth is extrapolated from the observed ratios only.
    """
    if isinstance(gen, ExplicitSlits):
        return "window", "window"
    if isinstance(gen, GeometricGaps):
        return "geometric", f"geometric(ratio={gen.ratio:g})"
    if isinstance(gen, PolynomialGaps) and gen.degree > 1.0:
        return "polynomial", f"polynomial(degree={gen.degree:g})"
    return "bounded", "bounded"


def _passage_maxima(comb: CombDomain) -> np.ndarray:
    """M_j for j = 1..J on a two-sided comb: the largest squared gap among
    the labels |n| <= j, label +n the gap (x_{n-1}, x_n) and -n its mirror
    (x_{-n}, x_{-n+1}).  These are exactly the gaps reachable within j
    passages from x_0."""
    gaps = np.diff(comb.xs)
    J = comb.window_radius
    with np.errstate(over="ignore"):  # a gap beyond 1e154 squares to inf
        return np.maximum.accumulate(np.maximum(gaps[J:] ** 2, gaps[:J][::-1] ** 2))


def _aspect_ratio(comb: CombDomain) -> float:
    """The aspect ratio ell of a two-sided comb with J >= 1: the sup over
    slits of max(b_{n-1}, b_{n+1}) / min(a_n, a_{n+1}).

    An explicit list gets the literal window value (slits whose both
    neighbor heights are 0 contribute 0; the all-walls comb has ell = 0).
    The parametric generators have one height, and their gaps never shrink
    except at polynomial degree below 1, where they shrink to zero and the
    sup is infinite; otherwise the innermost gap x_1 - x_0 gives the sup
    over the infinite comb.
    """
    gen = comb.spec.generator
    if isinstance(gen, ExplicitSlits):
        gaps = np.diff(comb.xs)
        num = np.maximum(comb.bs[:-2], comb.bs[2:])
        with np.errstate(over="ignore"):  # an unbounded ratio reads inf
            return float(np.max(num / np.minimum(gaps[:-1], gaps[1:])))
    if isinstance(gen, PolynomialGaps) and gen.degree < 1.0:
        return math.inf
    return gen.height / gen.abscissa(1)


def _certify(comb, p, theta, growth, note) -> Verdict:
    q = theta ** (1.0 / p)
    # the series S of the module docstring: weight w = q**a on M_{j+1}**a
    a = min(p, 1.0)
    w = theta ** (a / p)
    m = _passage_maxima(comb)
    maxima = m**a
    j_total = len(maxima)
    if q >= 1.0:
        return _inconclusive(
            p, theta, growth,
            note + f"per-passage factor theta0^(1/p)={q:g} carries no decay",
        )

    kind = growth[0]
    gen = comb.spec.generator
    if kind == "polynomial":
        tail = _polynomial_tail(gen, j_total, w, a)
        if tail == math.inf:
            return _inconclusive(p, theta, growth, note + (
                f"polynomial tail at weight {q:.6g} overflows the floats: its "
                f"degree {gen.degree:g} gaps pass the largest float"))
        if tail is None:
            return _inconclusive(
                p, theta, growth,
                note + (
                    f"polynomial tail at weight {q:.6g} did not converge within "
                    f"the budget of {_TAIL_BLOCKS} blocks of {_TAIL_BLOCK} terms"
                ),
            )
        reason = note + (
            f"polynomial gap growth of degree {gen.degree:g} is beaten by "
            f"the geometric weight {q:.6g}"
        )
        return _certified(p, theta, maxima, w, tail, growth, reason)

    # Every other class bounds each later ratio M_{j+1}/M_j by one number
    # R, so its tail is geometric at weight w * R**a.
    if kind == "bounded":
        ratio, refusal = 1.0, None
        reason = (
            f"gap maxima bounded by {m[-1]:g}; geometric tail "
            f"with weight {q:.6g} converges for any exponent"
        )
    elif kind == "geometric":
        ratio = gen.ratio * gen.ratio  # inf for a ratio beyond 1e154
        weight = q * ratio  # nan where q underflows to 0 against that inf
        threshold = geometric_threshold(p, theta)
        if weight >= 1.0:
            refusal = (
                f"gap ratio {gen.ratio:g} gives weight {weight:.6g} >= 1 "
                f"per term; certifiable only below ratio {threshold:.6g}"
            )
        elif not weight < 1.0:
            refusal = (
                f"gap ratio {gen.ratio:g} squares beyond the floats while "
                f"theta0^(1/p) underflows to 0: their product, the term "
                f"weight, has no float value"
            )
        else:
            refusal = None
        reason = (
            f"gap ratio {gen.ratio:g}: term weight {weight:.6g} < 1, below "
            f"the certifiable ratio {threshold:.6g}"
        )
    else:
        # bare window table
        if j_total < _WINDOW_START + 1:
            return _inconclusive(
                p, theta, growth,
                note + (
                    f"window of {j_total} passage maxima is too short to observe "
                    f"growth ratios from index {_WINDOW_START}"
                ),
            )
        ratio = float(np.max(m[_WINDOW_START:] / m[_WINDOW_START - 1 : -1]))
        refusal = (
            f"observed growth ratio {ratio:.6g} gives weight {q * ratio:.6g} "
            f"above the certification cutoff {1.0 - _WINDOW_MARGIN:g} "
            f"(margin {_WINDOW_MARGIN:g})"
        ) if q * ratio > 1.0 - _WINDOW_MARGIN else None
        reason = (
            f"window ratios bounded by {ratio:.6g} from index {_WINDOW_START}; "
            f"tail extrapolated at that ratio with weight {q * ratio:.6g} <= "
            f"{1.0 - _WINDOW_MARGIN:g}"
        )
    if refusal is not None:
        return _inconclusive(p, theta, growth, note + refusal)
    tail = maxima[-1] * w**j_total * ratio**a / (1.0 - w * ratio**a)
    return _certified(p, theta, maxima, w, tail, growth, note + reason)


def _certified(p, theta, maxima, w, tail, growth, reason) -> Verdict:
    """The verdict whose bound is ``m_p^(1/p) * S^(1/a)``, with S the window
    sum of ``w^j * maxima[j]`` plus ``tail``.  At small orders ``S^(1/a)``
    overflows, and the bound is infinite."""
    series = float(np.dot(w ** np.arange(len(maxima)), maxima)) + float(tail)
    try:
        bound = _strip_moment_root(p) * series ** (1.0 / min(p, 1.0))
    except OverflowError:
        bound = math.inf
    return Verdict(FINITE_CERTIFIED, p, theta, bound, reason, growth[1])


def _inconclusive(p, theta, growth, reason) -> Verdict:
    return Verdict(INCONCLUSIVE, p, theta, math.inf, reason, growth[1])


@cache
def _strip_moment_root(p: float) -> float:
    """``m_p^(1/p)`` for the unit strip, cached because ``strip_moment``
    costs about 20 us.  From about order 177.81 on m_p overflows a float,
    so the same closed form is taken in logs there; its Dirichlet beta
    factor, ``1 - 3^-(2p+1) + ...``, is 1 to double precision.

    Below about order 1e-11 the root loses accuracy: m_p = 1 + O(p)
    rounds, so the root drifts from its limit exp(E[log tau]) = 0.74378
    (0.3295 at 1e-16), and from about 1e-19 down the power raises
    OverflowError.  At such orders ``S^(1/a)`` of the module docstring
    overflows too (S tends to at least 1/(1 - theta) >= 2), so the bound
    is infinite anyway."""
    if p < 177.0:
        return strip_moment(p) ** (1.0 / p)
    return 8.0 / math.pi**2 * math.exp(
        (math.log(4.0 / math.pi) + math.lgamma(p + 1.0)) / p)


def _polynomial_tail(gen: PolynomialGaps, start_j: int, q: float,
                     a: float) -> float | None:
    """Sum q^j * gap(j+1)^(2a) for j >= start_j with the generator's exact
    gaps, in blocks of ``_TAIL_BLOCK`` terms: inf at the first block with a
    term beyond the floats, or None when ``_TAIL_BLOCKS`` blocks leave it
    unconverged.

    Gap ratios decrease toward 1 for degree >= 1, so the last gap ratio of
    a block, to the power 2a, is a bound ``rho`` on every later term ratio
    over q: once summation stops, the remainder is dominated by a geometric
    series at ratio ``q * rho``.
    """
    total = 0.0
    j = start_j
    # a gap or term beyond the floats is inf, or nan from inf - inf or 0 * inf
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_TAIL_BLOCKS):
            labels = np.arange(j + 1, j + _TAIL_BLOCK + 1, dtype=float)
            gaps = gen.coefficient * (labels**gen.degree - (labels - 1.0) ** gen.degree)
            terms = q ** np.arange(j, j + _TAIL_BLOCK) * gaps ** (2.0 * a)
            total += float(terms.sum())
            # a finite sum past the floats is only an infinite bound
            if not math.isfinite(total) and not np.isfinite(terms).all():
                return math.inf
            rho = (gaps[-1] / gaps[-2]) ** (2.0 * a)
            j += _TAIL_BLOCK
            if q * rho < 1.0 and terms[-1] < 1e-17 * max(total, 1.0):
                return total + terms[-1] * q * rho / (1.0 - q * rho)
    return None
