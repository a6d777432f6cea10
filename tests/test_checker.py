import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from combexit import checker
from combexit.checker import (
    FINITE_CERTIFIED,
    INCONCLUSIVE,
    Verdict,
    check_refined_unit,
    check_theorem1,
    geometric_threshold,
)
from combexit.geometry import (
    CombSpec,
    ExplicitSlits,
    GeometricGaps,
    PolynomialGaps,
    Rectangle,
    UniformGaps,
    build_comb,
)
from combexit.series import strip_moment, theta0


def uniform_comb(spacing=1.0, height=1.0, radius=3, one_sided=False):
    return build_comb(CombSpec(UniformGaps(spacing, height), window_radius=radius,
                               one_sided=one_sided))


def geometric_gap_comb(r, n_gaps=8):
    # gaps r, r^2, ..., all heights 1, one-sided
    xs = np.concatenate([[0.0], np.cumsum(r ** np.arange(1, n_gaps + 1))])
    return build_comb(CombSpec(ExplicitSlits(tuple((float(x), 1.0) for x in xs)),
                               one_sided=True))


def uniform_bound(spacing, theta, p):
    """The bound on E[tau^p]^(1/p) for uniform gaps: m_p^(1/p) S^(1/a) with
    a = min(p, 1) and S = spacing^(2a) / (1 - theta^(a/p))."""
    a = min(p, 1.0)
    series = spacing ** (2.0 * a) / (1.0 - theta ** (a / p))
    return strip_moment(p) ** (1.0 / p) * series ** (1.0 / a)


def test_uniform_certified_with_closed_form_bound():
    comb = uniform_comb()
    for p in (0.5, 1.0, 2.0, 10.0):
        v = check_theorem1(comb, p)
        assert v.status == FINITE_CERTIFIED
        assert v.bound_on_moment_root == pytest.approx(
            uniform_bound(1.0, v.theta0_used, p), rel=1e-12)
        assert v.theta0_used == pytest.approx(0.75, abs=1e-12)
        assert v.growth_class_used == "bounded"
    assert check_theorem1(comb, 1.0).bound_on_moment_root == pytest.approx(4.0, rel=1e-12)


def test_uniform_bound_carries_the_strip_moment():
    # factor 0.75: Minkowski at p = 2 gives sqrt(5/3) / (1 - sqrt(0.75)),
    # subadditivity at p = 1/2 gives (m_(1/2) / (1 - 0.75))^2
    comb = uniform_comb()
    assert check_refined_unit(comb, 2.0).bound_on_moment_root == pytest.approx(
        9.6361137499, rel=1e-9)
    assert check_refined_unit(comb, 0.5).bound_on_moment_root == pytest.approx(
        13.854111054, rel=1e-9)


def test_bound_past_the_strip_moment_float_range():
    # m_p overflows a float from about p = 177.81 on; the log form takes
    # over at 177 and agrees with strip_moment where both are finite
    for p in (177.0, 177.5):
        assert checker._strip_moment_root(p) == pytest.approx(
            strip_moment(p) ** (1.0 / p), rel=1e-13)
    v = check_theorem1(uniform_comb(), 200.0)
    assert v.status == FINITE_CERTIFIED
    assert math.isfinite(v.bound_on_moment_root)


def test_refined_geometric_acceptance_pair():
    # gap ratio 2 with unit gaps and heights: the certifiable ratio
    # (4/3)^(1/(2p)) is 2.053 at p = 0.2 and 1.778 at p = 0.25
    comb = build_comb(CombSpec(GeometricGaps(2.0, 1.0), window_radius=4))
    ok = check_refined_unit(comb, 0.2)
    assert ok.status == FINITE_CERTIFIED
    assert math.isfinite(ok.bound_on_moment_root)
    assert ok.theta0_used == 0.75
    assert ok.growth_class_used == "geometric(ratio=2)"

    no = check_refined_unit(comb, 0.25)
    assert no.status == INCONCLUSIVE
    assert math.isinf(no.bound_on_moment_root)
    assert "certifiable only below ratio 1.77778" in no.reason
    # the decision matches the closed-form ratio threshold exactly
    assert geometric_threshold(0.25, 0.75) < 2.0 < geometric_threshold(0.2, 0.75)


def test_theorem1_sharper_than_refined_on_wide_gaps():
    # with gaps of r^|n| (r - 1) the innermost gap is 2 at r = 3, the aspect
    # ratio is 1/2, and the literal passage factor theta0(1/2) = 0.5549 is
    # under 3/4; at p = 0.15 the sharper factor certifies where the
    # universal 3/4 does not
    comb = build_comb(CombSpec(GeometricGaps(3.0, 1.0), window_radius=4))
    v = check_theorem1(comb, 0.15)
    assert v.theta0_used == pytest.approx(0.5549, abs=1e-4)
    assert v.status == FINITE_CERTIFIED
    assert v.theta0_used ** (1.0 / 0.15) * 3.0**2 < 1.0
    refined = check_refined_unit(comb, 0.15)
    assert refined.status == INCONCLUSIVE
    assert 0.75 ** (1.0 / 0.15) * 3.0**2 >= 1.0


def test_geometric_generator_combs():
    tall = build_comb(CombSpec(GeometricGaps(2.0, 1.0), window_radius=3))
    v = check_theorem1(tall, 1.0)
    assert v.status == INCONCLUSIVE
    assert v.theta0_used == pytest.approx(0.75, abs=1e-12)  # ell = 1/(r-1) = 1
    assert "ratio" in v.reason

    gentle = build_comb(CombSpec(GeometricGaps(1.05, 0.04), window_radius=3))
    v2 = check_theorem1(gentle, 1.0)
    assert v2.status == FINITE_CERTIFIED
    assert v2.theta0_used * 1.05**2 < 1.0


def test_threshold_values():
    assert geometric_threshold(1.0, 0.75) == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-14)
    assert geometric_threshold(0.5, 0.75) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert geometric_threshold(1.0, 0.999999) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        geometric_threshold(0.0, 0.5)
    with pytest.raises(ValueError):
        geometric_threshold(1.0, 1.0)


def test_certification_monotone_in_p():
    for comb in (geometric_gap_comb(1.1), uniform_comb()):
        for p in (2.0, 1.0, 0.5, 0.25):
            upper = check_theorem1(comb, p)
            if upper.status == FINITE_CERTIFIED:
                lower = check_theorem1(comb, p / 2)
                assert lower.status == FINITE_CERTIFIED


def test_polynomial_bound_matches_series_oracle():
    comb = build_comb(CombSpec(PolynomialGaps(2.0, 1.0, 1.0), window_radius=4))
    v = check_theorem1(comb, 1.0)
    assert v.status == FINITE_CERTIFIED
    q = v.theta0_used
    js = np.arange(4000)
    gaps = (js + 1.0) ** 2 - js**2
    maxima = np.maximum.accumulate(gaps**2)
    oracle = float(np.sum(q**js * maxima))
    assert v.bound_on_moment_root == pytest.approx(oracle, rel=1e-10)


def test_unbounded_aspect_ratio_gives_hint():
    comb = build_comb(CombSpec(PolynomialGaps(0.5, 1.0, 1.0), window_radius=4))
    v = check_theorem1(comb, 1.0)
    assert v.status == INCONCLUSIVE
    assert v.theta0_used == 1.0
    assert math.isinf(v.bound_on_moment_root)
    assert "removing slits" in v.reason


def test_window_class_uniform_matches_bounded():
    # the list reads as the window of the infinite uniform comb; the literal
    # 7-slit domain holds a half-plane, where E[tau] is infinite
    xs = tuple((float(x), 1.0) for x in (-3, -2, -1, 0, 1, 2, 3))
    comb = build_comb(CombSpec(ExplicitSlits(xs)))
    v = check_theorem1(comb, 1.0)
    assert v.growth_class_used == "window"
    assert v.status == FINITE_CERTIFIED
    assert v.bound_on_moment_root == pytest.approx(4.0, rel=1e-12)


def test_window_class_declines_fast_growth():
    xs = tuple((float(x), 1.0) for x in (-13, -4, -1, 0, 1, 4, 13))
    comb = build_comb(CombSpec(ExplicitSlits(xs)))
    v = check_theorem1(comb, 1.0)
    assert v.status == INCONCLUSIVE
    assert "growth ratio" in v.reason


def test_window_policy_start_index():
    # one early jump in the maxima, flat afterwards
    xs = (0.0, 1.0, 6.0, 11.0, 16.0, 21.0)
    comb = build_comb(CombSpec(ExplicitSlits(tuple((x, 1.0) for x in xs)),
                               one_sided=True))
    strict = check_theorem1(comb, 4.0)
    assert strict.status == INCONCLUSIVE


def test_window_policy_margin():
    # ratio 1.28 at q = 3/4 gives weight 0.96: above the default cutoff
    # 0.95, below 1
    gap3 = math.sqrt(1.28)
    xs = (0.0, 1.0, 2.0, 2.0 + gap3)
    comb = build_comb(CombSpec(ExplicitSlits(tuple((x, 1.0) for x in xs)),
                               one_sided=True))
    default = check_theorem1(comb, 1.0)
    assert default.status == INCONCLUSIVE
    assert "margin" in default.reason


def test_window_too_short():
    comb = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0), (1.0, 1.0))),
                               one_sided=True))
    v = check_theorem1(comb, 1.0)
    assert v.status == INCONCLUSIVE
    assert "too short" in v.reason


def test_refined_preconditions():
    with pytest.raises(ValueError, match="inapplicable"):
        check_refined_unit(uniform_comb(height=2.0), 1.0)
    with pytest.raises(ValueError, match="inapplicable"):
        check_refined_unit(uniform_comb(spacing=0.5), 1.0)
    v = check_refined_unit(uniform_comb(), 7.0)
    assert v.status == FINITE_CERTIFIED


def test_one_sided_symmetrization():
    one = check_theorem1(uniform_comb(one_sided=True), 1.0)
    two = check_theorem1(uniform_comb(), 1.0)
    assert one.status == FINITE_CERTIFIED
    assert one.bound_on_moment_root == two.bound_on_moment_root
    assert "symmetrized" in one.reason


def test_saturated_factor_is_inconclusive():
    comb = uniform_comb(spacing=0.01, height=10.0)
    v = check_theorem1(comb, 1.0)
    assert v.status == INCONCLUSIVE
    assert v.theta0_used == 1.0


def test_empty_window_errors():
    single = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0),)), one_sided=True))
    with pytest.raises(ValueError, match="empty window"):
        check_theorem1(single, 1.0)


def test_input_validation():
    comb = uniform_comb()
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            check_theorem1(comb, bad)
    with pytest.raises(TypeError):
        check_theorem1(Rectangle(1.0, 1.0), 1.0)


def test_growth_class_inference():
    def used(gen, radius=2):
        return check_theorem1(build_comb(CombSpec(gen, window_radius=radius)),
                              1.0).growth_class_used

    assert used(UniformGaps(1.0, 1.0)) == "bounded"
    assert used(PolynomialGaps(3.0, 1.0, 1.0)) == "polynomial(degree=3)"
    assert used(PolynomialGaps(1.0, 1.0, 1.0)) == "bounded"
    assert used(PolynomialGaps(0.5, 1.0, 1.0)) == "bounded"
    assert used(GeometricGaps(1.5, 1.0)) == "geometric(ratio=1.5)"
    assert check_theorem1(geometric_gap_comb(1.1), 1.0).growth_class_used == "window"


@given(st.floats(1.01, 4.0), st.floats(0.01, 5.0), st.floats(0.05, 4.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_geometric_generator_certified_iff_term_weight_below_one(r, h, p):
    # the geometric class certifies exactly when theta0^(1/p) r^2 < 1, with
    # theta0 read at the aspect ratio h / (r - 1) of the innermost gap
    v = check_theorem1(build_comb(CombSpec(GeometricGaps(r, h), window_radius=4)), p)
    expected = theta0(h / (r - 1.0)).theta0 ** (1.0 / p) * r**2 < 1.0
    assert (v.status == FINITE_CERTIFIED) == expected


@given(st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.25, 8.0))
@settings(max_examples=100, deadline=None)
def test_uniform_bound_closed_form_property(spacing, height, p):
    comb = uniform_comb(spacing=spacing, height=height)
    v = check_theorem1(comb, p)
    q = v.theta0_used ** (1.0 / p)
    if v.status == FINITE_CERTIFIED:
        expect = uniform_bound(spacing, v.theta0_used, p)
        assert v.bound_on_moment_root == pytest.approx(expect, rel=1e-9)
        # at least the first passage's own bound
        assert v.bound_on_moment_root >= (strip_moment(p) ** (1.0 / p)
                                          * checker._passage_maxima(comb)[0])
    else:
        assert q >= 1.0  # only the saturated factor can block a uniform comb
