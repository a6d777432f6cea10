import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from combexit.geometry import (
    BoundaryLines,
    CombSpec,
    ExplicitSlits,
    GeometricGaps,
    HalfPlane,
    PolynomialGaps,
    Rectangle,
    UniformGaps,
    VerticalStrip,
    Wedge,
    build_comb,
    comb_spec_from_config,
    comb_spec_to_config,
    domain_from_config,
    domain_to_config,
    symmetrize,
)


def dist(domain, u, v):
    """Boundary distance of one point, as a float."""
    return float(domain.lines.distance(np.array([u]), np.array([v]))[0])


def test_uniform_window():
    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    assert np.array_equal(comb.xs, np.arange(-3.0, 4.0))
    assert comb.min_gap == 1.0
    assert comb.ell == 1.0
    assert np.array_equal(comb.prefix_max, np.ones(3))
    assert comb.truncated


def test_geometric_window_hand_values():
    # x_n = sign(n) (2^|n| - 1): gaps by mirrored label are 1, 2, 4
    comb = build_comb(CombSpec(GeometricGaps(2.0, 1.0), window_radius=3))
    assert np.array_equal(comb.xs, [-7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0])
    for n, g in [(1, 1.0), (-1, 1.0), (2, 2.0), (-2, 2.0), (3, 4.0), (-3, 4.0)]:
        assert comb.gap(n) == g
    assert np.array_equal(comb.prefix_max, [1.0, 4.0, 16.0])
    assert comb.ell == 1.0  # heights 1, innermost gaps 1


def test_build_validation_errors():
    with pytest.raises(ValueError, match="non-increasing"):
        build_comb(CombSpec(ExplicitSlits(((0.0, 1.0), (2.0, 1.0), (1.0, 1.0)),),
                            one_sided=True))
    with pytest.raises(ValueError, match="negative"):
        build_comb(CombSpec(ExplicitSlits(((0.0, -1.0),)), one_sided=True))
    with pytest.raises(ValueError, match="ratio"):
        build_comb(CombSpec(GeometricGaps(1.0, 1.0), window_radius=2))
    with pytest.raises(ValueError, match="spacing"):
        build_comb(CombSpec(UniformGaps(-1.0, 1.0), window_radius=2))
    with pytest.raises(ValueError, match="window_radius"):
        build_comb(CombSpec(UniformGaps(1.0, 1.0)))
    with pytest.raises(ValueError, match="empty"):
        build_comb(CombSpec(ExplicitSlits(()), one_sided=True))
    # degree 0 makes x_1 = x_2: caught by the monotonicity check
    with pytest.raises(ValueError, match="non-increasing"):
        build_comb(CombSpec(PolynomialGaps(0.0, 1.0, 1.0), window_radius=2))
    # x_0 normalization
    with pytest.raises(ValueError, match="x_0"):
        build_comb(CombSpec(ExplicitSlits(((1.0, 1.0), (2.0, 1.0))), one_sided=True))


def test_build_is_deterministic():
    spec = CombSpec(PolynomialGaps(2.0, 0.5, 1.5), window_radius=5)
    a, b = build_comb(spec), build_comb(spec)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.prefix_max, b.prefix_max)
    assert a.ell == b.ell


def test_polynomial_ell_closed_forms():
    assert build_comb(CombSpec(PolynomialGaps(2.0, 0.5, 1.5), window_radius=4)).ell == 3.0
    # degree < 1: gaps shrink, the true sup is infinite
    frac = build_comb(CombSpec(PolynomialGaps(0.5, 1.0, 1.0), window_radius=4))
    assert math.isinf(frac.ell)


def test_symmetrize_mirror_rule():
    one = build_comb(CombSpec(
        ExplicitSlits(((0.0, 1.0), (1.0, 2.0), (3.0, 3.0))), one_sided=True))
    two = symmetrize(one)
    assert np.array_equal(two.xs, [-3.0, -1.0, 0.0, 1.0, 3.0])
    assert np.array_equal(two.bs, [3.0, 2.0, 1.0, 2.0, 3.0])
    assert not two.one_sided

    single = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0),)), one_sided=True))
    assert np.array_equal(symmetrize(single).xs, [0.0])

    with pytest.raises(ValueError):
        symmetrize(two)


def test_symmetrize_restriction_roundtrip():
    one = build_comb(CombSpec(UniformGaps(0.5, 2.0), window_radius=4, one_sided=True))
    two = symmetrize(one)
    # restriction back to n >= 0 recovers the one-sided data
    c = two.center_index()
    assert np.array_equal(two.xs[c:], one.xs)
    assert np.array_equal(two.bs[c:], one.bs)


def test_one_sided_wall_is_full_line():
    one = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=2, one_sided=True))
    assert one.line_heights[0] == 0.0
    assert one.bs[0] == 1.0
    # wall blocks regardless of v
    assert dist(one, 0.25, 50.0) == pytest.approx(0.25)
    assert not one.contains(np.array([-0.5]), np.array([0.0]))[0]


def test_distance_examples():
    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    assert dist(comb, 0.5, 0.0) == pytest.approx(
        math.sqrt(1.25), abs=1e-15)
    assert dist(comb, 0.5, 5.0) == pytest.approx(0.5)
    assert dist(Rectangle(1.0, 1.0), 0.0, 0.0) == 1.0
    assert dist(VerticalStrip(-1.0, 1.0), 0.2, 9.0) == pytest.approx(0.8)
    assert dist(HalfPlane(), 3.0, 0.7) == pytest.approx(0.7)
    w = Wedge(math.pi / 2)
    assert dist(w, 1.0, 1.0) == pytest.approx(1.0)
    assert dist(w, 0.3, 2.0) == pytest.approx(0.3)


def test_nearest_boundary_comb():
    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    bu, bv = comb.lines.nearest(np.array([0.5, 0.9]), np.array([0.0, 2.0]))
    assert bu[0] in (0.0, 1.0) and abs(bv[0]) == 1.0
    assert bu[1] == 1.0 and bv[1] == 2.0


@st.composite
def comb_points(draw):
    n_gaps = draw(st.integers(min_value=10, max_value=24))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n_gaps, max_size=n_gaps))
    heights = draw(st.lists(st.floats(0.0, 4.0), min_size=n_gaps + 1,
                            max_size=n_gaps + 1))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs -= xs[len(xs) // 2] if len(xs) % 2 == 1 else xs[0]
    u = draw(st.floats(-5.0, float(xs[-1] - xs[0]) + 5.0))
    v = draw(st.floats(-6.0, 6.0))
    return xs, np.asarray(heights), u, v


# tall teeth around the point and a full line ten walls away: only the
# guard's fallback to the full scan finds the line
GUARD_CASE = (np.arange(21) * 0.1, np.where(np.arange(21) == 10, 0.0, 4.0), 0.05, 0.0)


@given(comb_points())
@example(GUARD_CASE)
@settings(max_examples=200, deadline=None)
def test_windowed_distance_matches_full_scan(data):
    xs, bs, u, v = data
    lines = BoundaryLines.walls(xs, bs)
    pu, pv = np.array([u]), np.array([v])
    fast = lines.distance(pu, pv)[0]
    assert fast == lines._scan(pu, pv).min(axis=0)[0]
    bu, bv = lines.nearest(pu, pv)
    assert math.hypot(bu[0] - u, bv[0] - v) == pytest.approx(fast, abs=1e-12)


@given(st.floats(-2.5, 2.5), st.floats(-3.0, 3.0), st.floats(-2.5, 2.5),
       st.floats(-3.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_comb_distance_lipschitz(u1, v1, u2, v2):
    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    d1 = dist(comb, u1, v1)
    d2 = dist(comb, u2, v2)
    assert abs(d1 - d2) <= math.hypot(u1 - u2, v1 - v2) + 1e-12


EVERY_DOMAIN = [
    build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3)),
    build_comb(CombSpec(UniformGaps(0.5, 2.0), window_radius=12)),
    build_comb(CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 1.0), (4.5, 1.0), (9.0, 0.0))),
                        one_sided=True)),
    VerticalStrip(-1.0, 2.0),
    Rectangle(1.0, 0.5),
    Wedge(math.pi / 3.0),
    Wedge(1.5 * math.pi),
    HalfPlane(),
]


@given(st.sampled_from(EVERY_DOMAIN), st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_nearest_lies_on_boundary(domain, u, v):
    bu, bv = domain.lines.nearest(np.array([u]), np.array([v]))
    assert dist(domain, bu[0], bv[0]) < 1e-12
    assert math.hypot(bu[0] - u, bv[0] - v) == pytest.approx(
        dist(domain, u, v), abs=1e-12)


def test_wedge_contains_and_distance():
    w = Wedge(math.pi / 4)
    assert w.contains(np.array([1.0]), np.array([0.2]))[0]
    assert not w.contains(np.array([1.0]), np.array([-0.2]))[0]
    assert not w.contains(np.array([0.0]), np.array([0.0]))[0]
    # distance from the bisector point
    th = math.pi / 8
    p = (math.cos(th), math.sin(th))
    assert dist(w, *p) == pytest.approx(math.sin(th), abs=1e-12)


def test_config_roundtrip():
    specs = [
        CombSpec(UniformGaps(1.0, 2.0), window_radius=4),
        CombSpec(GeometricGaps(1.5, 1.0), window_radius=3, one_sided=True),
        CombSpec(PolynomialGaps(2.0, 0.25, 1.0), window_radius=2),
        CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 1.0), (5.0, 0.0))), one_sided=True),
    ]
    for spec in specs:
        assert comb_spec_from_config(comb_spec_to_config(spec)) == spec

    domains = [Rectangle(1.0, 2.0), VerticalStrip(-1.0, 3.0), Wedge(0.7), HalfPlane()]
    for dom in domains:
        assert domain_from_config(domain_to_config(dom)) == dom
    comb = build_comb(specs[0])
    again = domain_from_config(domain_to_config(comb))
    assert np.array_equal(again.xs, comb.xs)


def test_config_validation():
    with pytest.raises(ValueError, match="type"):
        domain_from_config({})
    with pytest.raises(ValueError, match="generator kind"):
        comb_spec_from_config({"generator": {"kind": "nope"}})
    with pytest.raises(ValueError, match="missing field"):
        comb_spec_from_config({"generator": {"kind": "uniform", "spacing": 1.0}})
    with pytest.raises(ValueError, match="left < right"):
        domain_from_config({"type": "vertical_strip", "left": 2.0, "right": 1.0})
    with pytest.raises(ValueError, match="angle"):
        domain_from_config({"type": "wedge", "angle": 7.0})


def test_explicit_window_radius_consistency():
    spec = CombSpec(ExplicitSlits(((0.0, 1.0), (1.0, 1.0))), window_radius=3,
                    one_sided=True)
    with pytest.raises(ValueError, match="inconsistent"):
        build_comb(spec)
    ok = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0), (1.0, 1.0))), one_sided=True))
    assert ok.window_radius == 1
    assert not ok.truncated


def test_two_sided_explicit_needs_center():
    with pytest.raises(ValueError, match="odd"):
        build_comb(CombSpec(ExplicitSlits(((-1.0, 1.0), (1.0, 1.0)))))
    ok = build_comb(CombSpec(ExplicitSlits(((-1.0, 1.0), (0.0, 2.0), (1.0, 1.0)))))
    assert ok.window_radius == 1


def test_all_wall_comb_has_degenerate_ell():
    comb = build_comb(CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 0.0))), one_sided=True))
    assert comb.ell == 0.0
    assert comb.ell_is_window_only
