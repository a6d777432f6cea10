import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from combexit.checker import _aspect_ratio, _passage_maxima
from combexit.geometry import (
    BoundaryLines,
    CombDomain,
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
    domain_fingerprint,
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
    assert _aspect_ratio(comb) == 1.0
    assert np.array_equal(_passage_maxima(comb), np.ones(3))
    assert comb.truncated


def test_geometric_window_hand_values():
    # x_n = sign(n) (2^|n| - 1): gaps by mirrored label are 1, 2, 4
    comb = build_comb(CombSpec(GeometricGaps(2.0, 1.0), window_radius=3))
    assert np.array_equal(comb.xs, [-7.0, -3.0, -1.0, 0.0, 1.0, 3.0, 7.0])
    assert np.array_equal(_passage_maxima(comb), [1.0, 4.0, 16.0])
    assert _aspect_ratio(comb) == 1.0  # heights 1, innermost gaps 1


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
    assert np.array_equal(_passage_maxima(a), _passage_maxima(b))
    assert _aspect_ratio(a) == _aspect_ratio(b)


def test_polynomial_ell_closed_forms():
    assert _aspect_ratio(build_comb(CombSpec(PolynomialGaps(2.0, 0.5, 1.5),
                                             window_radius=4))) == 3.0
    # degree < 1: gaps shrink, the true sup is infinite
    frac = build_comb(CombSpec(PolynomialGaps(0.5, 1.0, 1.0), window_radius=4))
    assert math.isinf(_aspect_ratio(frac))


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
    c = two.window_radius
    assert np.array_equal(two.xs[c:], one.xs)
    assert np.array_equal(two.bs[c:], one.bs)


def test_one_sided_wall_is_full_line():
    one = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=2, one_sided=True))
    assert one.lines.par[0] == 0.0
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


NON_FINITE_POINTS = [(bad, 0.5) for bad in (math.nan, math.inf, -math.inf)] + \
    [(0.5, bad) for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("domain", [
    HalfPlane(),
    VerticalStrip(-1.0, 1.0),
    Rectangle(1.0, 1.0),
    Wedge(1.5 * math.pi),
    build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3)),
    build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=3, one_sided=True)),
], ids=["half-plane", "strip", "rectangle", "wedge", "comb", "one-sided-comb"])
@pytest.mark.parametrize("point", NON_FINITE_POINTS, ids=repr)
def test_contains_refuses_non_finite_points(domain, point):
    u, v = point
    assert not domain.contains(u, v)
    assert not domain.contains(np.array([u]), np.array([v]))[0]
    # the same point made finite is inside
    assert domain.contains(np.nan_to_num(u, posinf=0.5, neginf=0.5, nan=0.5),
                           np.nan_to_num(v, posinf=0.5, neginf=0.5, nan=0.5))


@pytest.mark.parametrize("build,match", [
    (lambda: Rectangle(-1, 1), "positive half sizes"),
    (lambda: Rectangle(1.0, math.nan), "'half_height' must be finite"),
    (lambda: VerticalStrip(-math.inf, math.inf), "'left' must be finite"),
    (lambda: VerticalStrip(0.0, math.inf), "'right' must be finite"),
    (lambda: VerticalStrip(1, 1), "left < right"),
    (lambda: Wedge(math.inf), "'angle' must be finite"),
    (lambda: Wedge(0.0), "angle"),
    (lambda: UniformGaps(1.0, math.inf), "'height' must be finite"),
    (lambda: PolynomialGaps(math.nan, 1.0, 1.0), "'degree' must be finite"),
    (lambda: PolynomialGaps(1.0, 0.0, 1.0), "coefficient > 0"),
    (lambda: GeometricGaps(math.inf, 1.0), "'ratio' must be finite"),
])
def test_directly_built_domains_are_validated(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_non_finite_window_radius_is_refused():
    cfg = comb_spec_to_config(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    cfg["window_radius"] = math.inf
    with pytest.raises(ValueError, match="'window_radius' must be finite"):
        comb_spec_from_config(cfg)


def test_fractional_window_radius_is_refused():
    cfg = comb_spec_to_config(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    cfg["window_radius"] = 2.7
    with pytest.raises(ValueError, match="'window_radius' must be an integer"):
        comb_spec_from_config(cfg)
    cfg["window_radius"] = 2.0
    assert comb_spec_from_config(cfg).window_radius == 2


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_one_sided_must_be_a_json_boolean(value):
    # bool("false") is True: a string must not build the one-sided comb
    cfg = comb_spec_to_config(CombSpec(UniformGaps(1.0, 1.0), window_radius=3))
    cfg["one_sided"] = value
    with pytest.raises(ValueError, match="'one_sided' must be a boolean"):
        comb_spec_from_config(cfg)


@pytest.mark.parametrize("build, named", [
    (lambda: domain_from_config({"type": "rectangle", "half_width": True,
                                 "half_height": 0.5}), "half_width"),
    (lambda: domain_from_config({"type": "vertical_strip", "left": False,
                                 "right": 1.0}), "left"),
    (lambda: domain_from_config({"type": "wedge", "angle": True}), "angle"),
    (lambda: comb_spec_from_config({"generator": {
        "kind": "uniform", "spacing": True, "height": 1.0}}), "spacing"),
    (lambda: comb_spec_from_config({"generator": {
        "kind": "geometric", "ratio": 1.5, "height": True}}), "height"),
    (lambda: comb_spec_from_config({"generator": {
        "kind": "explicit", "slits": [[0.0, 1.0], [True, 1.0]]},
        "one_sided": True}), "slits"),
    (lambda: comb_spec_from_config({"generator": {
        "kind": "explicit", "slits": [[0.0, 1.0], [1.0, False]]},
        "one_sided": True}), "slits"),
    (lambda: comb_spec_from_config({"generator": {
        "kind": "uniform", "spacing": 1.0, "height": 1.0},
        "window_radius": True}), "window_radius"),
], ids=["rectangle", "strip", "wedge", "uniform", "geometric", "slit-abscissa",
        "slit-height", "window-radius"])
def test_numeric_fields_refuse_json_booleans(build, named):
    # float(True) is 1.0: a boolean must not stand in for a number
    with pytest.raises(ValueError, match=f"'{named}' must be a number"):
        build()


@pytest.mark.parametrize("slits", [[1, 2], [[0.0]], "ab", None, [[0, 1, 2]],
                                   {"a": 1}],
                         ids=["numbers", "short-pair", "string", "null",
                              "long-pair", "object"])
def test_explicit_slits_must_be_pairs(slits):
    cfg = {"generator": {"kind": "explicit", "slits": slits}, "one_sided": True}
    with pytest.raises(ValueError, match=r"'slits' must be a list whose every "
                                         r"entry is an \[abscissa, height\] pair"):
        comb_spec_from_config(cfg)


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


def test_comb_domain_stores_its_spec_and_slits_only():
    # every other comb fact is derived, so none can disagree with the spec
    assert [f.name for f in dataclasses.fields(CombDomain)] == ["spec", "xs", "bs"]
    one = build_comb(CombSpec(GeometricGaps(2.0, 1.0), window_radius=3,
                              one_sided=True))
    assert (one.one_sided, one.truncated, one.window_radius, one.min_gap) == (
        True, True, 3, 1.0)
    assert list(one.lines.par) == [0.0, 1.0, 1.0, 1.0]
    assert list(one.bs) == [1.0, 1.0, 1.0, 1.0]
    walls = build_comb(CombSpec(ExplicitSlits(((-2.0, 0.0), (0.0, 1.0), (2.0, 0.0)))))
    assert (walls.one_sided, walls.truncated, walls.window_radius) == (False, False, 1)
    single = build_comb(CombSpec(ExplicitSlits(((0.0, 1.0),)), one_sided=True))
    assert single.window_radius == 0 and single.min_gap == math.inf


@pytest.mark.parametrize("gen, radius", [
    (GeometricGaps(1e10, 1.0), 40),
    (GeometricGaps(1e300, 1.0), 2),
    (PolynomialGaps(500, 1, 1), 5),
    (UniformGaps(1e307, 1.0), 20),
], ids=["geometric-power", "geometric-huge", "polynomial-power", "uniform-product"])
def test_abscissas_beyond_the_floats_are_refused(gen, radius):
    # a Python float power raises OverflowError where a product gives inf
    with pytest.raises(ValueError, match=f"{gen.kind} comb .* beyond the floats "
                                         f"within window_radius={radius}"):
        build_comb(CombSpec(gen, window_radius=radius))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, 1], ids=["abscissa", "height"])
def test_explicit_slit_not_finite_names_slits(value, at):
    slit = [1.0, 1.0]
    slit[at] = value
    spec = comb_spec_from_config({"generator": {
        "kind": "explicit", "slits": [[0.0, 1.0], slit]}, "one_sided": True})
    with pytest.raises(ValueError, match="explicit comb field 'slits' has a "
                                         "value that is not finite"):
        build_comb(spec)


def test_int_generator_materializes_float_abscissas():
    comb = build_comb(CombSpec(UniformGaps(1, 1), window_radius=2))
    assert comb.xs.dtype == np.float64


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
    assert _aspect_ratio(symmetrize(comb)) == 0.0


# Digests of the canonical config JSON, recorded before the config code was
# table-driven; an int-built strip keeps its own digest, as nothing converts
# the values a domain is built from.
FINGERPRINT_PINS = {
    "rectangle": (lambda: Rectangle(1.0, 0.5),
                  "81b6755d9bfa63be6aab56883fa8015fa1de7b8397f0a8caedd107508bbf9179"),
    "strip": (lambda: VerticalStrip(-1.0, 1.0),
              "bd2d1bdd504750d8b4004f7df9cc635ab0821699504763a000989bc171e31cdb"),
    "strip-int": (lambda: VerticalStrip(-1, 1),
                  "b31b8b76e00e71b2305789b0d310cae6f8131c4fdb5dc91d071ac7604abc2c68"),
    "wedge": (lambda: Wedge(math.pi / 3.0),
              "1016fc96f0ae947e480cb3785cb83100329cb8d8807c289a0d42ce45c488167d"),
    "half-plane": (HalfPlane,
                   "cef28bd0bba5811699aa204b8a0312fad45a60f280dcec9beb9a7b97aa1ae407"),
    "uniform-comb": (
        lambda: build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40)),
        "d1f213972f0af8f19e590ef717578a47430372921ab3dbc48f4ea85d94f9d3e7"),
    "polynomial-comb": (
        lambda: build_comb(CombSpec(PolynomialGaps(2.0, 0.5, 1.5), window_radius=5)),
        "7c4a22ffb4fc72fe82b4a2377b429f9b4603c55f7c51abad8bb440186fbc8286"),
    "geometric-comb": (
        lambda: build_comb(CombSpec(GeometricGaps(1.5, 1.0), window_radius=8,
                                    one_sided=True)),
        "cb17811a34751571448808a6b38c06afede9834220b8bd27090a3ac2a690d5ee"),
    "explicit-comb": (
        lambda: build_comb(CombSpec(ExplicitSlits(((-2.0, 1.0), (0.0, 0.5), (1.5, 2.0))))),
        "2f7e03aa51c2f508607760bd4a42fc61332c1d98296845d2124e1516c090dc65"),
    "one-sided-explicit-comb": (
        lambda: build_comb(CombSpec(ExplicitSlits(((0.0, 0.0), (2.0, 1.0), (5.0, 0.0))),
                                    one_sided=True)),
        "b4f88611ab582ac82366bb2cff76fc8a1750263c305ae412f1ca85e6087660b0"),
}


@pytest.mark.parametrize("name", sorted(FINGERPRINT_PINS))
def test_domain_fingerprint_pins(name):
    build, digest = FINGERPRINT_PINS[name]
    assert domain_fingerprint(build()) == digest
