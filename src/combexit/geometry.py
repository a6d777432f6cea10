"""Comb domains and the other simulatable planar domains.

A comb domain is the plane minus a family of vertical slits
``{x_n} x ((-inf, -b_n] u [b_n, inf))``.  Heights ``b_n = 0`` are allowed
and encode full vertical lines, which lets vertical strips and strip-with-
teeth constructions reuse the comb machinery.  One-sided combs live in the
half plane ``Re z > x_0``; the line at ``x_0`` is then a full wall
regardless of the stored ``b_0`` (the stored height is still used when the
comb is symmetrized).

Infinite slit families are represented by a finite materialized window of
radius J.  A ``CombDomain`` stores only its spec and the window's slits
``xs``, ``bs``, which :func:`build_comb` alone materializes and validates
(refusing abscissas beyond the floats); ``one_sided``, ``truncated``,
``window_radius`` and ``min_gap`` are derived from them.  A comb from a
parametric generator is ``truncated``: simulated trajectories must exit
strictly inside the window and the engines flag a "window escape"
otherwise.  Explicit slit lists are taken as the complete, exact domain.

Every domain describes its boundary once, as ``BoundaryLines``: oriented
lines, each cut down to its boundary part by the one exit rule the domain
uses (comb teeth and strip walls are slits, rectangle sides and the
half-plane edge are segments, wedge sides are rays).  Both samplers read
that description: EulerBridge tests bridge crossings of the lines, and
WosTime takes its jump radius from ``distance`` and its exit point from
``nearest``.  ``contains`` stays per class, because it validates start
points with the domain's own exact comparisons; a point with a non-finite
coordinate lies in no domain.

Each generator and each domain other than the comb states its validity
once, in ``__post_init__``: every field must be finite and the values in
range, however the object was built.  The checks do not convert values, so
a domain built from ints keeps its own fingerprint.  Its dataclass fields
are its config keys, and its ``kind`` names it in a config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "UniformGaps",
    "PolynomialGaps",
    "GeometricGaps",
    "ExplicitSlits",
    "CombSpec",
    "CombDomain",
    "Rectangle",
    "VerticalStrip",
    "Wedge",
    "HalfPlane",
    "SimDomain",
    "BoundaryLines",
    "build_comb",
    "symmetrize",
    "domain_to_config",
    "domain_from_config",
    "domain_fingerprint",
    "comb_spec_to_config",
    "comb_spec_from_config",
]


# ---------------------------------------------------------------------------
# generators


def _validate(obj, in_range: bool, message: str) -> None:
    """Raise ValueError naming the first non-finite field of ``obj``, or
    with ``message`` if ``in_range`` is false."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{obj.kind} field {f.name!r} must be finite, "
                             f"got {value!r}")
    if not in_range:
        raise ValueError(message)


@dataclass(frozen=True)
class UniformGaps:
    """Abscissas x_n = spacing * n, constant slit height."""

    kind: ClassVar[str] = "uniform"
    spacing: float
    height: float

    def __post_init__(self) -> None:
        _validate(self, self.spacing > 0 and self.height > 0,
                  "uniform generator needs spacing > 0 and height > 0")

    def abscissa(self, n: int) -> float:
        return self.spacing * n


@dataclass(frozen=True)
class PolynomialGaps:
    """Abscissas x_n = sign(n) * coefficient * |n|**degree, constant height."""

    kind: ClassVar[str] = "polynomial"
    degree: float
    coefficient: float
    height: float

    def __post_init__(self) -> None:
        _validate(self, self.degree >= 0 and self.coefficient > 0 and self.height > 0,
                  "polynomial generator needs degree >= 0, coefficient > 0, height > 0")

    def abscissa(self, n: int) -> float:
        return math.copysign(self.coefficient * abs(n) ** self.degree, n) if n else 0.0


@dataclass(frozen=True)
class GeometricGaps:
    """Abscissas x_n = sign(n) * (ratio**|n| - 1), constant height.

    Gap labels then satisfy a_{+-n} = ratio**(n-1) * (ratio - 1), so the
    gap sequence is geometric with the declared ratio.
    """

    kind: ClassVar[str] = "geometric"
    ratio: float
    height: float

    def __post_init__(self) -> None:
        _validate(self, self.ratio > 1 and self.height > 0,
                  "geometric generator needs ratio > 1 and height > 0")

    def abscissa(self, n: int) -> float:
        return math.copysign(self.ratio ** abs(n) - 1.0, n) if n else 0.0


@dataclass(frozen=True)
class ExplicitSlits:
    """A finite, exact list of (abscissa, height) pairs, validated when the
    comb is built."""

    kind: ClassVar[str] = "explicit"
    slits: tuple[tuple[float, float], ...]


Generator = Union[UniformGaps, PolynomialGaps, GeometricGaps, ExplicitSlits]


@dataclass(frozen=True)
class CombSpec:
    generator: Generator
    window_radius: int | None = None
    one_sided: bool = False


# ---------------------------------------------------------------------------
# boundary lines

# Exit rules: the part of a line that is boundary, in the coordinate s along
# the line measured from its foot point c * n.
_RULE_SLIT = 0      # |s| >= par: two rays leaving a gap of half-height par
_RULE_SEGMENT = 1   # |s| <= par: a segment of half-length par
_RULE_RAY = 2       # s >= 0: a ray from the foot point

_WINDOW = 4  # candidate walls kept on each side of the insertion index


@dataclass(frozen=True, eq=False)
class BoundaryLines:
    """A domain's boundary as oriented lines, each cut by the domain's rule.

    Line ``i`` is ``{z : <z, n> = c}`` with unit normal ``n = (nx, ny)``
    and unit along-direction ``a = (ax, ay)``; a point ``z`` has signed
    offset ``d = <z, n> - c`` and along-coordinate ``s = <z, a>``.  The
    one ``rule`` keeps the boundary part of every line, with ``par`` the
    per-line slit half-height or segment half-length.  ``vertical`` sets
    are walls ``x = c`` sorted by ``c``; ``convex`` marks domains that every
    crossing of a line leaves.

    The distance to the boundary part of a line uses the along-gap
    ``g = par - |s|`` (slit), ``|s| - par`` (segment) or ``-s`` (ray),
    which is at most 0 exactly where the foot of the perpendicular lies on
    the boundary part: it is ``|d|`` there and ``hypot(d, g)``, the
    distance to the nearest end, elsewhere.  As ``hypot(d, 0) == |d|``
    exactly, that is ``hypot(d, max(g, 0))`` bit for bit; ``hypot`` is
    only evaluated where ``g > 0``.
    """

    nx: np.ndarray
    ny: np.ndarray
    c: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    par: np.ndarray
    rule: int
    vertical: bool = False
    convex: bool = False

    @classmethod
    def from_rows(cls, rule: int, rows, convex: bool) -> BoundaryLines:
        """Lines from ``(nx, ny, c, ax, ay, par)`` rows."""
        nx, ny, c, ax, ay, par = (np.array(col, dtype=float) for col in zip(*rows))
        return cls(nx, ny, c, ax, ay, par, rule, convex=convex)

    @classmethod
    def walls(cls, xs, heights, convex: bool = False) -> BoundaryLines:
        """Slits ``x = xs[i], |y| >= heights[i]`` for ascending ``xs``."""
        c = np.array(xs, dtype=float)
        one, zero = np.ones_like(c), np.zeros_like(c)
        return cls(one, zero, c, zero, one, np.array(heights, dtype=float),
                   _RULE_SLIT, vertical=True, convex=convex)

    def gap(self, s, par):
        """Along-gap of coordinates ``s`` on lines with parameters ``par``:
        at most 0 exactly on the boundary part."""
        if self.rule == _RULE_SLIT:
            return par - np.abs(s)
        if self.rule == _RULE_SEGMENT:
            return np.abs(s) - par
        return -s

    def distance(self, u, v) -> np.ndarray:
        """Distance from each point ``(u, v)`` to the boundary."""
        u = np.atleast_1d(np.asarray(u, float))
        v = np.atleast_1d(np.asarray(v, float))
        n = self.c.size
        if not self.vertical or n <= 2 * _WINDOW + 1:
            return self._scan(u, v).min(axis=0)
        lo = np.clip(np.searchsorted(self.c, u) - _WINDOW, 0, n - 1)
        cols = np.minimum(lo + np.arange(2 * _WINDOW)[:, None], n - 1)
        d = self._to(cols, u, v).min(axis=0)
        # guard: every wall outside the candidate range is horizontally at
        # least as far as the range edges, so the window minimum is global
        # whenever it does not exceed those edge offsets
        hi = cols[-1]
        ok = (((lo == 0) | (d <= np.abs(u - self.c[lo])))
              & ((hi == n - 1) | (d <= np.abs(u - self.c[hi]))))
        if not ok.all():
            bad = ~ok
            d[bad] = self._scan(u[bad], v[bad]).min(axis=0)
        return d

    def nearest(self, u, v):
        """Nearest boundary point ``(bu, bv)`` to each point ``(u, v)``;
        ties go to the first line."""
        u = np.atleast_1d(np.asarray(u, float))
        v = np.atleast_1d(np.asarray(v, float))
        i = self._scan(u, v).argmin(axis=0)
        s = v if self.vertical else self.ax[i] * u + self.ay[i] * v
        return self.snap(i, s)

    def snap(self, i, s):
        """The boundary point of line ``i`` nearest to the point of that line
        at along-coordinate ``s``."""
        par = self.par[i]
        if self.rule == _RULE_SLIT:
            s = np.where(np.abs(s) >= par, s, np.where(s >= 0.0, par, -par))
        elif self.rule == _RULE_SEGMENT:
            s = np.clip(s, -par, par)
        else:
            s = np.maximum(s, 0.0)
        if self.vertical:
            return self.c[i], s
        return (self.c[i] * self.nx[i] + s * self.ax[i],
                self.c[i] * self.ny[i] + s * self.ay[i])

    @cached_property
    def _axes(self):
        """For axis-aligned lines that are not all vertical: per line, which
        of ``(u, v)`` gives the offset ``d`` and with which sign, then the
        same for the along-coordinate ``s``; None for any other set."""
        if self.vertical:
            return None
        rows = []
        for nx, ny, ax, ay in zip(self.nx.tolist(), self.ny.tolist(),
                                  self.ax.tolist(), self.ay.tolist()):
            if {abs(nx), abs(ny)} != {0.0, 1.0} or {abs(ax), abs(ay)} != {0.0, 1.0}:
                return None
            rows.append((int(nx == 0.0), nx + ny, int(ax == 0.0), ax + ay))
        return rows

    @np.errstate(over="ignore")
    def _scan(self, u, v) -> np.ndarray:
        """``(lines, points)`` distances from every point to every line
        (inf beyond the floats, as in ``_to``)."""
        if self._axes is None:
            return self._to(np.s_[:, None], u, v)
        # Rectangle and half-plane sides, one line at a time: d and s are
        # +-u or +-v.  The general form gives the same up to the sign of a
        # zero, which abs and hypot drop.
        uv = (u, v)
        out = np.empty((self.c.size, u.size))
        for k, (d_row, d_sign, s_row, s_sign) in enumerate(self._axes):
            d, s = uv[d_row], uv[s_row]
            d = (d if d_sign > 0.0 else -d) - self.c[k]
            s = s if s_sign > 0.0 else -s
            self._from_offsets(d, s, self.par[k], out=out[k])
        return out

    @np.errstate(over="ignore")
    def _to(self, i, u, v) -> np.ndarray:
        """Distances from the points to the lines ``i``, an index whose
        selection broadcasts against the points.  A distance beyond the
        floats is inf: that line is farther than any other."""
        if self.vertical:
            d, s = u - self.c[i], v
        else:
            d = self.nx[i] * u + self.ny[i] * v - self.c[i]
            s = self.ax[i] * u + self.ay[i] * v
        return self._from_offsets(d, s, self.par[i])

    def _from_offsets(self, d, s, par, out=None) -> np.ndarray:
        """Distances from points at signed offsets ``d`` and
        along-coordinates ``s`` to the boundary parts of lines with
        parameters ``par``."""
        g = self.gap(s, par)
        return np.hypot(d, g, out=np.abs(d, out=out), where=g > 0.0)


# ---------------------------------------------------------------------------
# materialized domains


@dataclass(frozen=True, eq=False)
class CombDomain:
    """A comb window, stored as its spec and its validated slits: sorted
    abscissas ``xs`` (2J+1 two-sided, J+1 one-sided) and declared heights
    ``bs``.  Everything else is derived from them."""

    kind: ClassVar[str] = "comb"
    spec: CombSpec
    xs: np.ndarray
    bs: np.ndarray

    @property
    def one_sided(self) -> bool:
        return self.spec.one_sided

    @property
    def truncated(self) -> bool:  # a window of an infinite comb
        return not isinstance(self.spec.generator, ExplicitSlits)

    @property
    def window_radius(self) -> int:
        return len(self.xs) - 1 if self.one_sided else len(self.xs) // 2

    @property
    def min_gap(self) -> float:
        return float(np.diff(self.xs).min()) if len(self.xs) > 1 else math.inf

    def scale(self) -> float:
        # Single-line combs have no gap; the slit half-height is then the
        # only intrinsic length (and 1.0 the last resort for a bare line).
        if math.isfinite(self.min_gap):
            return self.min_gap
        tallest = float(np.max(self.bs))
        return tallest if tallest > 0.0 else 1.0

    @cached_property
    def lines(self) -> BoundaryLines:
        heights = self.bs.copy()
        if self.one_sided:
            heights[0] = 0.0  # the wall at x_0 is a full line
        return BoundaryLines.walls(self.xs, heights)

    def contains(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, float)
        inside = (self.lines.distance(u, v) > 0.0) & _finite(u, v)
        if self.one_sided:
            inside = inside & (u > self.xs[0])
        return inside


@dataclass(frozen=True)
class Rectangle:
    """K^b_{-a,a}: the open box (-a, a) x (-b, b)."""

    kind: ClassVar[str] = "rectangle"
    half_width: float
    half_height: float

    def __post_init__(self) -> None:
        _validate(self, self.half_width > 0 and self.half_height > 0,
                  "rectangle needs positive half sizes")

    def scale(self) -> float:
        return min(self.half_width, self.half_height)

    @cached_property
    def lines(self) -> BoundaryLines:
        w, hh = self.half_width, self.half_height
        return BoundaryLines.from_rows(_RULE_SEGMENT, [
            (1.0, 0.0, w, 0.0, 1.0, hh),
            (1.0, 0.0, -w, 0.0, 1.0, hh),
            (0.0, 1.0, hh, 1.0, 0.0, w),
            (0.0, 1.0, -hh, 1.0, 0.0, w),
        ], convex=True)

    def contains(self, u, v):
        return ((np.abs(np.asarray(u, float)) < self.half_width)
                & (np.abs(np.asarray(v, float)) < self.half_height))


@dataclass(frozen=True)
class VerticalStrip:
    """S_{c,d}: the open strip c < Re z < d."""

    kind: ClassVar[str] = "vertical_strip"
    left: float
    right: float

    def __post_init__(self) -> None:
        _validate(self, self.left < self.right, "vertical strip needs left < right")

    def scale(self) -> float:
        return (self.right - self.left) / 2.0

    @cached_property
    def lines(self) -> BoundaryLines:
        return BoundaryLines.walls([self.left, self.right], [0.0, 0.0], convex=True)

    def contains(self, u, v):
        u = np.asarray(u, float)
        return (u > self.left) & (u < self.right) & _finite(u, v)


@dataclass(frozen=True)
class Wedge:
    """W_alpha = {0 < arg z < alpha}, apex at the origin."""

    kind: ClassVar[str] = "wedge"
    angle: float

    def __post_init__(self) -> None:
        _validate(self, 0.0 < self.angle < 2.0 * math.pi,
                  "wedge angle must be in (0, 2*pi)")

    def scale(self) -> float:
        return 1.0

    @cached_property
    def lines(self) -> BoundaryLines:
        # Up to a half plane the wedge is convex: a crossing of a side's line
        # behind the apex leaves it too and exits at the apex.  A reflex
        # wedge goes on past the lines, so such a crossing is no exit.
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        return BoundaryLines.from_rows(_RULE_RAY, [
            (0.0, 1.0, 0.0, 1.0, 0.0, 0.0),
            (sa, -ca, 0.0, ca, sa, 0.0),
        ], convex=self.angle <= math.pi)

    def contains(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        theta = np.arctan2(v, u)
        theta = np.where(theta < 0.0, theta + 2.0 * math.pi, theta)
        r = np.hypot(u, v)
        return (r > 0.0) & (theta > 0.0) & (theta < self.angle) & _finite(u, v)


@dataclass(frozen=True)
class HalfPlane:
    """The open upper half plane Im z > 0."""

    kind: ClassVar[str] = "half_plane"

    def scale(self) -> float:
        return 1.0

    @cached_property
    def lines(self) -> BoundaryLines:
        return BoundaryLines.from_rows(
            _RULE_SEGMENT, [(0.0, 1.0, 0.0, 1.0, 0.0, np.inf)], convex=True)

    def contains(self, u, v):
        return (np.asarray(v, float) > 0.0) & _finite(u, v)


def _finite(u, v) -> np.ndarray:
    return np.isfinite(u) & np.isfinite(v)


SimDomain = Union[CombDomain, Rectangle, VerticalStrip, Wedge, HalfPlane]


# ---------------------------------------------------------------------------
# comb construction


def build_comb(spec: CombSpec) -> CombDomain:
    """Materialize and validate a comb window: the one place slits are built."""
    gen = spec.generator
    if isinstance(gen, ExplicitSlits):
        if len(gen.slits) == 0:
            raise ValueError("empty slit window")
        xs = np.array([s[0] for s in gen.slits], dtype=float)
        bs = np.array([s[1] for s in gen.slits], dtype=float)
        if not spec.one_sided and len(xs) % 2 == 0:
            raise ValueError("two-sided explicit comb needs an odd number of slits "
                             "(center slit at x_0 = 0)")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(bs))):
            raise ValueError("explicit comb field 'slits' has a value that is "
                             "not finite")
    else:
        J = spec.window_radius
        if J is None:
            raise ValueError("window_radius is required for parametric generators")
        if J < 1:
            raise ValueError("window_radius must be >= 1")
        ns = range(0, J + 1) if spec.one_sided else range(-J, J + 1)
        try:  # dtype: a generator built from ints yields int abscissas
            xs = np.array([gen.abscissa(n) for n in ns], dtype=float)
            finite = bool(np.all(np.isfinite(xs)))
        except OverflowError:  # a Python float power beyond the floats
            finite = False
        if not finite:
            raise ValueError(f"{gen.kind} comb has an abscissa beyond the floats "
                             f"within window_radius={J}")
        bs = np.full(xs.shape, float(gen.height))

    comb = CombDomain(spec, xs, bs)
    J = comb.window_radius
    if spec.window_radius not in (None, J):
        raise ValueError(f"window_radius={spec.window_radius} inconsistent with "
                         f"{len(xs)} explicit slits (inferred J={J})")
    if np.any(bs < 0.0):
        raise ValueError("negative slit height")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("non-increasing abscissas")
    center = xs[0 if spec.one_sided else J]
    if center != 0.0:
        raise ValueError(f"x_0 must be 0 (normalization), got {center}")
    return comb


def symmetrize(comb: CombDomain) -> CombDomain:
    """Two-sided extension by x_{-n} = -x_n, b_{-n} = b_n (errors if two-sided)."""
    if not comb.one_sided:
        raise ValueError("symmetrize expects a one-sided comb")
    gen = comb.spec.generator
    if isinstance(gen, ExplicitSlits):
        mirrored = tuple(
            (float(-comb.xs[i]), float(comb.bs[i]))
            for i in range(len(comb.xs) - 1, 0, -1)
        ) + tuple((float(x), float(b)) for x, b in zip(comb.xs, comb.bs))
        new_spec = CombSpec(ExplicitSlits(mirrored), one_sided=False)
    else:
        new_spec = CombSpec(gen, window_radius=comb.window_radius, one_sided=False)
    return build_comb(new_spec)


# ---------------------------------------------------------------------------
# JSON configs


_GENERATORS = {cls.kind: cls for cls in
               (UniformGaps, PolynomialGaps, GeometricGaps, ExplicitSlits)}
_SHAPES = {cls.kind: cls for cls in (Rectangle, VerticalStrip, Wedge, HalfPlane)}


def _class_for(table: dict, kind, what: str):
    if isinstance(kind, str) and kind in table:
        return table[kind]
    raise ValueError(f"unknown {what} {kind!r}")


def _object(value, what: str) -> dict:
    """``value`` if it is a JSON object; a ValueError naming ``what`` if not."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A numeric config field as a float.  Only a JSON number is one: not a
    boolean, a string, a list or null, nor an integer beyond the floats."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"config field {name!r} must be a number, got {value!r}")


def _from_fields(cls, cfg: dict):
    """An instance of ``cls`` whose every field is read from ``cfg`` as a float."""
    return cls(**{f.name: _number(cfg[f.name], f.name) for f in fields(cls)})


def _slit_pairs(value) -> tuple[tuple[float, float], ...]:
    """The ``slits`` field of an explicit generator: a list whose every
    entry is an ``[abscissa, height]`` pair of numbers."""
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(s, (list, tuple)) and len(s) == 2 for s in value):
        raise ValueError(f"config field 'slits' must be a list whose every entry "
                         f"is an [abscissa, height] pair, got {value!r}")
    return tuple((_number(x, "slits"), _number(b, "slits")) for x, b in value)


def comb_spec_to_config(spec: CombSpec) -> dict:
    gen = spec.generator
    g = {"kind": gen.kind, **asdict(gen)}
    if isinstance(gen, ExplicitSlits):
        g["slits"] = [[x, b] for x, b in gen.slits]
    cfg = {"generator": g, "one_sided": spec.one_sided}
    if spec.window_radius is not None:
        cfg["window_radius"] = spec.window_radius
    return cfg


def comb_spec_from_config(cfg: dict) -> CombSpec:
    _object(cfg, "comb spec")
    try:
        g = _object(cfg["generator"], "comb spec field 'generator'")
        cls = _class_for(_GENERATORS, g["kind"], "generator kind")
        if cls is ExplicitSlits:
            gen = ExplicitSlits(_slit_pairs(g["slits"]))
        else:
            gen = _from_fields(cls, g)
    except KeyError as exc:
        raise ValueError(f"comb spec missing field {exc.args[0]!r}") from None
    wr = cfg.get("window_radius")
    if wr is not None:
        radius = _number(wr, "window_radius")
        if not math.isfinite(radius):
            raise ValueError(
                f"comb spec field 'window_radius' must be finite, got {wr!r}")
        if not radius.is_integer():
            raise ValueError(
                f"comb spec field 'window_radius' must be an integer, got {wr!r}")
        wr = int(radius)
    one_sided = cfg.get("one_sided", False)
    if not isinstance(one_sided, bool):
        raise ValueError(f"comb spec field 'one_sided' must be a boolean, "
                         f"got {one_sided!r}")
    return CombSpec(gen, window_radius=wr, one_sided=one_sided)


def domain_to_config(domain: SimDomain) -> dict:
    if isinstance(domain, CombDomain):
        return {"type": "comb", "spec": comb_spec_to_config(domain.spec)}
    if type(domain) in _SHAPES.values():
        return {"type": domain.kind, **asdict(domain)}
    raise TypeError(f"unknown domain {domain!r}")


def domain_from_config(cfg: dict) -> SimDomain:
    """Inverse of :func:`domain_to_config`, and the comb of a bare comb spec
    (what :func:`comb_spec_to_config` emits); malformed configs raise
    ValueError."""
    if not {"type", "generator"} & _object(cfg, "domain config").keys():
        raise ValueError("expected a domain config or a comb spec: "
                         "missing field 'type' or 'generator'")
    if "type" not in cfg:
        return build_comb(comb_spec_from_config(cfg))
    kind = cfg["type"]
    try:
        if kind == "comb":
            return build_comb(comb_spec_from_config(cfg["spec"]))
        return _from_fields(_class_for(_SHAPES, kind, "domain type"), cfg)
    except KeyError as exc:
        raise ValueError(f"domain config missing field {exc.args[0]!r}") from None


def domain_fingerprint(domain: SimDomain) -> str:
    """SHA-256 of the canonical JSON encoding of the domain config.

    Ties sample sets and report files to the exact domain they were drawn
    from.  Canonical means sorted keys, no whitespace, and ``repr``-style
    float formatting (shortest round-trip), so the digest is stable across
    runs and platforms.
    """
    payload = json.dumps(domain_to_config(domain), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()
