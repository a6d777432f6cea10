"""Monte Carlo samplers for planar Brownian exit times.

Two independent engines share one sampling contract and one boundary:
both read the domain's ``lines`` (``geometry.BoundaryLines``, oriented
lines cut by the domain's single exit rule), so they stop on the same set
and cross-validate each other.

``EulerBridge``
    Fixed-step Euler scheme on the full plane with Brownian-bridge crossing
    tests against every nearby boundary line.  A crossing exits when it
    meets the boundary part of its line (any crossing does, for a convex
    domain), and the exit point is the nearest boundary point on that line;
    other crossings are tooth passages.  Between consecutive grid
    points the path is a Brownian bridge, so a line at signed distances
    ``d0, d1`` (same side) is crossed with probability ``exp(-2*d0*d1/h)``;
    sign changes are crossings with certainty.  A crossing's time follows
    its exact law: the bridge first hits the line at the fraction
    ``s / (1 + s)`` of the step, with ``s`` inverse Gaussian of mean
    ``|d0| / |d1|`` and shape ``d0**2 / h`` (``_crossing_fraction``, drawn by
    Michael, Schucany & Haas 1976).  A path starting 0.3 from a line and
    ending 0.2 past it after ``h = 1`` first hits it at a mean fraction of
    0.263, where the linear fraction ``d0 / (d0 - d1)`` says 0.60.  For a
    convex domain cut by one line (the half-plane) the crossing test and
    the exit time are then exact at any step, so its default step is
    ``scale**2 / 4``, the largest the guard accepts; every other domain
    defaults to ``scale**2 / 25``.  With several lines each is tested on
    its own, once per step, and crossings within a step are resolved in
    fractional-time order, so multi-line events (comb teeth) are
    attributed to the first line hit.  That misses a bridge that crosses a
    comb's line in the gap near a tooth's tip and touches the tooth later
    in the same step, so near tips the passages are undercounted and the
    exit time runs long.  From (0.5, 0) in the uniform comb with gap 1 and
    ``window_radius`` 60, at the default ``h = 0.04`` and 40k samples per
    engine (seed 9), EulerBridge's E[tau] exceeds WosTime's by +13.6%,
    +9.4% and +2.1% at tooth heights 0.25, 1 and 4 (23, 16 and 4 combined
    standard errors).  Under the earlier crossing-time rules (a uniform
    fraction for a same-side crossing, the linear one for a sign change) it
    read +14.1%, +9.5% and +3.0%, so the exact times do not reduce it; at
    height 1 it shrank like ``sqrt(h)`` there.  On a rectangle the same
    one-line-at-a-time test puts exits exactly on corners, where harmonic
    measure has no mass: a step whose bridge reaches one side's line beyond
    the corner exits on that line, and ``lines.snap`` clips the point to
    the corner.  From the centre of ``Rectangle(1, 1)`` (40k samples, seed
    31) 1.88%, 1.34% and 0.33% of exits land on a corner at ``step_h``
    0.25, 0.16 and the default 0.04.  The walk never depends on
    a crossing (a non-exit passage does not move it), so the kernel
    evaluates a window of many steps per numpy pass: positions are running
    sums of the drawn increments, and each lane stops at the first step in
    the window that exits or hits a cap.  Live lanes share one clock (they
    start together and step in lockstep), so time and step count are one
    running sum per window.  Only one product per lane, step and line is dense; the
    crossing test runs at the pairs where ``exp(-2*d0*d1/h)`` reaches
    ``2**-53``, and the crossing fraction, the bridge point and the exit
    test at the crossings alone.

``WosTime``
    Walk-on-spheres with clocks.  Each jump moves to a uniform point on the
    largest centered circle inside the domain (radius ``lines.distance``)
    and advances time by ``r**2 * T`` where ``T`` is an exact draw from the
    unit-disk exit-time law (inverse-CDF table from :mod:`combexit.series`,
    evaluated in numpy).
    The walk stops inside a ``shell_eps`` collar and snaps to the nearest
    boundary point (``lines.nearest``) with zero residual time, a bias of
    order ``shell_eps`` in the clock (on the unit strip the mean is low by
    about 0.053 at ``shell_eps`` 0.08 and 0.013 at 0.02).  A sample range
    streams through one pool of at most ``_WOS_POOL`` lanes (``_wos_range``),
    packed in dense arrays in sample order; finished lanes drop out in one
    gather, and whenever half the pool is free the next samples join at its
    end.  A jump's two uniforms are SplitMix64 hashes of the lane's key and
    its jump count, so a lane carries one key word and no generator state.

One hash, SplitMix64, runs from the seed to every variate.  Sample ``i``
of a batch has one key, output ``i`` of SplitMix64 seeded with the mixed
``master_seed`` (``_sample_keys``).  Every variate of either engine is a
SplitMix64 hash of that key and a counter that names the
variate (``_splitmix64``, where both engines' counter layouts and their
range are stated), computed only where the variate is read, so a lane
carries its key and no generator state.  A WosTime jump reads two
uniforms: its angle and its disk-law time.  An EulerBridge step reads one
Box-Muller pair for its path (``_box_muller``); at a line it may cross it
reads the crossing test's uniform, and at a crossing the crossing time's
uniform and a Box-Muller pair for the crossing time's normal and the
bridge normal.  A pair crosses when its uniform ``u``, a multiple of
``2**-53`` in (0, 1], is at most ``exp(-2*d0*d1/h)``; no pair where that is
below ``2**-53`` can pass, so ``u`` is hashed only at the pairs where it is
not.  Every direction, a WosTime jump's and a Box-Muller pair's, comes from
one helper, ``_on_circle``.

Both engines run a sample range through one function of the same shape,
``_euler_range`` and ``_wos_range``, which return the range's columns.

``TestSeeding`` and ``TestCrossingVariates`` pin the keys and the hash to
a SplitMix64 reference and the EulerBridge path to a Box-Muller of its
hashed uniforms.  Results are therefore bit-identical for any worker
count or batch partitioning, and individual samples can be replayed in
isolation.  How many lanes run together, when a WosTime lane
joins the pool and how many steps an EulerBridge pass evaluates only
regroup arithmetic on the same variates, so they never change a sample.

Results are numpy columns (``SampleSet``); per-sample ``ExitSample``
records are built only on request.  Passage counts are recorded for comb
domains only: ``passages`` is the number of distinct-line tooth crossings
including the final exit crossing, so ``passages > j`` exactly when the
path survives ``j`` tooth passages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat

import numpy as np

from .geometry import CombDomain, SimDomain, domain_fingerprint
from .series import default_disk_law

__all__ = [
    "SimParams",
    "ExitSample",
    "SampleSet",
    "WindowEscapeError",
    "simulate_exit",
    "run_batch",
]

_ENGINES = ("EulerBridge", "WosTime")

# Lane widths: ``_euler_range`` runs a sample range in chunks of
# ``_CHUNK`` lanes in lockstep, and ``_wos_range`` streams one through a
# pool of at most ``_WOS_POOL`` lanes, starting the next samples whenever
# half the pool is free.  Every variate is a hash of the sample's key and
# its own counter, so a width bounds working memory and sets how many lanes
# share a numpy pass, but never changes a sample (only which sample a
# WosTime window escape names, see ``_wos_range``).  A WosTime lane holds
# six scalars, so its pool is wide, which spreads each pass's fixed numpy
# cost over more jumps.  In 200k-sample strip batches (2 vCPU) 4096 lanes
# took 0.45 s, 8192 0.35 s, and 16384, 32768 and 65536 lanes 0.26-0.31 s,
# within noise of each other.  An EulerBridge pass evaluates a window of
# ``min(span, _LANE_STEPS // live_lanes)`` steps, at least one, where
# ``span`` starts at ``_WINDOW_START`` and doubles each pass of a chunk.
# ``_LANE_STEPS`` bounds a pass's dense arrays, which every pass of a range
# views in one ``_Workspace``: for ``P = lanes * steps <= _LANE_STEPS``
# lane-steps (``lanes`` at one-step windows) and ``S`` line slots, the path
# normals and positions take about ``32 P`` bytes and the offsets, their
# products and the ``near`` mask ``17 S P`` (``26 S P`` with per-step slot
# windows).  At ``1 << 14`` and 4096 lanes that is 0.9 MiB on the
# half-plane (S = 1) and 3.0 MiB on a six-slot comb; a pass's crossing
# lists come on top.  The tracemalloc peak of an 8192-sample ``run_batch``
# (2 vCPU, numpy 2.4) is 2.59 MiB on the half-plane and 6.40 MiB on the
# uniform comb, against 5.32 and 13.18 MiB with fresh arrays per pass at
# ``1 << 15``; ``simulate`` of those batches peaks at 36.8 and 41.3 MiB
# RSS, against 40.3 and 53.8 MiB.  Short windows pay numpy's fixed cost
# per lane more often: 4096 lanes that all live run 4-step windows, 23%
# fewer steps a second than 8-step ones, and at ``1 << 13`` the half-plane
# batch ran 28% slower for 0.4 MiB less.  The pass budget lets a few
# long-lived lanes cost a few passes instead of one pass per step; the
# doubling start keeps a short-lived chunk (a single-sample replay) from
# hashing steps it never takes.  The hashed crossing variates and the
# bridge arithmetic run only at the pairs and crossings they concern.  The
# live lanes of a chunk share one clock, so a window's times and cap tests
# are one row for all of them.  Windows only regroup the same variates, so
# no sample depends on these constants.
_CHUNK = 4096
_WOS_POOL = 16384
_LANE_STEPS = 1 << 14
_WINDOW_START = 32

# Crossing tests only see lines whose current slot window contains them.
# With step_h <= min_gap**2 / 25 a six-slot window reaches two full gaps
# (at least ten step standard deviations) past the current position on both
# sides, so the per-step probability of brushing an unseen line is below
# exp(-200); sub-slot combs just enumerate every line.
_COMB_SLOTS = 6
_SLOT_OFFSETS = np.arange(-3, 3, dtype=np.int64)

# A step crosses a line when its crossing uniform, at least 2**-53, is at
# most exp(-2 * d0 * d1 / h).  exp(-2 * 18.4) is below 2**-53 (which is
# exp(-36.74)), so pairs with d0 * d1 >= _FAR * h never cross.
_FAR = 18.4

class WindowEscapeError(RuntimeError):
    """A trajectory left the materialized window of a truncated comb.

    Samples beyond the outermost materialized slit would interact with
    teeth the window does not contain, so the whole batch is invalid
    rather than silently biased.
    """


@dataclass(frozen=True)
class SimParams:
    """Sampler configuration.

    ``step_h`` and ``shell_eps`` default to None and are resolved per
    domain at run time from its ``scale()`` (a comb's ``min_gap``):
    ``step_h = scale**2 / 4`` for a convex domain cut by one line (the
    half-plane, where EulerBridge is exact at any step) and
    ``scale**2 / 25`` otherwise, and ``shell_eps = 1e-4 * scale``.
    Resolved values are echoed back in the ``SampleSet`` so a run is
    reproducible from its report alone.
    """

    engine: str = "EulerBridge"
    step_h: float | None = None
    shell_eps: float | None = None
    time_cap: float = 1e4
    max_steps: int = 10_000_000
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        for name in ("step_h", "shell_eps", "time_cap"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got a bool")
        if self.step_h is not None and not self.step_h > 0.0:
            raise ValueError("step_h must be positive")
        if self.shell_eps is not None and not self.shell_eps > 0.0:
            raise ValueError("shell_eps must be positive")
        if not self.time_cap > 0.0:
            raise ValueError("time_cap must be positive")
        for name in ("master_seed", "max_steps", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0 <= int(self.master_seed) < 2**63:
            raise ValueError("master_seed must be a nonnegative 63-bit integer")


@dataclass(frozen=True)
class ExitSample:
    """One trajectory: exit time, exit point, and bookkeeping.

    ``censored`` marks trajectories stopped at ``time_cap`` or
    ``max_steps``; their ``tau`` is the cap value (a lower bound) and
    ``exit_point`` is the last interior position.  ``passages`` is None
    except for comb domains under EulerBridge.
    """

    tau: float
    exit_point: tuple[float, float]
    censored: bool
    passages: int | None
    steps: int
    engine: str


@dataclass(frozen=True, eq=False)
class SampleSet:
    """A batch of samples as numpy columns, plus everything needed to
    regenerate it.

    Row ``i`` of every column is sample ``i``: ``tau``, the exit point
    ``u``, ``v``, the ``censor`` mask, ``passages`` (None unless tracked) and
    ``steps``, with the meanings ``ExitSample`` documents.  Estimators and
    the CSV codec read the columns; ``samples`` builds the ``ExitSample``
    records on first access.
    """

    tau: np.ndarray
    u: np.ndarray
    v: np.ndarray
    censor: np.ndarray
    passages: np.ndarray | None
    steps: np.ndarray
    domain_fingerprint: str
    params: SimParams

    @property
    def total(self) -> int:
        return int(self.tau.size)

    @property
    def censored(self) -> int:
        """Number of censored samples."""
        return int(np.count_nonzero(self.censor))

    @cached_property
    def samples(self) -> tuple[ExitSample, ...]:
        passages = repeat(None) if self.passages is None else self.passages.tolist()
        return tuple(
            ExitSample(tau, (u, v), censored, j, steps, self.params.engine)
            for tau, u, v, censored, j, steps in zip(
                self.tau.tolist(), self.u.tolist(), self.v.tolist(),
                self.censor.tolist(), passages, self.steps.tolist())
        )


# ---------------------------------------------------------------------------
# parameter resolution


def _resolve_step_h(params: SimParams, domain: SimDomain) -> float:
    scale = domain.scale()
    lines = domain.lines
    # A convex domain cut by one line (the half-plane) is exact at any step,
    # so it takes the largest step the guard below accepts.
    one_line = lines.convex and len(lines.c) == 1
    h = params.step_h
    if h is None:
        h = scale * scale / (4.0 if one_line else 25.0)
    if h > scale * scale / 4.0:
        raise ValueError(
            f"step_h={h:g} exceeds scale**2/4={scale * scale / 4.0:g}; "
            "crossing tests need several steps per gap width"
        )
    return h

def _resolve_shell_eps(params: SimParams, domain: SimDomain) -> float:
    scale = domain.scale()
    eps = params.shell_eps if params.shell_eps is not None else 1e-4 * scale
    if eps >= scale / 10.0:
        raise ValueError(
            f"shell_eps={eps:g} must stay below scale/10={scale / 10.0:g}; "
            "a wide stopping collar distorts small exit times"
        )
    return eps


def _escape_window(domain: SimDomain) -> tuple[float, float]:
    """Abscissas a sample must stay between: the outermost materialized
    slits of a truncated comb, the wall of a one-sided one."""
    if not isinstance(domain, CombDomain):
        return -np.inf, np.inf
    lo = domain.xs[0] if domain.truncated or domain.one_sided else -np.inf
    hi = domain.xs[-1] if domain.truncated else np.inf
    return lo, hi


def _window_escape(index: int, window: tuple[float, float]) -> WindowEscapeError:
    """The error for sample ``index`` leaving ``window``."""
    lo, hi = window
    return WindowEscapeError(
        f"sample {index} left the materialized window [{lo:g}, {hi:g}]; "
        "rebuild the comb with a larger window_radius before sampling")


# ---------------------------------------------------------------------------
# counter-addressed variates


# Variates are hashes of where they are read (Salmon et al., "Parallel
# random numbers: as easy as 1, 2, 3", SC'11): output ``c`` of SplitMix64
# (Steele, Lea & Flood, OOPSLA 2014) seeded with the sample's key
# (``_sample_keys``), for a counter ``c`` that names the variate.
#
# * WosTime: jump ``k`` of a sample (counted from 0) reads output ``2k``
#   for its angle and ``2k + 1`` for its disk-law time.
# * EulerBridge path: step ``k`` reads the Box-Muller pair of outputs
#   ``2**63 + 2k`` (its radius) and ``2**63 + 2k + 1`` (its angle); the
#   cosine half is the step's u normal and the sine half its v normal.
# * EulerBridge crossings: variate ``j`` of line ``l`` (its index in
#   ``lines.c``) at step ``k`` is output ``4 * (k * len(lines.c) + l) + j``.
#   Slot 0 is the crossing test's uniform, slot 1 the crossing time's
#   uniform, and slots 2 and 3 a Box-Muller pair whose sine half is the
#   crossing time's normal and whose cosine half is the bridge normal.
#
# The path counters are at least 2**63, and the crossing counters stay
# below it (the path ones below 2**64) while ``(k + 1) * len(lines.c) <=
# 2**61``, far beyond any ``max_steps`` that runs in practice.  The state
# advances by an odd constant and the mix is a bijection, so a sample never
# reads one word twice while its counters are distinct and below 2**64.
# The keys are SplitMix64 outputs too (``_sample_keys``), so one master
# seed's keys are distinct, and two master seeds' first ``n`` keys share a
# word only when their mixed seed words differ by ``m * gamma`` with
# ``|m| < n``: probability at most about ``2n / 2**64``.  Taking the keys
# as random 64-bit words, two samples that read ``C1`` and ``C2`` outputs,
# each from one run of consecutive counters, pass through a common state
# with probability at most ``(C1 + C2) / 2**64``, so a WosTime batch of
# ``n`` samples that reads ``D`` outputs in all does so with probability at
# most ``n * D / 2**64`` (about 2**-24 for 200k strip samples).  An
# EulerBridge sample reads two runs, its crossing and its path counters,
# which doubles both bounds.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _splitmix64(key, counter, out=None, scratch=None):
    """Output ``counter`` (from 0) of SplitMix64 seeded with ``key``, on
    uint64 arrays: the mix of the state ``key + (counter + 1) * gamma``.
    ``out`` takes the words and ``scratch`` their shifts, both uint64
    arrays of the broadcast shape; without them numpy allocates."""
    z = np.add(key, (counter + np.uint64(1)) * _GOLDEN, out=out)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _sample_keys(master_seed: int, indices) -> np.ndarray:
    """The hash keys of samples ``indices`` (each below 2**63), as a uint64
    array: output ``i`` of SplitMix64 seeded with output 0 of SplitMix64
    seeded with ``master_seed``.  Mixing the seed first keeps two seeds
    that differ by a multiple of the golden increment from giving the same
    keys at shifted indices."""
    seed = _splitmix64(np.array([master_seed], dtype=np.uint64), np.uint64(0))
    return _splitmix64(seed, np.asarray(indices, dtype=np.uint64))


def _uniform(key, counter, out=None, words=None):
    """The double in (0, 1] that ``_splitmix64(key, counter)`` gives: its
    top 53 bits plus one, times 2**-53.  It is never 0, so its log is
    finite and it never passes a test ``u <= p`` with ``p < 2**-53``.
    ``out`` (float64) takes the doubles and ``words`` (uint64) the hash;
    ``out`` doubles as the hash's scratch until the doubles overwrite it.
    Here and in ``_on_circle`` and ``_box_muller`` each step writes to the
    caller's buffer or, without one, to a fresh array, never in place into
    a fresh one: on the one-lane arrays of a replay an in-place ufunc call
    costs about twice as much."""
    z = _splitmix64(key, counter, words,
                    None if out is None else out.view(np.uint64))
    z = np.add(np.right_shift(z, np.uint64(11), out=words), np.uint64(1),
               out=words)
    return np.multiply(z, 2.0**-53, out=out)


_PATH = np.uint64(2**63)   # first counter of the EulerBridge path pairs


def _on_circle(radius, u, out=None):
    """The point at ``radius`` from the origin in the direction of the
    angle ``2 pi (u - 1/2)``, uniform on (-pi, pi] for a uniform ``u``, as
    ``(radius * cos, radius * sin)``.

    Both are computed from the tangent ``g`` of the half angle: cos =
    ``(1 - g**2) / (1 + g**2)`` and sin = ``2 g / (1 + g**2)``.  numpy 2.4 on
    x86-64 vectorizes float64 tan but not cos and sin, which cost about
    20 ns a double each.

    ``out``, three float64 arrays of the result's shape, takes the cosine
    half, the sine half and the scale ``radius / (1 + g**2)``; the third
    may be ``u`` itself, which is read first.  Without it numpy allocates.
    """
    cos, sin, scale = (None, None, None) if out is None else out
    g = np.tan(np.multiply(math.pi, np.subtract(u, 0.5, out=sin), out=sin),
               out=sin)
    g2 = np.multiply(g, g, out=cos)
    scale = np.divide(radius, np.add(1.0, g2, out=scale), out=scale)
    return (np.multiply(scale, np.subtract(1.0, g2, out=cos), out=cos),
            np.multiply(scale, np.multiply(2.0, g, out=sin), out=sin))


def _box_muller(key, counter, out=None, scratch=None):
    """A pair of independent standard normals from the uniforms
    ``_uniform(key, counter)`` (the radius) and ``_uniform(key, counter +
    1)`` (the angle), as ``(cosine half, sine half)``.

    ``out``, two float64 arrays of the broadcast shape, takes the halves,
    and ``scratch``, a float64, a float64 and a uint64 array of that shape,
    holds the radius, the angle (then the scale) and the hash words.
    Without them numpy allocates.
    """
    rho, angle, words = (None, None, None) if scratch is None else scratch
    rho = np.sqrt(np.multiply(
        -2.0, np.log(_uniform(key, counter, rho, words), out=rho), out=rho),
        out=rho)
    angle = _uniform(key, counter + np.uint64(1), angle, words)
    return _on_circle(rho, angle, None if out is None else (*out, angle))


# ---------------------------------------------------------------------------
# EulerBridge driver and kernel


class _Workspace:
    """Named flat buffers that every pass of ``_euler_range`` views at its
    own shape: ``take`` returns the first ``prod(shape)`` entries.  A
    buffer is allocated at its first use and again only when a pass needs
    more entries than any before it, so the passes of a range reuse the
    same memory instead of asking the allocator for fresh arrays."""

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _walk(x0, normals, scale, out):
    """The positions ``[x0, x0 + dx[0], (x0 + dx[0]) + dx[1], ...]`` along
    axis 1 of ``out``, for the increments ``dx = scale * normals``.

    ``add.accumulate`` adds strictly left to right, so every entry has the
    bits that stepping one increment at a time would give.
    """
    out[:, 0] = x0
    np.multiply(normals, scale, out=out[:, 1:])
    return np.add.accumulate(out, axis=1, out=out)


def _crossing_fraction(x, y, h, nu, u):
    """The fraction of a step at which a Brownian bridge first hits a line,
    given that it does, from a standard normal ``nu`` and a uniform ``u``.

    The bridge runs over time ``h`` from distance ``x`` to distance ``y``
    of the line, on either side of it; ``x`` and ``y`` are not both 0.
    Its first hit comes at ``s / (1 + s)`` of the step, where ``s`` is
    inverse Gaussian with mean ``mu = x / y`` and shape ``x**2 / h``: the
    density ``x exp(-x**2 / 2t) / sqrt(2 pi t**3)`` of the first hit at
    ``t``, times the density of going on from the line to ``y`` (or to its
    mirror image), in ``s = t / (h - t)``.  Michael, Schucany & Haas (1976)
    draw ``s``: of the two roots ``mu / r`` and ``mu * r`` with ``r = 1 + a
    + sqrt(a**2 + 2a)``, ``a = mu * nu**2 * h / (2 x**2)``, take the first
    when ``u * (mu + mu / r) <= mu``.  This root form has no cancellation.
    At ``y = 0`` the draw is ``s = inf`` and the fraction 1; at ``x = 0``
    it is 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = x / y
        a = nu * nu * h / (2.0 * x * y)   # mu * nu**2 * h / (2 x**2)
        r = 1.0 + a + np.sqrt(a * (a + 2.0))
        s = np.where(u * (mu + mu / r) <= mu, mu / r, mu * r)
        return 1.0 / (1.0 + 1.0 / s)


def _euler_range(domain: SimDomain, start, params: SimParams, lo: int, hi: int):
    """Bridge-corrected Euler for samples ``lo..hi-1``, in chunks of at most
    ``_CHUNK`` lanes; returns their columns.

    Lane state (``u``, ``v`` and the passage bookkeeping) and the result
    columns are arrays indexed by range row, and ``act`` holds the rows of
    the chunk's running lanes.  Every lane of a chunk starts at t = 0 and
    they step in lockstep, so the running lanes share one clock: the
    chunk's step count ``done`` and time ``t`` are scalars.

    Each pass evaluates a window of ``W`` steps for the lanes still
    running (``_WINDOW_START`` gives its length).  The window's path
    normals are hashed for all of them in one call, from ``keys`` (one per
    range row) and the global steps ``done .. done + W - 1``, so a lane's
    path does not depend on the chunk or window it runs in.  Only the path,
    the signed offsets of the ``W + 1`` positions from the ``S`` lines and
    the product of consecutive offsets are dense, on ``(lanes, W)`` and
    ``(lanes, W, S)`` arrays, all views of one ``_Workspace`` for the whole
    range, so each pass overwrites the previous pass's arrays instead of
    allocating its own.  The pairs whose product is small enough for
    ``exp(-2*d0*d1/h)`` to reach ``2**-53`` become a list, in lane, step and
    slot order; their crossing uniforms are hashed from the lane's key,
    the global step ``done + w`` and the line, and tested.  The
    crossing fraction, the bridge point and the exit test are computed for
    the crossings that pass, sorted into time order within each step.
    Whatever a lane computes after its first exit or cap hit in the window
    is discarded.
    """
    lines = domain.lines
    track_passages = isinstance(domain, CombDomain)
    window = _escape_window(domain)
    w_lo, w_hi = window
    windowed = np.isfinite(w_lo) or np.isfinite(w_hi)
    h, time_cap, max_steps = params.step_h, params.time_cap, params.max_steps
    n_lines = len(lines.c)
    S = min(_COMB_SLOTS, n_lines) if lines.vertical else n_lines
    dynamic = lines.vertical and n_lines > _COMB_SLOTS
    sqrt_h = math.sqrt(h)

    n = hi - lo
    u, v = np.full(n, start[0]), np.full(n, start[1])
    steps = np.zeros(n, dtype=np.int64)
    passages = np.zeros(n, dtype=np.int64)
    last_line = np.full(n, -1, dtype=np.int64)
    tau, eu, ev = np.zeros(n), np.zeros(n), np.zeros(n)
    censor = np.zeros(n, dtype=bool)

    def finish(idx, t_end, pu, pv, censored):
        tau[idx], eu[idx], ev[idx], censor[idx] = t_end, pu, pv, censored

    ws = _Workspace()
    keys = np.zeros(n, dtype=np.uint64)
    for c0 in range(0, n, _CHUNK):
        act = np.arange(c0, min(n, c0 + _CHUNK))
        keys[act] = _sample_keys(params.master_seed, lo + act)
        t, done, span = 0.0, 0, _WINDOW_START
        while act.size:
            L = act.size
            W = min(span, max(1, _LANE_STEPS // L))
            span *= 2
            # The Box-Muller scratch borrows the buffers that the positions
            # and the offsets' products fill later in the pass.
            zu, zv = _box_muller(
                keys[act, None],
                _PATH + np.arange(2 * done, 2 * (done + W), 2, dtype=np.uint64),
                out=(ws.take("zu", (L, W)), ws.take("zv", (L, W))),
                scratch=(ws.take("U", (L, W)), ws.take("V", (L, W)),
                         ws.take("prod", (L, W)).view(np.uint64)))
            U = _walk(u[act], zu, sqrt_h, ws.take("U", (L, W + 1)))
            V = _walk(v[act], zv, sqrt_h, ws.take("V", (L, W + 1)))
            tt = np.full(W + 1, h)
            tt[0] = t
            np.add.accumulate(tt, out=tt)

            # signed offsets before (d0) and after (d1) each step
            near = ws.take("near", (L, W, S), bool)
            if dynamic:
                # slot s of step w is line base[w] + _SLOT_OFFSETS[s]; the
                # slots live in the products' buffer until the products
                # overwrite them.  A slot beyond the ends reads an end line
                # (``mode="clip"``) and ``valid`` drops it.
                base = np.searchsorted(lines.c, U[:, :-1])
                slot = np.add(base[..., None], _SLOT_OFFSETS,
                              out=ws.take("prod", (L, W, S)).view(np.int64))
                valid = np.less(slot, n_lines,
                                out=ws.take("valid", (L, W, S), bool))
                valid &= np.greater_equal(slot, 0, out=near)
                c_slot = lines.c.take(slot, mode="clip",
                                      out=ws.take("d1", (L, W, S)))
                d0 = np.subtract(U[:, :-1, None], c_slot,
                                 out=ws.take("d0", (L, W, S)))
                d1 = np.subtract(U[:, 1:, None], c_slot, out=c_slot)
            else:
                D = ws.take("D", (L, W + 1, S))
                if lines.vertical:
                    np.subtract(U[..., None], lines.c, out=D)
                else:
                    np.multiply(lines.nx, U[..., None], out=D)
                    D += np.multiply(lines.ny, V[..., None],
                                     out=ws.take("prod", (L, W + 1, S)))
                    D -= lines.c
                d0, d1 = D[:, :-1], D[:, 1:]

            # A pair crosses when its slot-0 uniform is at most
            # exp(-2*d0*d1/h).  Only the pairs ``near`` finds can pass,
            # so the uniforms and the exp are computed for those alone.
            # A sign change (prod < 0) gives above 1, so it always
            # crosses.
            prod = np.multiply(d0, d1, out=ws.take("prod", (L, W, S)))
            np.less(prod, _FAR * h, out=near)
            if dynamic:
                near &= valid
            flat = np.flatnonzero(near)
            li, si = np.divmod(flat, S)
            line = base.ravel()[li] + _SLOT_OFFSETS[si] if dynamic else si
            li, wi = np.divmod(li, W)
            key = keys[act[li]]
            counter = (4 * ((done + wi) * n_lines + line)).astype(np.uint64)
            with np.errstate(over="ignore"):
                c = np.flatnonzero(_uniform(key, counter)
                                   <= np.exp(-2.0 * prod.ravel()[flat] / h))
            li, wi, si, line, key, counter = (
                a[c] for a in (li, wi, si, line, key, counter))

            # The crossings as a list: fraction, bridge point on the
            # line, and whether it meets the line's boundary part.  The
            # fraction is drawn from its exact law by the slot-1 uniform
            # and the sine half of the slot-2/3 Box-Muller pair; the
            # cosine half is the bridge normal.  A convex domain is left
            # at every crossing.
            z, nu = _box_muller(key, counter + np.uint64(2))
            f = _crossing_fraction(
                np.abs(d0[li, wi, si]), np.abs(d1[li, wi, si]), h,
                nu, _uniform(key, counter + np.uint64(1)))
            bridge_sd = np.sqrt(h * f * (1.0 - f))
            dv = sqrt_h * zv[li, wi]
            if lines.vertical:
                along = V[li, wi] + f * dv + bridge_sd * z
            else:
                ax, ay = lines.ax[line], lines.ay[line]
                du = sqrt_h * zu[li, wi]
                along = (ax * U[li, wi] + ay * V[li, wi]
                         + f * (ax * du + ay * dv) + bridge_sd * z)
            if lines.convex:
                exits = np.ones(li.size, dtype=bool)
            else:
                exits = lines.gap(along, lines.par[line]) <= 0.0
            # Time order within each step: the list is in slot order
            # within a step and the sort is stable, so tied fractions
            # keep their slot order.
            step = li * W + wi
            if (step[1:] == step[:-1]).any():
                o = np.lexsort((f, step))
                li, wi, line, f, along, exits = (
                    a[o] for a in (li, wi, line, f, along, exits))

            # The first exit of a lane ends it, unless the shared clock
            # hits a cap at an earlier step.  A step's exit is resolved
            # before its cap check; an exit later than ``time_cap`` is
            # censored below.
            x = np.flatnonzero(exits)
            x = x[np.r_[True, li[x[1:]] != li[x[:-1]]]] if x.size else x
            first_exit = np.full(L, li.size)
            first_exit[li[x]] = x
            j_exit = np.full(L, W + 1)
            j_exit[li[x]] = wi[x]
            cap = ((tt[1:] >= time_cap)
                   | (np.arange(done + 1, done + W + 1) >= max_steps))
            j_end = np.minimum(j_exit, cap.argmax() if cap.any() else W)
            by_exit = j_exit == j_end
            finished = j_end < W

            if windowed:
                # Name the lane that stepping one step at a time would
                # stop at: earliest step, then lowest index, among lanes
                # that stand outside the window after a step they did
                # not exit on.
                out = (U[:, 1:] < w_lo) | (U[:, 1:] > w_hi)
                out &= np.arange(W) < (j_end + ~by_exit)[:, None]
                if out.any():
                    k = out.any(axis=0).argmax()
                    raise _window_escape(lo + int(act[out[:, k].argmax()]),
                                         window)

            if track_passages:
                # Passage events (comb lines are all slits): the
                # crossings before each lane's first exit, up to its
                # last step.  An event passes a tooth when its line
                # differs from the lane's previous event's.
                e = np.flatnonzero(~exits & (wi <= j_end[li])
                                   & (np.arange(li.size) < first_exit[li]))
                if e.size:
                    el, eline = li[e], line[e]
                    head = np.r_[True, el[1:] != el[:-1]]
                    prev = np.r_[-1, eline[:-1]]
                    prev[head] = last_line[act[el[head]]]
                    passages[act] += np.bincount(el[eline != prev], minlength=L)
                    tail = np.r_[head[1:], True]
                    last_line[act[el[tail]]] = eline[tail]

            w = np.flatnonzero(by_exit)
            if w.size:
                xw = first_exit[w]
                jw = j_end[w]
                t_exit = tt[jw] + f[xw] * h
                # a path that exits after the cap survived to it: censor
                # it at the cap, at the last grid position before the
                # exit step
                late = t_exit > time_cap
                if late.any():
                    wl = w[late]
                    finish(act[wl], time_cap, U[wl, jw[late]],
                           V[wl, jw[late]], True)
                    w, xw, t_exit = (a[~late] for a in (w, xw, t_exit))
                lw = line[xw]
                px, py = lines.snap(lw, along[xw])
                finish(act[w], t_exit, px, py, False)
                if track_passages:
                    passages[act[w]] += (
                        lw != last_line[act[w]]).astype(np.int64)

            c = np.flatnonzero(finished & ~by_exit)
            if c.size:
                jc = j_end[c] + 1
                finish(act[c], np.minimum(tt[jc], time_cap),
                       U[c, jc], V[c, jc], True)

            steps[act[finished]] = done + j_end[finished] + 1
            run = ~finished
            u[act[run]] = U[run, W]
            v[act[run]] = V[run, W]
            t, done = tt[W], done + W
            act = act[run]
    return tau, eu, ev, censor, passages if track_passages else None, steps


# ---------------------------------------------------------------------------
# WosTime driver and kernel


def _wos_range(domain: SimDomain, start, params: SimParams, lo: int, hi: int):
    """Walk-on-spheres for samples ``lo..hi-1``, one jump per pass of a
    pool of at most ``_WOS_POOL`` lanes; returns their columns.

    The running lanes are packed in dense arrays in sample order: their
    result rows ``row`` and their ``u``, ``v``, ``t``, ``steps`` and hash
    ``key`` (``_sample_keys``).  Jump ``k`` of a lane, ``k`` its ``steps``,
    hashes its angle and time uniforms from its key and counters ``2k`` and
    ``2k + 1``.  A lane that reaches the shell or a cap writes its result
    row (its ``steps`` included) the jump it does so and leaves the pool.
    Whenever at most half the pool runs and samples wait, the next ones
    join at the end.  A lane's draws and arithmetic never depend on the
    other lanes, so when it joins does not change its sample.

    Survivors and newcomers stay in index order, so a window escape names
    the lowest index among the lanes out of the window at the earliest
    pass.  In a range of at most ``_WOS_POOL`` samples, which the pool
    takes in one fill, that is the lowest index out at the earliest jump.
    In a longer range a sample that joined later can be named ahead of a
    lower index that leaves the window at a later pass.
    """
    lines = domain.lines
    window = _escape_window(domain)
    w_lo, w_hi = window
    windowed = np.isfinite(w_lo) or np.isfinite(w_hi)
    eps, time_cap, max_steps = params.shell_eps, params.time_cap, params.max_steps
    table = default_disk_law()
    slots = np.arange(2, dtype=np.uint64)[:, None]

    n = hi - lo
    tau, eu, ev = np.zeros(n), np.zeros(n), np.zeros(n)
    censor = np.zeros(n, dtype=bool)
    steps_out = np.zeros(n, dtype=np.int64)

    row = np.zeros(0, dtype=np.int64)
    u, v, t = np.zeros(0), np.zeros(0), np.zeros(0)
    steps = np.zeros(0, dtype=np.int64)
    key = np.zeros(0, dtype=np.uint64)
    queued = 0      # rows that have joined the pool
    while queued < n or row.size:
        if queued < n and row.size <= _WOS_POOL // 2:
            new = np.arange(queued, min(n, queued + _WOS_POOL - row.size))
            queued += new.size
            fresh = (new, np.full(new.size, start[0]), np.full(new.size, start[1]),
                     np.zeros(new.size), np.zeros(new.size, dtype=np.int64),
                     _sample_keys(params.master_seed, lo + new))
            row, u, v, t, steps, key = (
                np.concatenate([a, b])
                for a, b in zip((row, u, v, t, steps, key), fresh))

        r = lines.distance(u, v)
        hit = r < eps
        if hit.any():
            w = row[hit]
            tau[w] = t[hit]
            eu[w], ev[w] = lines.nearest(u[hit], v[hit])
            steps_out[w] = steps[hit]
            keep = np.flatnonzero(~hit)
            row, u, v, t, steps, r, key = (
                a.take(keep) for a in (row, u, v, t, steps, r, key))

        ang_u, time_u = _uniform(key, 2 * steps.astype(np.uint64) + slots)
        du, dv = _on_circle(r, ang_u)
        t += r * r * table.times_from_uniform(time_u)
        u += du
        v += dv
        steps += 1

        if windowed:
            out = (u < w_lo) | (u > w_hi)
            if out.any():
                raise _window_escape(lo + int(row[np.argmax(out)]), window)

        stop = (t >= time_cap) | (steps >= max_steps)
        if stop.any():
            w = row[stop]
            tau[w] = np.minimum(t[stop], time_cap)
            eu[w], ev[w] = u[stop], v[stop]
            censor[w] = True
            steps_out[w] = steps[stop]
            keep = np.flatnonzero(~stop)
            row, u, v, t, steps, key = (
                a.take(keep) for a in (row, u, v, t, steps, key))
    return tau, eu, ev, censor, None, steps_out


# ---------------------------------------------------------------------------
# drivers


def _simulate_range(domain: SimDomain, start, params: SimParams,
                    lo: int, hi: int):
    """Run samples lo..hi-1 and return their columns (top-level so worker
    processes can unpickle it)."""
    run = _wos_range if params.engine == "WosTime" else _euler_range
    return run(domain, start, params, lo, hi)


def _resolve(domain: SimDomain, start, params: SimParams) -> SimParams:
    u0, v0 = float(start[0]), float(start[1])
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise ValueError(f"start point ({u0:g}, {v0:g}) is not finite")
    if not bool(domain.contains(u0, v0)):
        raise ValueError(f"start point ({u0:g}, {v0:g}) is not inside the domain")
    if params.engine == "EulerBridge":
        return replace(params, step_h=_resolve_step_h(params, domain))
    return replace(params, shell_eps=_resolve_shell_eps(params, domain))


def simulate_exit(domain: SimDomain, start, params: SimParams,
                  sample_index: int = 0) -> ExitSample:
    """Simulate a single trajectory.

    ``sample_index`` selects the substream, so
    ``simulate_exit(..., sample_index=i)`` reproduces sample ``i`` of
    ``run_batch`` with the same parameters, bit for bit.
    """
    if (isinstance(sample_index, bool)
            or not isinstance(sample_index, (int, np.integer))
            or not 0 <= sample_index < 2**63):
        raise ValueError("sample_index must be an integer in [0, 2**63), "
                         f"got {sample_index!r}")
    sample_index = int(sample_index)
    resolved = _resolve(domain, start, params)
    cols = _simulate_range(domain, (float(start[0]), float(start[1])),
                           resolved, sample_index, sample_index + 1)
    return SampleSet(*cols, domain_fingerprint(domain), resolved).samples[0]


def run_batch(domain: SimDomain, start, n: int, params: SimParams) -> SampleSet:
    """Simulate ``n`` independent trajectories from ``start``.

    Work is split over ``params.workers`` processes by contiguous index
    range; the per-sample substreams make the output identical for every
    worker count.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    resolved = _resolve(domain, start, params)
    start = (float(start[0]), float(start[1]))

    if resolved.workers == 1 or n < 2 * _CHUNK:
        cols = _simulate_range(domain, start, resolved, 0, n)
    else:
        bounds = np.linspace(0, n, resolved.workers + 1).astype(int)
        ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])
                  if b > a]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=resolved.workers) as pool:
            futures = [pool.submit(_simulate_range, domain, start, resolved,
                                   lo, hi) for lo, hi in ranges]
            parts = [f.result() for f in futures]
        cols = [None if c[0] is None else np.concatenate(c) for c in zip(*parts)]
    return SampleSet(*cols, domain_fingerprint(domain), resolved)
