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
    the window that exits or hits a cap.  A lane's clock is its own step
    count, an index into one table of grid times (``_Clock``).  Only one
    product per lane, step and line is dense; the
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
    about 0.053 at ``shell_eps`` 0.08 and 0.013 at 0.02).  A jump's two
    uniforms are SplitMix64 hashes of the lane's key and its jump count, so
    a lane carries one key word and no generator state.

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

Both engines run a sample range through one lane driver,
``_simulate_range``: it owns the result columns and a pool of lanes that
the next samples join whenever at most half of it runs, and each engine
supplies a kernel (``_euler_passes``, ``_wos_passes``) that advances the
live lanes by one pass and reports where each lane stopped.

``TestSeeding`` and ``TestCrossingVariates`` pin the keys and the hash to
a SplitMix64 reference and the EulerBridge path to a Box-Muller of its
hashed uniforms.  Results are therefore bit-identical for any worker
count or batch partitioning, and individual samples can be replayed in
isolation.  How many lanes run together, when a lane joins the pool and
how many steps an EulerBridge pass evaluates only regroup arithmetic on
the same variates, so they never change a sample.

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

# Pool widths and the pass budget of ``_simulate_range``.  Every variate is
# a hash of the sample's key and its own counter, so these bound working
# memory and set how many lanes share a numpy pass, but never change a
# sample (only which sample a window escape names).  A WosTime lane holds
# seven scalars, so its pool is wide: in 200k-sample strip batches (2 vCPU)
# 4096 lanes took 0.45 s, 8192 0.35 s, and 16384 to 65536 lanes 0.26-0.31 s.
# An EulerBridge pass evaluates ``min(k + _WINDOW_START, _LANE_STEPS //
# lanes)`` steps, at least one, where ``k`` is the youngest live lane's step
# count: a few long-lived lanes cost a few passes, and a short-lived one (a
# single-sample replay) hashes few steps it never takes.  For ``P = lanes *
# steps`` lane-steps and ``S`` line slots a pass's dense arrays take about
# ``32 P`` bytes for the path and ``17 S P`` (``26 S P`` with per-step slot
# windows) for the offsets, their products and the ``near`` mask: 0.9 MiB
# on the half-plane (S = 1) and 3.0 MiB on a six-slot comb at ``1 << 14``,
# plus the crossing lists.  Short windows pay numpy's per-lane cost more
# often: 4096 live lanes run 4-step windows, 23% fewer steps a second than
# 8-step ones, and ``1 << 13`` ran the half-plane batch 28% slower for
# 0.4 MiB less.  EulerBridge refills at half the pool as WosTime does: every
# pinned window escape names the sample it names when lanes join only an
# empty pool, and the uniform-comb batch runs about 8% faster.
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
    reproducible from its report alone; the field of the engine not run
    resolves to None.
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


def _escape_window(domain: SimDomain) -> tuple[float, float] | None:
    """Abscissas a sample must stay between: the outermost materialized
    slits of a truncated comb, the wall of a one-sided one; None where a
    sample may go anywhere."""
    if not (isinstance(domain, CombDomain)
            and (domain.truncated or domain.one_sided)):
        return None
    return domain.xs[0], domain.xs[-1] if domain.truncated else np.inf


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
# EulerBridge kernel


class _Workspace:
    """Named flat buffers that every pass of an EulerBridge range views at
    its own shape: ``take`` returns the first ``prod(shape)`` entries.  A
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


class _Clock:
    """EulerBridge's grid times, one table for every lane: ``upto(k)``
    returns entries ``0..k``, entry ``k`` the bits that adding ``h`` to 0
    one step at a time gives, whichever extensions of the table (each the
    same left-to-right ``add.accumulate``) computed it."""

    def __init__(self, h: float):
        self.h, self.times = h, np.zeros(1)

    def upto(self, k: int) -> np.ndarray:
        if k >= self.times.size:
            more = np.full(k + 2 - self.times.size, self.h)
            more[0] = self.times[-1]
            np.add.accumulate(more, out=more)
            self.times = np.concatenate((self.times, more[1:]))
        return self.times[:k + 1]


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


def _euler_passes(domain: SimDomain, params: SimParams, window):
    """The bridge-corrected Euler kernel (see ``_simulate_range``): each pass
    evaluates a window of ``W`` steps for every live lane.

    Lane ``i``'s grid times are entries ``k[i] .. k[i] + W`` of the range's
    ``_Clock``, and the first cap step (the first count whose time reaches
    ``time_cap``, or ``max_steps``) is one count for every lane.  A lane's
    path normals are hashed from its key and its steps, so its path does
    not depend on the window it runs in.  Only the path, the signed offsets
    of the ``W + 1`` positions from the ``S`` lines and the products of
    consecutive offsets are dense, on ``(lanes, W)`` and ``(lanes, W, S)``
    views of one ``_Workspace``.  The pairs whose product lets
    ``exp(-2*d0*d1/h)`` reach ``2**-53`` become a list, in lane, step and
    slot order, whose crossing uniforms are hashed and tested; the crossing
    fraction, the bridge point and the exit test run at the crossings that
    pass, in time order within each step.  Whatever a lane computes after
    its first exit or cap step in the window is discarded.
    """
    lines = domain.lines
    track = isinstance(domain, CombDomain)
    h, time_cap, max_steps = params.step_h, params.time_cap, params.max_steps
    sqrt_h = math.sqrt(h)
    n_lines = len(lines.c)
    S = min(_COMB_SLOTS, n_lines) if lines.vertical else n_lines
    dynamic = lines.vertical and n_lines > _COMB_SLOTS
    clock, ws = _Clock(h), _Workspace()
    # a comb lane's passages and the line of its latest passage event
    lanes = yield _CHUNK, {"passages": 0, "last": -1} if track else {}
    while True:
        u, v, k, keys = lanes["u"], lanes["v"], lanes["k"], lanes["key"]
        L = k.size
        k_lo = int(k.min())
        W = min(k_lo + _WINDOW_START, max(1, _LANE_STEPS // L))
        T = clock.upto(int(k.max()) + W)
        cap = min(int(np.searchsorted(T, time_cap)), max_steps)
        # Output c of a key shifted by m * gamma is output c + m of the key,
        # so each lane's path pairs start at its own step.  The Box-Muller
        # scratch borrows the buffers that the positions and the offsets'
        # products fill later in the pass.
        zu, zv = _box_muller(
            (keys + (2 * k).astype(np.uint64) * _GOLDEN)[:, None],
            _PATH + np.arange(0, 2 * W, 2, dtype=np.uint64),
            out=(ws.take("zu", (L, W)), ws.take("zv", (L, W))),
            scratch=(ws.take("U", (L, W)), ws.take("V", (L, W)),
                     ws.take("prod", (L, W)).view(np.uint64)))
        U = _walk(u, zu, sqrt_h, ws.take("U", (L, W + 1)))
        V = _walk(v, zv, sqrt_h, ws.take("V", (L, W + 1)))

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
        # exp(-2*d0*d1/h).  Only the pairs ``near`` finds can pass, so the
        # uniforms and the exp are computed for those alone.  A sign change
        # (prod < 0) gives above 1, so it always crosses.
        prod = np.multiply(d0, d1, out=ws.take("prod", (L, W, S)))
        np.less(prod, _FAR * h, out=near)
        if dynamic:
            near &= valid
        flat = np.flatnonzero(near)
        li, si = np.divmod(flat, S)
        line = base.ravel()[li] + _SLOT_OFFSETS[si] if dynamic else si
        li, wi = np.divmod(li, W)
        key = keys[li]
        counter = (4 * ((k[li] + wi) * n_lines + line)).astype(np.uint64)
        with np.errstate(over="ignore"):
            c = np.flatnonzero(_uniform(key, counter)
                               <= np.exp(-2.0 * prod.ravel()[flat] / h))
        li, wi, si, line, key, counter = (
            a[c] for a in (li, wi, si, line, key, counter))

        # The crossings as a list: fraction, bridge point on the line, and
        # whether it meets the line's boundary part.  The fraction is drawn
        # from its exact law by the slot-1 uniform and the sine half of the
        # slot-2/3 Box-Muller pair; the cosine half is the bridge normal.  A
        # convex domain is left at every crossing.
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
        # Time order within each step: the list is in slot order within a
        # step and the sort is stable, so tied fractions keep their slot
        # order.
        step = li * W + wi
        if (step[1:] == step[:-1]).any():
            o = np.lexsort((f, step))
            li, wi, line, f, along, exits = (
                a[o] for a in (li, wi, line, f, along, exits))

        # The first exit of a lane ends it, unless it reaches the cap step
        # earlier.  A step's exit is resolved before its cap check; an exit
        # later than ``time_cap`` is censored below.
        x = np.flatnonzero(exits)
        x = x[np.r_[True, li[x[1:]] != li[x[:-1]]]] if x.size else x
        first_exit = np.full(L, li.size)
        first_exit[li[x]] = x
        j_exit = np.full(L, W + 1)
        j_exit[li[x]] = wi[x]
        j_end = np.minimum(j_exit, np.minimum(cap - 1 - k, W))
        by_exit = j_exit == j_end
        finished = j_end < W

        if window:
            # Each lane's first step after which it stands outside the
            # window, among the steps it did not exit on.
            out = (U[:, 1:] < window[0]) | (U[:, 1:] > window[1])
            out &= np.arange(W) < (j_end + ~by_exit)[:, None]
            gone = np.flatnonzero(out.any(axis=1))
            if gone.size:
                lanes = yield [], (gone, out[gone].argmax(axis=1))
                continue

        if track:
            # Passage events (comb lines are all slits): the crossings
            # before each lane's first exit, up to its last step.  An event
            # passes a tooth when its line differs from the lane's previous
            # event's.
            passages, last = lanes["passages"], lanes["last"]
            e = np.flatnonzero(~exits & (wi <= j_end[li])
                               & (np.arange(li.size) < first_exit[li]))
            if e.size:
                el, eline = li[e], line[e]
                head = np.r_[True, el[1:] != el[:-1]]
                prev = np.r_[-1, eline[:-1]]
                prev[head] = last[el[head]]
                passages += np.bincount(el[eline != prev], minlength=L)
                tail = np.r_[head[1:], True]
                last[el[tail]] = eline[tail]

        stops = []
        w = np.flatnonzero(by_exit)
        if w.size:
            xw, jw = first_exit[w], j_end[w]
            t_exit = T[k[w] + jw] + f[xw] * h
            # a path that exits after the cap survived to it: censor it at
            # the cap, at the last grid position before the exit step
            late = t_exit > time_cap
            if late.any():
                wl = w[late]
                stops.append((wl, t_exit[late], U[wl, jw[late]],
                              V[wl, jw[late]], True))
                w, xw, t_exit = (a[~late] for a in (w, xw, t_exit))
            lw = line[xw]
            stops.append((w, t_exit, *lines.snap(lw, along[xw]), False))
            if track:
                passages[w] += (lw != last[w]).astype(np.int64)

        c = np.flatnonzero(finished & ~by_exit)
        if c.size:
            jc = j_end[c] + 1
            stops.append((c, T[k[c] + jc], U[c, jc], V[c, jc], True))

        k += j_end + finished
        u[:] = U[:, W]
        v[:] = V[:, W]
        lanes = yield stops, None


# ---------------------------------------------------------------------------
# WosTime kernel


def _wos_passes(domain: SimDomain, start, params: SimParams, window):
    """The walk-on-spheres kernel (see ``_simulate_range``): each pass is
    one jump of every live lane.

    Jump ``k`` of a lane (its step count) hashes its angle and time
    uniforms from its key and counters ``2k`` and ``2k + 1``.  A lane
    carries its distance ``r`` to the boundary, the radius of its next
    jump; a jump that lands in the shell or reaches a cap stops the lane
    in the same pass.  A start inside the shell stops every lane where it
    stands, before its first jump.
    """
    lines, eps = domain.lines, params.shell_eps
    table = default_disk_law()
    r0 = float(lines.distance(np.array([start[0]]), np.array([start[1]]))[0])
    lanes = yield _WOS_POOL, {"t": 0.0, "r": r0}
    while True:
        u, v, t, k, r = (lanes[name] for name in ("u", "v", "t", "k", "r"))
        if r0 < eps:
            lanes = yield [(np.arange(u.size), t, *lines.nearest(u, v), False)], None
            continue
        ang_u, time_u = _uniform(lanes["key"], 2 * k.astype(np.uint64)
                                 + np.arange(2, dtype=np.uint64)[:, None])
        du, dv = _on_circle(r, ang_u)
        t += r * r * table.times_from_uniform(time_u)
        u += du
        v += dv
        k += 1

        if window:
            gone = np.flatnonzero((u < window[0]) | (u > window[1]))
            if gone.size:
                lanes = yield [], (gone, np.zeros_like(gone))
                continue

        r = lanes["r"] = lines.distance(u, v)
        stop = (t >= params.time_cap) | (k >= params.max_steps)
        hit = (r < eps) & ~stop
        stops = []
        if stop.any():
            x = np.flatnonzero(stop)
            stops.append((x, t[x], u[x], v[x], True))
        if hit.any():
            x = np.flatnonzero(hit)
            stops.append((x, t[x], *lines.nearest(u[x], v[x]), False))
        lanes = yield stops, None


# ---------------------------------------------------------------------------
# the lane driver


def _simulate_range(domain: SimDomain, start, params: SimParams,
                    lo: int, hi: int):
    """Run samples ``lo..hi-1`` through the engine's kernel and return
    their columns (top-level so worker processes can unpickle it).

    A kernel is a generator.  It first yields its pool width and its own
    lane fields with their start values; then each ``send`` of the live
    lanes advances them by one pass and yields the pass's stops, groups
    ``(lane indices, tau, u, v, censored)``, and an escape or None.  The
    arrays of a pass live until the next pass, as they would in a loop:
    freed at each pass's end, they let glibc trim the heap top and fault it
    back in during the next pass (48k page faults against 16k in a
    200k-sample strip batch).

    The live lanes are packed in dense arrays in sample order: result row
    ``row``, hash ``key`` (``_sample_keys``), position ``u``, ``v``, step
    count ``k`` and the kernel's fields.  The next samples join at the end
    whenever at most half the pool runs.  The driver writes each stop to
    the result rows with the lane's step count and passages before the
    lane leaves the pool; a censored ``tau`` is clipped to ``time_cap``.  A
    lane's draws and arithmetic never depend on the other lanes, so the
    pool's schedule never changes a sample.

    An escape holds the lanes outside the window, each with its first step
    out in the pass; the driver names the earliest step, then the lowest
    index.  In a range of at most one pool that is the lowest index out at
    the earliest step; in a longer one a sample that joined later can be
    named ahead of a lower index that leaves at a later pass.
    """
    window = _escape_window(domain)
    if params.engine == "WosTime":
        kernel = _wos_passes(domain, start, params, window)
    else:
        kernel = _euler_passes(domain, params, window)
    pool, fields = next(kernel)
    n = hi - lo
    tau, eu, ev = np.zeros(n), np.zeros(n), np.zeros(n)
    censor = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=np.int64)
    passages = np.zeros(n, dtype=np.int64) if "passages" in fields else None

    fill = {"u": start[0], "v": start[1], "k": 0, **fields}
    lanes = {name: np.zeros(0, np.asarray(value).dtype)
             for name, value in {"row": 0, "key": np.uint64(0), **fill}.items()}
    queued = 0      # rows that have joined the pool
    while queued < n or lanes["row"].size:
        live = lanes["row"].size
        if queued < n and live <= pool // 2:
            new = np.arange(queued, min(n, queued + pool - live))
            queued += new.size
            fresh = {"row": new, "key": _sample_keys(params.master_seed, lo + new),
                     **{name: np.full(new.size, value, lanes[name].dtype)
                        for name, value in fill.items()}}
            lanes = {name: np.concatenate((a, fresh[name]))
                     for name, a in lanes.items()}

        stops, escape = kernel.send(lanes)
        if escape is not None:
            gone, step = escape
            index = lo + int(lanes["row"][gone[step.argmin()]])
            raise WindowEscapeError(
                f"sample {index} left the materialized window "
                f"[{window[0]:g}, {window[1]:g}]; rebuild the comb with a "
                "larger window_radius before sampling")
        if stops:
            for idx, t, pu, pv, censored in stops:
                rows = lanes["row"][idx]
                tau[rows] = np.minimum(t, params.time_cap) if censored else t
                eu[rows], ev[rows], censor[rows] = pu, pv, censored
                steps[rows] = lanes["k"][idx]
                if passages is not None:
                    passages[rows] = lanes["passages"][idx]
            keep = np.delete(np.arange(lanes["row"].size),
                             np.concatenate([stop[0] for stop in stops]))
            lanes = {name: a.take(keep) for name, a in lanes.items()}
    return tau, eu, ev, censor, passages, steps


def _resolve(domain: SimDomain, start, params: SimParams) -> SimParams:
    u0, v0 = float(start[0]), float(start[1])
    if not (math.isfinite(u0) and math.isfinite(v0)):
        raise ValueError(f"start point ({u0:g}, {v0:g}) is not finite")
    if not bool(domain.contains(u0, v0)):
        raise ValueError(f"start point ({u0:g}, {v0:g}) is not inside the domain")
    # the other engine's parameter is never read, so it resolves to None
    if params.engine == "EulerBridge":
        return replace(params, step_h=_resolve_step_h(params, domain), shell_eps=None)
    return replace(params, step_h=None, shell_eps=_resolve_shell_eps(params, domain))


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
