"""Builds one-sided combs whose 1/2-moment provably exceeds each stage index.

The construction starts from a half-strip (two full walls) and repeatedly
converts the right wall into a unit tooth while pushing a fresh wall further
out.  Started at (1, 0), the stage-1 domain is exactly the strip
(0, x_1) x R, and every later stage domain contains it, as its only boundary
left of x_1 is the wall at 0.  Exit times grow with the domain, so at every
stage E_1[tau^{1/2}] >= ``strip_half_moment(1, x_1)``, an exact value less
its rounding and truncation bound.  That one number certifies every stage
at every seed, so all walls are fixed before anything is sampled: x_1 is
the first candidate 2, 3, 5, 9, 17, ... whose bound exceeds the top stage
index plus a safety margin.  The margin's remaining reason is the Monte
Carlo cross-check, one WosTime batch per candidate wall logged beside the
exact value: with it, the batch's mean - 3 SE also clears each stage index
(2.50 to 2.62 at x_1 = 17 and 2.49 to 2.63 at x_2 = 57 over seeds 0-11,
for stage indices 1 and 2).  Every batch of a run has its own master seed,
so the later stages' batches do not replay the paths of stage 1.

Each later wall opens a gap two and a half times the previous one, so gaps
grow geometrically.  That keeps the emitted comb outside every gap class
the certificate checker can extrapolate, which is the correct outcome: the
finite-stage artifact contains a half-plane beyond its last tooth, so its
true half-moment is infinite and a finiteness certificate at p = 1/2 would
be wrong.  The bound gains about 0.55 per doubling of x_1 while later gaps
grow 2.5-fold per stage, so beyond 327 stages the walls would pass the
largest float, and such stage counts are refused.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
from dataclasses import dataclass, replace

from .engine import SimParams, run_batch
from .estimators import estimate_moment
from .geometry import CombDomain, CombSpec, ExplicitSlits, build_comb
from .series import strip_half_moment

__all__ = ["AdversarialTrace", "build_adversarial"]

_START = (1.0, 0.0)
_TOOTH_HEIGHT = 1.0
_SAFETY_MARGIN = 0.5
# Consecutive gaps grow by at least this factor.  The certificate checker
# extrapolates explicit windows when squared gap ratios stay below
# 1/theta0^2, which approaches 4 from above as gaps widen; 2.5 keeps the
# emitted comb safely outside that regime at p = 1/2 for any stage count.
_GAP_GROWTH = 2.5
# One WosTime batch per candidate wall, as a cross-check of the exact bound.
_CROSS_CHECK = 4000
_TIME_CAP = 1e16


@dataclass(frozen=True)
class AdversarialTrace:
    """One accepted stage: the wall chosen and the certificate behind it.

    ``lower_bound`` bounds E_1[tau^{1/2}] on the stage domain from below;
    it is the stage-1 strip's exact value on every stage.  ``estimate`` and
    ``standard_error`` come from the accepted wall's cross-check batch, the
    mean of min(tau, cap)^{1/2}.  ``samples_used`` and
    ``search_iterations`` count the stage's cross-check samples and
    candidate walls.
    """

    stage: int
    abscissa: float
    lower_bound: float
    estimate: float
    standard_error: float
    samples_used: int
    search_iterations: int


def _stage_domain(teeth: tuple[float, ...], wall: float | None) -> CombDomain:
    """Wall at 0, unit teeth at ``teeth``, optional terminal wall (b = 0)."""
    rows = [(0.0, 0.0)]
    rows.extend((x, _TOOTH_HEIGHT) for x in teeth)
    if wall is not None:
        rows.append((wall, 0.0))
    return build_comb(CombSpec(ExplicitSlits(tuple(rows)), one_sided=True))


def _walls(stages: int) -> tuple[list[tuple[float, float]], list[float]] | None:
    """The stage-1 candidates as (wall, exact bound), the last of them the
    accepted x_1, and the walls x_1 < ... < x_stages; None if a wall would
    not be a finite float."""
    target = stages + _SAFETY_MARGIN
    candidates = []
    increment = 1.0
    while not candidates or candidates[-1][1] <= target:
        wall = _START[0] + increment
        if not math.isfinite(wall):
            return None
        candidates.append((wall, strip_half_moment(_START[0], wall)))
        increment *= 2
    walls = [candidates[-1][0]]
    gap = walls[0] - _START[0]
    for _ in range(stages - 1):
        gap *= _GAP_GROWTH
        walls.append(walls[-1] + gap)
    return (candidates, walls) if math.isfinite(walls[-1]) else None


def build_adversarial(
    stages: int, seed: int = 0
) -> tuple[CombDomain, list[AdversarialTrace]]:
    """Walls x_1 < x_2 < ... with E_1[tau^{1/2}] provably above n at stage n.

    Stage n's domain keeps the teeth accumulated so far plus a terminal wall
    at x_n.  Every wall comes from the exact bound before any sampling; each
    stage-1 candidate and each later wall then gets one cross-check batch
    at its own master seed derived from ``seed``, logged at INFO with its
    exact value.  The returned comb drops the terminal wall, leaving the
    wall at 0 plus the accepted teeth.

    Raises ValueError for fewer than one stage, and for stage counts whose
    walls would pass the largest float, naming the largest that fits.
    """
    if stages < 1:
        raise ValueError("stages must be at least 1")
    plan = _walls(stages)
    if plan is None:
        # each candidate doubles the wall and adds less than 1 to its bound,
        # and the 1024th doubling overflows, so no count from 1024 on fits
        reachable = bisect.bisect_left(
            range(1, min(stages, 1024)), True, key=lambda s: _walls(s) is None)
        raise ValueError(
            f"{stages} stages need walls beyond the largest float; at most "
            f"{reachable} stages can be built"
        )
    candidates, walls = plan
    bound = candidates[-1][1]
    # imported here: its 10-20 ms import would slow every other command too
    import logging

    log = logging.getLogger(__name__)
    params = SimParams(engine="WosTime", time_cap=_TIME_CAP, master_seed=seed)
    # Batch k of the run samples at a 63-bit hash of ``seed`` plus k, so no
    # batch replays another's paths and runs at different seeds start apart.
    digest = hashlib.blake2b(str(seed).encode(), digest_size=8).digest()
    seeds = (k % 2**63 for k in itertools.count(int.from_bytes(digest, "little")))

    trace: list[AdversarialTrace] = []
    teeth: tuple[float, ...] = ()
    for stage, wall in enumerate(walls, start=1):
        tried = candidates if stage == 1 else [(wall, bound)]
        for candidate, exact in tried:
            samples = run_batch(_stage_domain(teeth, candidate), _START,
                                _CROSS_CHECK,
                                replace(params, master_seed=next(seeds)))
            est = estimate_moment(samples, 0.5)
            log.info(
                "stage %d, wall %g: exact bound %.6f on E_1[tau^1/2]; "
                "cross-check %.4f +- %.4f from %d samples",
                stage, candidate, exact, est.point_estimate,
                est.standard_error, _CROSS_CHECK)
        trace.append(AdversarialTrace(
            stage, wall, bound, est.point_estimate, est.standard_error,
            _CROSS_CHECK * len(tried), len(tried)))
        teeth += (wall,)

    return _stage_domain(teeth, None), trace
