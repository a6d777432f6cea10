"""The benchmark's workloads: CLI command sequences and their output checks.

A workload is a list of steps.  Each step is one ``python -m combexit.cli``
command followed by a check of what it wrote.  Checks read only the files
in the step's working directory and compare them with exact oracles, so
they never trust the code under test to grade itself.  A check raises
``CheckFailed`` or returns facts about the outputs:

``samples``      exit-time samples the command drew (sampling steps only)
``fingerprint``  what must repeat exactly at the same seed
``props``        workload-property counts, reported but never gated
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# A z-test at 4.5 standard errors fails a correct program with probability
# 7e-6; a full set of benchmark runs makes a few hundred such tests.
Z_GATE = 4.5

CSV_HEADER = ["index", "tau", "u", "v", "censored", "passages", "steps"]

STRIP_DOMAIN = {"type": "vertical_strip", "left": -1.0, "right": 1.0}
HALF_PLANE_DOMAIN = {"type": "half_plane"}

# P(tau > t) for Brownian motion started at distance 1 from a line is the
# Levy law 2*Phi(1/sqrt(t)) - 1 = erf(1/sqrt(2 t)).
LEVY_GRID = (0.25, 1.0, 4.0, 16.0, 64.0, 256.0)
STRIP_GRID = (0.25, 0.5, 1.0, 2.0)


class CheckFailed(Exception):
    """An output contradicts its oracle or the command's own report."""


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    check: Callable[[Path], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: Callable[[int], list[Step]]
    domain: dict | None = None      # written to domain.json before the steps
    uses_wos: bool = False          # whether set-up includes the disk-law table
    samples_csv: str | None = None  # CSV that survival_curve is timed on
    survival_grid: tuple[float, ...] = ()

    def setup_args(self) -> list[str]:
        args = ["--domain", "domain.json"] if self.domain is not None else []
        return args + (["--wos"] if self.uses_wos else [])


# ---------------------------------------------------------------------------
# helpers


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report(work: Path, name: str, subcommand: str) -> dict:
    try:
        body = json.loads((work / name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{name}: unreadable report ({exc})") from None
    if body.get("subcommand") != subcommand:
        raise CheckFailed(f"{name}: subcommand {body.get('subcommand')!r}")
    for path, digest in body["config"]["inputs"].items():
        if sha256((work / path).read_bytes()) != digest:
            raise CheckFailed(f"{name}: input fingerprint of {path} is stale")
    return body


@dataclass(frozen=True)
class Samples:
    taus: list
    censored: list
    steps: list
    sha: str
    size: int

    def mean_and_se(self, power: float) -> tuple[float, float]:
        xs = [t**power for t in self.taus]
        n = len(xs)
        mean = math.fsum(xs) / n
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
        return mean, math.sqrt(var / n)

    def survival(self, t: float) -> float:
        return sum(1 for tau in self.taus if tau > t) / len(self.taus)

    def props(self) -> dict:
        n = len(self.steps)
        total = sum(self.steps)
        return {
            "samples": n,
            "steps": total,
            "lifetime_max_over_mean": max(self.steps) / (total / n),
            "censored_frac": sum(self.censored) / n,
            "csv_bytes": self.size,
        }


def read_samples(path: Path, n: int) -> Samples:
    """Parse the sample CSV independently of ``combexit.reports``."""
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    if lines[0].split(",") != CSV_HEADER:
        raise CheckFailed(f"{path.name}: header {lines[0]!r}")
    if len(lines) - 1 != n:
        raise CheckFailed(f"{path.name}: {len(lines) - 1} rows, expected {n}")
    taus, censored, steps = [], [], []
    for line in lines[1:]:
        cols = line.split(",")
        taus.append(float(cols[1]))
        censored.append(cols[4] == "1")
        steps.append(int(cols[6]))
    return Samples(taus, censored, steps, sha256(data), len(data))


def _z_gate(what: str, value: float, oracle: float, se: float) -> None:
    if not abs(value - oracle) <= Z_GATE * se:
        raise CheckFailed(
            f"{what} = {value:.6g}, oracle {oracle:.6g}, "
            f"z = {(value - oracle) / se:.2f}"
        )


def _check_simulation(work: Path, n: int) -> tuple[dict, Samples]:
    report = _report(work, "simulate.json", "simulate")
    if report["n"] != n:
        raise CheckFailed(f"simulate.json: n = {report['n']}, expected {n}")
    samples = read_samples(work / "samples.csv", n)
    if samples.sha != report["samples_fingerprint"]:
        raise CheckFailed("samples.csv does not match samples_fingerprint")
    if sum(samples.censored) != report["censored"]:
        raise CheckFailed("censored count differs between report and CSV")
    return report, samples


def _simulate_facts(samples: Samples) -> dict:
    return {
        "samples": len(samples.taus),
        "fingerprint": samples.sha,
        "props": samples.props(),
    }


def _tail_report(work: Path) -> dict:
    return _report(work, "tail.json", "tail")


# ---------------------------------------------------------------------------
# strip-wos: E[tau] = 1 and E[tau^2] = 5/3 on the strip (-1, 1) from 0


STRIP_N = 200_000


def _check_strip_simulate(work: Path) -> dict:
    report, samples = _check_simulation(work, STRIP_N)
    if report["censored"]:
        raise CheckFailed("strip samples were censored")
    mean, se = samples.mean_and_se(1.0)
    _z_gate("strip E[tau]", mean, 1.0, se)
    second, se2 = samples.mean_and_se(2.0)
    _z_gate("strip E[tau^2]", second, 5.0 / 3.0, se2)
    return _simulate_facts(samples)


def _check_strip_tail(work: Path) -> dict:
    h_hat = _tail_report(work)["H_hat"]
    # the strip's survival decays exponentially, so every moment is finite
    if not h_hat > 1.0:
        raise CheckFailed(f"strip tail exponent {h_hat:.3g} is not above 1")
    return {"props": {"H_hat": h_hat}}


def _check_strip_verdict(work: Path) -> dict:
    verdict = _report(work, "verdict.json", "verdict")["verdict"]
    if verdict != "FiniteLikely":
        raise CheckFailed(f"strip verdict at p=1 is {verdict}")
    return {}


def strip_wos_steps(seed: int) -> list[Step]:
    return [
        Step(
            ("simulate", "--domain", "domain.json", "--start", "0,0",
             "--engine", "WosTime", "--n", str(STRIP_N), "--seed", str(seed),
             "--workers", "1", "--out", "simulate.json", "--csv", "samples.csv"),
            _check_strip_simulate,
        ),
        Step(("tail", "--samples", "samples.csv", "--out", "tail.json"),
             _check_strip_tail),
        Step(("verdict", "--samples", "samples.csv", "--p", "1",
              "--out", "verdict.json"),
             _check_strip_verdict),
    ]


# ---------------------------------------------------------------------------
# halfplane-euler: survival follows the Levy law, tail exponent 1/2


HALF_PLANE_N = 8192
HALF_PLANE_CAP = 1000.0


def levy_survival(t: float) -> float:
    return math.erf(1.0 / math.sqrt(2.0 * t))


def _check_half_plane_simulate(work: Path) -> dict:
    _, samples = _check_simulation(work, HALF_PLANE_N)
    n = len(samples.taus)
    for t in LEVY_GRID:
        oracle = levy_survival(t)
        se = math.sqrt(oracle * (1.0 - oracle) / n)
        _z_gate(f"half-plane P(tau > {t:g})", samples.survival(t), oracle, se)
    return _simulate_facts(samples)


def _check_half_plane_tail(work: Path) -> dict:
    tail = _tail_report(work)
    # Hill's standard error at the true exponent is H / sqrt(exceedances)
    _z_gate("half-plane Hill H_hat", tail["H_hat"], 0.5,
            0.5 / math.sqrt(tail["n_effective"]))
    return {"props": {"H_hat": tail["H_hat"]}}


def half_plane_euler_steps(seed: int) -> list[Step]:
    return [
        Step(
            ("simulate", "--domain", "domain.json", "--start", "0,1",
             "--engine", "EulerBridge", "--time-cap", repr(HALF_PLANE_CAP),
             "--n", str(HALF_PLANE_N), "--seed", str(seed), "--workers", "1",
             "--out", "simulate.json", "--csv", "samples.csv"),
            _check_half_plane_simulate,
        ),
        Step(("tail", "--samples", "samples.csv", "--out", "tail.json"),
             _check_half_plane_tail),
    ]


# ---------------------------------------------------------------------------
# construct: every stage certifies its index; the finite comb is not
# certifiable at p = 1/2 because a half-plane lies beyond its last tooth


# Two stages: six 4k-sample WoS batches (24k samples; an extra 8k batch at
# about one seed in six), each followed by an estimator call.  At four
# stages the search's cost hinges on one candidate that sits close to the
# stage-1 target and is re-evaluated with doubling batches until it is
# decided: 80k-320k samples and 3.5-11 s by seed, too uneven for the median
# of a few repetitions to repeat from run to run.
CONSTRUCT_STAGES = 2


def _canonical_sha(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode("ascii"))


def _check_construct(work: Path) -> dict:
    report = _report(work, "construct.json", "construct")
    trace = report.get("trace", [])
    if [t["stage"] for t in trace] != list(range(1, CONSTRUCT_STAGES + 1)):
        raise CheckFailed(f"construct trace has stages {[t['stage'] for t in trace]}")
    for t in trace:
        if not t["lower_bound"] > t["stage"]:
            raise CheckFailed(
                f"stage {t['stage']} lower bound {t['lower_bound']:.4f} "
                "does not exceed the stage index"
            )
    comb = json.loads((work / "comb.json").read_text(encoding="utf-8"))
    if comb != report["comb"]:
        raise CheckFailed("comb.json differs from the comb in the report")
    if _canonical_sha(comb) != report["comb_fingerprint"]:
        raise CheckFailed("comb_fingerprint does not match the emitted comb")
    trace_text = json.dumps(trace, sort_keys=True)
    return {
        "samples": sum(t["samples_used"] for t in trace),
        "fingerprint": sha256(trace_text.encode("ascii")) + report["comb_fingerprint"],
        "props": {
            "samples": sum(t["samples_used"] for t in trace),
            "candidates": sum(t["search_iterations"] for t in trace),
        },
    }


def _check_comb_check(work: Path) -> dict:
    status = _report(work, "check.json", "check")["status"]
    if status != "Inconclusive":
        raise CheckFailed(f"check on the emitted comb says {status}")
    return {}


def construct_steps(seed: int) -> list[Step]:
    return [
        Step(("construct", "--stages", str(CONSTRUCT_STAGES), "--seed", str(seed),
              "--out", "construct.json", "--comb-out", "comb.json"),
             _check_construct),
        Step(("check", "--comb", "comb.json", "--p", "0.5", "--out", "check.json"),
             _check_comb_check),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="strip-wos",
            steps=strip_wos_steps,
            domain=STRIP_DOMAIN,
            uses_wos=True,
            samples_csv="samples.csv",
            survival_grid=STRIP_GRID,
        ),
        Workload(
            name="halfplane-euler",
            steps=half_plane_euler_steps,
            domain=HALF_PLANE_DOMAIN,
            samples_csv="samples.csv",
            survival_grid=LEVY_GRID,
        ),
        Workload(
            name="construct",
            steps=construct_steps,
            uses_wos=True,
        ),
    )
}
