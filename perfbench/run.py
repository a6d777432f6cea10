"""combexit benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and listed with their metrics in
``BENCHMARK.json`` at the checkout root.  Every command runs as a fresh
``python -m combexit.cli`` process with ``src`` on PYTHONPATH, ``--workers
1`` and no COMBEXIT_WORKERS in its environment.

``--trace 0`` measures the end-to-end metrics with nothing patched:
several set-up probes, then repetitions of the workload, each at its own
seed derived from ``--seed``, until ``--seconds`` is spent (at least two).
``--trace 1`` runs pairs of one untraced repetition and one traced
repetition at the same seed; the traced one runs each command through
``child.py trace``, which times the calls into each package layer.  The
pair must produce identical outputs (the determinism check), and the
difference between the two walls is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
CLI command with its output checks, a set-up probe, a replay or a survival
comparison; ``failed / attempted`` is the failed fraction.  Exits 2 without
a result when the checkout holds no ``src/combexit``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, CheckFailed, Workload, read_samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD = str(Path(__file__).resolve().parent / "child.py")

SETUP_PROBES = 3
MIN_REPS = 2
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0  # a run must end within 180 s

# What a check may raise on a malformed or missing output.
CHECK_ERRORS = (CheckFailed, OSError, LookupError, ValueError, TypeError)


@dataclass
class Proc:
    rc: int
    wall: float
    maxrss_mib: float
    stdout: str


@dataclass
class Rep:
    seed: int
    traced: bool
    cwd: Path
    wall: float = 0.0
    sampling_wall: float = 0.0
    samples: int = 0
    peak_rss_mib: float = 0.0
    walls: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    spans: list = field(default_factory=list)


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("COMBEXIT_WORKERS", None)
        self.env.pop("PYTHONSTARTUP", None)

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def operation(self, what: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
        return error is None

    def spawn(self, argv: list[str], cwd: Path) -> Proc:
        """Run one child to completion; wall time and peak RSS from wait4."""
        timeout = min(CHILD_TIMEOUT_S, max(1.0, RUN_DEADLINE_S - self.elapsed()))
        with open(cwd / "child.out", "w+b") as out, \
                open(cwd / "child.err", "ab") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd,
                                    env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, text)

    def rep_dir(self, tag: str) -> Path:
        path = self.work / tag
        path.mkdir(parents=True)
        if self.workload.domain is not None:
            (path / "domain.json").write_text(json.dumps(self.workload.domain))
        return path

    # -- set-up probes ------------------------------------------------------

    def setup_probe(self, k: int) -> float | None:
        cwd = self.rep_dir(f"setup{k}")
        proc = self.spawn([CHILD, "setup", *self.workload.setup_args()], cwd)
        error = None if proc.rc == 0 else f"exit code {proc.rc}"
        return proc.wall if self.operation(f"setup probe {k}", error) else None

    # -- one repetition of the workload ---------------------------------------

    def run_rep(self, tag: str, seed: int, traced: bool,
                expect: list | None = None) -> Rep:
        """Run every step; ``expect`` holds fingerprints from a same-seed rep."""
        cwd = self.rep_dir(tag)
        rep = Rep(seed, traced, cwd)
        for i, step in enumerate(self.workload.steps(seed)):
            if traced:
                argv = [CHILD, "trace", f"spans{i}.json", "capture.pkl",
                        f"{tag}/{i}", "--", *step.argv]
            else:
                argv = ["-m", "combexit.cli", *step.argv]
            proc = self.spawn(argv, cwd)
            rep.wall += proc.wall
            rep.walls.append(proc.wall)
            rep.peak_rss_mib = max(rep.peak_rss_mib, proc.maxrss_mib)
            facts, error = {}, None
            try:
                if proc.rc != 0:
                    raise CheckFailed(f"exit code {proc.rc}{_stderr_tail(cwd)}")
                facts = step.check(cwd)
                if expect is not None and facts.get("fingerprint") != expect[i]:
                    raise CheckFailed(f"outputs differ from an earlier run at seed {seed}")
            except CHECK_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
            self.operation(f"{tag} {step.argv[0]}", error)
            if "samples" in facts:
                rep.samples = facts["samples"]
                rep.sampling_wall = proc.wall
            rep.facts.append(facts)
            if traced:
                rep.spans.extend(_load_spans(cwd / f"spans{i}.json", len(rep.spans)))
        return rep

    def rep_seed(self, k: int) -> int:
        """The run's seed for k = 0, then seeds derived from it."""
        if k == 0:
            return self.seed
        digest = hashlib.sha256(f"{self.seed}/{k}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def budget_left(self, last: float) -> bool:
        end = self.elapsed() + last
        return end <= self.seconds and end <= RUN_DEADLINE_S - 10.0

    # -- the two modes --------------------------------------------------------

    def end_to_end(self) -> tuple[dict, list[Rep]]:
        setup = [self.setup_probe(k) for k in range(SETUP_PROBES)]
        reps: list[Rep] = []
        while True:
            # every rep draws a fresh seed, so the median covers several inputs
            k = len(reps)
            t0 = perf_counter()
            reps.append(self.run_rep(f"rep{k}", self.rep_seed(k), False))
            if len(reps) >= MIN_REPS and not self.budget_left(perf_counter() - t0):
                break
        setup_ok = [s for s in setup if s is not None]
        return {
            "wall_s": statistics.median(r.wall for r in reps),
            "samples_per_s": statistics.median(
                r.samples / r.sampling_wall if r.sampling_wall else 0.0
                for r in reps),
            "setup_s": statistics.median(setup_ok) if setup_ok else 0.0,
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in reps),
        }, reps

    def per_layer(self) -> tuple[dict, list[Rep]]:
        pairs: list[dict] = []
        reps: list[Rep] = []
        while True:
            k = len(pairs)
            seed = self.rep_seed(k)
            t0 = perf_counter()
            plain = self.run_rep(f"pair{k}-plain", seed, False)
            traced = self.run_rep(f"pair{k}-traced", seed, True,
                                  [f.get("fingerprint") for f in plain.facts])
            pairs.append(layer_metrics(plain, traced, self.replay(traced),
                                       self.survival(traced)))
            reps += [plain, traced]
            if not self.budget_left(perf_counter() - t0):
                break
        return {name: statistics.median(p[name] for p in pairs)
                for name in pairs[0]}, reps

    def child_json(self, what: str, argv: list[str], cwd: Path,
                   validate) -> dict | None:
        """Run a child that prints one JSON object; None if it or ``validate`` fails."""
        proc = self.spawn([CHILD, *argv], cwd)
        try:
            if proc.rc != 0:
                raise CheckFailed(f"exit code {proc.rc}{_stderr_tail(cwd)}")
            out = json.loads(proc.stdout)
            validate(out)
        except CHECK_ERRORS as exc:
            self.operation(what, f"{type(exc).__name__}: {exc}")
            return None
        self.operation(what, None)
        return out

    def replay(self, rep: Rep) -> float:
        """Median simulate_exit latency; every row must match bit for bit."""
        def validate(out):
            if not out["match"]:
                raise CheckFailed(f"indices {out['indices']} did not replay bit for bit")

        if not (rep.cwd / "capture.pkl").exists():
            self.operation("replay", "no run_batch call was captured")
            return 0.0
        out = self.child_json("replay", ["replay", "capture.pkl"], rep.cwd, validate)
        return statistics.median(out["latency_ms"]) if out else 0.0

    def survival(self, rep: Rep) -> float:
        """Time survival_curve on the traced CSV; compare it to our own count."""
        w = self.workload

        def validate(out):
            samples = read_samples(rep.cwd / w.samples_csv, rep.samples)
            for t, frac, _ in out["curve"]:
                if abs(frac - samples.survival(t)) > 1e-12:
                    raise CheckFailed(f"survival_curve at t={t:g} reads {frac}")

        if w.samples_csv is None or not rep.samples:
            return 0.0
        out = self.child_json(
            "survival", ["survival", w.samples_csv, *map(repr, w.survival_grid)],
            rep.cwd, validate)
        return out["ms"] if out else 0.0


def _stderr_tail(cwd: Path) -> str:
    lines = (cwd / "child.err").read_text(errors="replace").strip().splitlines()
    return f" ({lines[-1]})" if lines else ""


def _load_spans(path: Path, offset: int) -> list[dict]:
    """Spans of one traced process, with ids shifted to stay unique."""
    try:
        spans = json.loads(path.read_text(encoding="utf-8"))["spans"]
    except (OSError, ValueError, KeyError):
        return []
    for s in spans:
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
    return spans


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced repetition


def layer_metrics(plain: Rep, traced: Rep, replay_ms: float,
                  survival_ms: float) -> dict:
    spans = traced.spans
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(dur(s) for s in named(name))

    def self_time(s: dict, only: tuple[str, ...] | None = None) -> float:
        kids = children.get(s["id"], [])
        return dur(s) - sum(dur(c) for c in kids
                            if only is None or c["name"] in only)

    batches = named("engine.run_batch")
    samples = sum(s["counts"]["n"] for s in batches)
    steps = sum(s["counts"]["steps"] for s in batches)
    steps_max = max((s["counts"]["steps_max"] for s in batches), default=0)
    censored = sum(s["counts"]["censored"] for s in batches)
    batch_s = total("engine.run_batch")

    adv = named("adversarial.build_adversarial")
    adv_batches = [s for s in batches
                   if s["parent"] is not None
                   and by_id[s["parent"]]["name"] == "adversarial.build_adversarial"]
    adv_self = sum(self_time(s, ("engine.run_batch", "geometry.build_comb"))
                   for s in adv)

    props = {}
    for f in traced.facts:
        props.update(f.get("props", {}))
    csv_bytes = props.get("csv_bytes", 0)
    encode_s = total("reports.samples_to_csv")
    decode_s = total("reports.read_samples_csv")
    theta = named("series.theta0")

    return {
        "setup.import_s":
            statistics.median(map(dur, named("setup.import"))) if spans else 0.0,
        "cli.self_s": sum(self_time(s) for s in named("cli.run_command")),
        "engine.run_batch_s": batch_s,
        "engine.share_of_wall": batch_s / traced.wall,
        "engine.samples": samples,
        "engine.steps": steps,
        "engine.us_per_sample": batch_s / samples * 1e6 if samples else 0.0,
        "engine.steps_per_s": steps / batch_s if batch_s else 0.0,
        "engine.lifetime_max_over_mean":
            steps_max / (steps / samples) if steps else 0.0,
        "engine.censored_frac": censored / samples if samples else 0.0,
        "engine.replay_ms": replay_ms,
        "reports.samples_to_csv_s": encode_s,
        "reports.read_samples_csv_s": decode_s,
        "reports.csv_bytes": csv_bytes,
        "reports.encode_mb_per_s": csv_bytes / 1e6 / encode_s if encode_s else 0.0,
        "reports.decode_mb_per_s":
            csv_bytes * len(named("reports.read_samples_csv")) / 1e6 / decode_s
            if decode_s else 0.0,
        "reports.write_report_ms": total("reports.write_report") * 1e3,
        "estimators.estimate_moment_ms": total("estimators.estimate_moment") * 1e3,
        "estimators.tail_index_ms": total("estimators.tail_index") * 1e3,
        "estimators.moment_verdict_ms": total("estimators.moment_verdict") * 1e3,
        "estimators.survival_curve_ms": survival_ms,
        "series.disk_law_build_ms": total("series.default_disk_law") * 1e3,
        "series.theta0_us":
            sum(dur(s) for s in theta) / len(theta) * 1e6 if theta else 0.0,
        "checker.check_ms": total("checker.check") * 1e3,
        "geometry.build_comb_ms": total("geometry.build_comb") * 1e3,
        "adversarial.batches": len(adv_batches),
        "adversarial.candidates": props.get("candidates", 0),
        "adversarial.self_ms_per_batch":
            adv_self / len(adv_batches) * 1e3 if adv_batches else 0.0,
        "trace.overhead_s": traced.wall - plain.wall,
    }


# ---------------------------------------------------------------------------
# environment and output


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "combexit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _print_reps(reps: list[Rep]) -> None:
    for r in reps:
        walls = " ".join(f"{w:.3f}" for w in r.walls)
        props = {}
        for f in r.facts:
            props.update(f.get("props", {}))
        print(f"rep seed={r.seed} traced={int(r.traced)} wall_s={r.wall:.4f} "
              f"[{walls}] peak_rss_mib={r.peak_rss_mib:.1f} "
              f"props={json.dumps(props, sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    if not (SRC / "combexit" / "cli.py").is_file():
        print(f"perfbench: no combexit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    bench = Bench(workload, args.seed, args.seconds, work)
    try:
        if args.trace:
            values, reps = bench.per_layer()
            spans = [s for r in reps for s in r.spans]
            (OUT / f"spans-{workload.name}-seed{args.seed}.json").write_text(
                json.dumps(spans), encoding="utf-8")
        else:
            values, reps = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if sorted(values) != sorted(m["name"] for m in listed):
        raise RuntimeError("metrics computed differ from those in BENCHMARK.json")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {workload.name}: {why[workload.name]}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    _print_reps(reps)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    failed = len(bench.failures)
    print(f"failed_frac {failed / bench.attempted:.6g} 1 "
          f"({failed} of {bench.attempted} operations)")
    for m in listed:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
