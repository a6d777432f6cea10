"""Code the benchmark runs in fresh interpreters, with ``src`` on PYTHONPATH.

    python perfbench/child.py setup [--domain FILE] [--wos]
        import the CLI, build the domain from JSON and, for WoS workloads,
        the disk-law table: everything before the first sample can be drawn
    python perfbench/child.py trace SPANS CAPTURE RUN_ID -- ARGS...
        run one CLI command in-process through ``combexit.cli.run_command``
        with a span around each call into a package layer; spans stay in
        memory and are written to SPANS when the command returns, and the
        first ``run_batch`` call is pickled to CAPTURE for replay
    python perfbench/child.py replay CAPTURE
        replay captured batch rows with ``simulate_exit`` and print the
        latency of each and whether every row matched bit for bit
    python perfbench/child.py survival CSV T...
        time ``estimators.survival_curve`` on a sample CSV and print it
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pickle
import struct
import sys
from time import perf_counter

# (module, attribute, span name).  Each function is wrapped under the name
# its caller imported it by, so spans nest cli -> adversarial -> engine.
TRACED = (
    ("combexit.cli", "domain_from_config", "geometry.domain_from_config"),
    ("combexit.cli", "build_comb", "geometry.build_comb"),
    ("combexit.adversarial", "build_comb", "geometry.build_comb"),
    ("combexit.geometry", "build_comb", "geometry.build_comb"),
    ("combexit.cli", "run_batch", "engine.run_batch"),
    ("combexit.adversarial", "run_batch", "engine.run_batch"),
    ("combexit.engine", "default_disk_law", "series.default_disk_law"),
    ("combexit.checker", "theta0", "series.theta0"),
    ("combexit.cli", "check_theorem1", "checker.check"),
    ("combexit.cli", "build_adversarial", "adversarial.build_adversarial"),
    ("combexit.estimators", "estimate_moment", "estimators.estimate_moment"),
    ("combexit.adversarial", "estimate_moment", "estimators.estimate_moment"),
    ("combexit.estimators", "tail_index", "estimators.tail_index"),
    ("combexit.estimators", "moment_verdict", "estimators.moment_verdict"),
    ("combexit.cli", "samples_to_csv", "reports.samples_to_csv"),
    ("combexit.cli", "read_samples_csv", "reports.read_samples_csv"),
    ("combexit.cli", "write_report", "reports.write_report"),
)


def _replay_indices(n: int) -> list[int]:
    """Batch rows captured for replay: first, second, middle and last."""
    return sorted({0, min(1, n - 1), n // 2, n - 1})


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = perf_counter()
            self._stack.pop()
        if counts is not None:
            span["counts"] = counts(args, result)
        return result

    def wrap(self, module: str, attr: str, name: str, counts=None) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        setattr(mod, attr, traced)


class BatchCounts:
    """Counts per ``run_batch`` call; pickles the first call for replay."""

    def __init__(self, capture: str):
        self.capture: str | None = capture

    def __call__(self, args, result) -> dict:
        steps = [s.steps for s in result.samples]
        if self.capture is not None:
            domain, start, _, params = args
            rows = {i: result.samples[i] for i in _replay_indices(result.total)}
            with open(self.capture, "wb") as fh:
                pickle.dump((domain, start, params, rows), fh)
            self.capture = None
        return {
            "n": result.total,
            "steps": sum(steps),
            "steps_max": max(steps),
            "censored": result.censored,
        }


def _trace(args) -> int:
    tracer = Tracer(args.run_id)
    cli = tracer.call("setup.import", importlib.import_module, ("combexit.cli",))
    batch_counts = BatchCounts(args.capture)
    for module, attr, name in TRACED:
        counts = batch_counts if name == "engine.run_batch" else None
        tracer.wrap(module, attr, name, counts)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    rc = tracer.call("cli.run_command", cli.run_command, (argv,))
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans}, fh)
    return rc


def _setup(args) -> int:
    from combexit import cli  # noqa: F401  (the import is what is timed)
    from combexit.engine import default_disk_law
    from combexit.geometry import domain_from_config

    if args.domain is not None:
        with open(args.domain, encoding="utf-8") as fh:
            domain_from_config(json.load(fh))
    if args.wos:
        default_disk_law()
    return 0


def _bits(sample) -> tuple:
    return (struct.pack("<3d", sample.tau, *sample.exit_point),
            sample.censored, sample.passages, sample.steps, sample.engine)


def _replay(args) -> int:
    from combexit.engine import default_disk_law, simulate_exit

    with open(args.capture, "rb") as fh:
        domain, start, params, rows = pickle.load(fh)
    if params.engine == "WosTime":
        default_disk_law()  # the table is set-up, not replay latency
    latencies, match = [], True
    for index, row in rows.items():
        t0 = perf_counter()
        sample = simulate_exit(domain, start, params, sample_index=index)
        latencies.append((perf_counter() - t0) * 1e3)
        match = match and _bits(sample) == _bits(row)
    print(json.dumps({"indices": list(rows), "latency_ms": latencies,
                      "match": match}))
    return 0


def _survival(args) -> int:
    from combexit.estimators import survival_curve
    from combexit.reports import read_samples_csv

    samples = read_samples_csv(args.csv)
    t0 = perf_counter()
    curve = survival_curve(samples, args.t)
    elapsed = perf_counter() - t0
    print(json.dumps({"ms": elapsed * 1e3, "curve": curve}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--domain")
    p.add_argument("--wos", action="store_true")
    p = sub.add_parser("trace")
    p.add_argument("spans")
    p.add_argument("capture")
    p.add_argument("run_id")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("replay")
    p.add_argument("capture")
    p = sub.add_parser("survival")
    p.add_argument("csv")
    p.add_argument("t", type=float, nargs="+")
    args = parser.parse_args()
    return {"setup": _setup, "trace": _trace, "replay": _replay,
            "survival": _survival}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
