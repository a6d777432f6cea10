"""Layer benchmark: per-sample RNG seeding, before and after a change.

Measures each row in a fresh interpreter against two source trees, each a
directory that holds the ``combexit`` package (the ``src`` of a checkout),
alternating the trees repetition by repetition so that a drift of the
host's speed hits both alike, and writes the medians to
``BENCH_substreams.json``:

    python3 scripts/bench_substreams.py --parent /path/to/old/src \
        --change src --repeats 5

Rows, each timed once per repetition:

* ``seeding_us``: set-up of every sample's generator before its first
  draw, per sample, over 200k indices in chunks of 4096 (``_seed_states``
  where the tree has it, else one ``_substream`` per sample);
* ``strip_wos_run_batch_s``: ``run_batch`` of 200k WosTime samples on the
  strip from the origin (disk-law table built beforehand);
* ``halfplane_euler_run_batch_s``: ``run_batch`` of 8192 EulerBridge
  samples on the half-plane from (0, 1) at time cap 1000;
* ``import_cli_s``: ``import combexit.cli`` in the fresh interpreter;
* ``replay_ms``: one ``simulate_exit`` of a strip WosTime sample, the mean
  over indices 0-199, which pays the seeding's fixed cost per call.

Not part of the test suite: a run takes a minute or two.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 7
N_SEEDING = 200_000
N_STRIP = 200_000
N_HALFPLANE = 8192
CHUNK = 4096

UNITS = {
    "seeding_us": "us",
    "strip_wos_run_batch_s": "s",
    "halfplane_euler_run_batch_s": "s",
    "import_cli_s": "s",
    "replay_ms": "ms",
}
N_REPLAY = 200


def _child() -> None:
    t0 = time.perf_counter()
    import combexit.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import numpy as np

    from combexit import engine
    from combexit.geometry import HalfPlane, VerticalStrip
    from combexit.series import default_disk_law

    t0 = time.perf_counter()
    for c0 in range(0, N_SEEDING, CHUNK):
        indices = np.arange(c0, min(c0 + CHUNK, N_SEEDING), dtype=np.int64)
        if hasattr(engine, "_seed_states"):
            engine._seed_states(SEED, indices)
        else:
            [engine._substream(SEED, int(i)) for i in indices]
    seeding_us = (time.perf_counter() - t0) / N_SEEDING * 1e6

    default_disk_law()
    t0 = time.perf_counter()
    strip = engine.run_batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), N_STRIP,
                             engine.SimParams(engine="WosTime", master_seed=SEED))
    strip_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    half = engine.run_batch(HalfPlane(), (0.0, 1.0), N_HALFPLANE,
                            engine.SimParams(engine="EulerBridge", time_cap=1000.0,
                                             master_seed=SEED))
    half_s = time.perf_counter() - t0

    wos = engine.SimParams(engine="WosTime", master_seed=SEED)
    t0 = time.perf_counter()
    for i in range(N_REPLAY):
        engine.simulate_exit(VerticalStrip(-1.0, 1.0), (0.0, 0.0), wos, sample_index=i)
    replay_ms = (time.perf_counter() - t0) / N_REPLAY * 1e3

    print(json.dumps({
        "seeding_us": seeding_us,
        "strip_wos_run_batch_s": strip_s,
        "halfplane_euler_run_batch_s": half_s,
        "import_cli_s": import_s,
        "replay_ms": replay_ms,
        "strip_steps": int(strip.steps.sum()),
        "halfplane_steps": int(half.steps.sum()),
    }))


def _run_child(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COMBEXIT_WORKERS"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, __file__, "--child"], env=env,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"benchmark child for {src} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def _version(name: str) -> str:
    from importlib.metadata import version
    return version(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path,
                    help="source tree before the change (holds combexit/)")
    ap.add_argument("--change", type=Path,
                    default=Path(__file__).resolve().parents[1] / "src",
                    help="source tree after the change (default: this checkout)")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", type=Path, default=Path("BENCH_substreams.json"))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        _child()
        return 0
    if args.parent is None:
        ap.error("--parent is required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "combexit" / "engine.py").is_file():
            ap.error(f"{tree} holds no combexit package")
    runs = {side: [] for side in trees}
    for r in range(args.repeats):
        for side, tree in trees.items():
            runs[side].append(_run_child(tree))
            print(f"repeat {r} {side}: {json.dumps(runs[side][-1])}", flush=True)

    for key in ("strip_steps", "halfplane_steps"):
        counts = {run[key] for side in runs for run in runs[side]}
        if len(counts) != 1:
            print(f"warning: {key} differs between runs: {sorted(counts)}")
    rows = {
        name: {"unit": unit, **{
            side: {"median": statistics.median(run[name] for run in runs[side]),
                   "runs": [run[name] for run in runs[side]]}
            for side in runs}}
        for name, unit in UNITS.items()
    }
    result = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": SEED,
        "repeats": args.repeats,
        "samples": {"seeding": N_SEEDING, "strip_wos": N_STRIP,
                    "halfplane_euler": N_HALFPLANE},
        "steps": {"strip_wos": runs["change"][0]["strip_steps"],
                  "halfplane_euler": runs["change"][0]["halfplane_steps"]},
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, row in rows.items():
        print(f"{name}: {row['parent']['median']:.4g} -> "
              f"{row['change']['median']:.4g} {row['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
