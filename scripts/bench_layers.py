"""Layer benchmark: one row per layer cost, before and after a change.

Runs every row in a fresh interpreter against two source trees, each a
directory that holds the ``combexit`` package (the ``src`` of a checkout).
Each repetition runs every row once per tree, alternating which tree goes
first, so that a drift of the host's speed hits both alike.  Writes the
medians and every run, with ``nproc`` and the interpreter and library
versions, to ``BENCH_layers.json``:

    python3 scripts/bench_layers.py --parent /path/to/old/src \
        --change src --repeats 5

When the ``--out`` file exists, the rows run replace their namesakes in it
and every other row is kept as recorded; ``nproc`` and the versions are
those of the latest run.  Re-measure one row with ``--rows``:

    python3 scripts/bench_layers.py --parent /path/to/old/src \
        --rows chunk_setup_us

Rows:

* ``chunk_setup_us``: the EulerBridge cost per lane of a full pool that
  ends at its first step: ``run_batch`` of 4096 half-plane samples from
  (0, 1) with ``step_h = 0.04`` and ``max_steps = 1``, divided by 4096.
  Each lane gets its hash key and one kernel pass of 4 steps (the window
  that 4096 lanes fill) ends every lane; trees that seeded a numpy ``Generator`` per
  lane also paid for it and its first block of 32 steps of normals here;
* ``wos_steps_per_s_4096`` and ``wos_steps_per_s_32``: WosTime jumps per
  second of ``_simulate_range`` at full and at low lane occupancy, seeding
  and lane set-up included.  The lanes are the first samples at seed 7 that
  live at least ``K`` jumps, run with ``max_steps = K``, so every lane
  jumps exactly ``K`` times: 4096 strip lanes from the origin with K = 16,
  and 32 half-plane lanes from (0, 1) at time cap 1000 with K = 32.  The
  range ``0..lanes-1`` is mapped onto those samples' keys by wrapping
  ``_sample_keys``, through which the sampler seeds its lanes, so each tree
  runs lanes that live the same number of jumps;
* ``euler_steps_per_s_4096`` and ``euler_steps_per_s_32``: the same for
  EulerBridge steps (``step_h = 0.04``), with half-plane lanes from (0, 1)
  at time cap 1000 in both rows: 4096 lanes with K = 224 and 32 lanes with
  K = 4064.  Hashed path normals cover exactly the steps a pass runs, so
  every K is a whole number of passes' steps.  The K values are those of
  trees that drew normals in blocks (each K ended a block there), kept so
  that the rows stay comparable across trees;
* ``times_from_uniform_32_us`` and ``times_from_uniform_4096_us``: one
  disk-law inversion of 32 and of 4096 uniforms;
* ``disk_law_first_s``: the first ``default_disk_law()`` after
  ``import combexit.cli``, including any import it triggers;
* ``strip_moment_first_ms``: the first ``strip_moment(0.5)`` after
  ``import combexit.cli``, including any import it triggers;
* ``rectangle_distance_us``: ``lines.distance`` of 4096 points inside the
  rectangle (-2, 2) x (-1, 1);
* ``theta0_us``: one ``theta0(1.0)``, the mean over 20,000 calls;
* ``check_ms``: one ``check_theorem1`` at p = 2 of the uniform comb (gaps
  and teeth 1, window radius 40), built beforehand, the mean over 2000
  calls;
* ``import_cli_s``: ``import combexit.cli``;
* ``replay_ms``: one ``simulate_exit`` of a strip WosTime sample, the mean
  over indices 0-199 (disk-law table built beforehand), which pays the
  WosTime driver's fixed cost, seeding included, once per call;
* ``euler_replay_ms``: the same for EulerBridge samples on the strip
  (default step), which pays the fixed cost of the sample-range driver and
  EulerBridge's first short windows once per call;
* ``strip_wos_run_batch_s``: ``run_batch`` of 200k WosTime samples on the
  strip from the origin at seed 7 (disk-law table built beforehand);
* ``strip_wos_passes``: the number of WosTime kernel passes in that batch,
  counted as calls of ``DiskLawTable.times_from_uniform`` (one per pass in
  every tree), a count that the driver's lane schedule and the samples'
  lifetimes set;
* ``halfplane_euler_run_batch_s``: ``run_batch`` of 8192 EulerBridge
  samples on the half-plane from (0, 1) at time cap 1000, seed 7;
* ``halfplane_euler_passes``: the number of EulerBridge kernel passes in
  that batch, counted as calls of ``_walk`` (two per pass, one per
  coordinate, in every tree), with the lane-steps the passes drew in
  ``drawn`` (the lanes times the window of each pass) beside the steps the
  samples used in ``steps``;
* ``uniform_comb_euler_run_batch_s``: ``run_batch`` of 8192 EulerBridge
  samples on the uniform comb (gaps and teeth 1, window radius 40) from
  (0.5, 0) at time cap 200, seed 7: the dense case, where nearly every
  step lies close enough to some tooth for a crossing to be possible;
* ``uniform_comb_euler_passes``: the passes and drawn lane-steps of that
  batch, counted as for ``halfplane_euler_passes``;
* ``adversarial_stages3_s``: ``build_adversarial(3)`` at its default seed
  (disk-law table built beforehand), every stage and candidate included;
* ``read_samples_csv_200k_s``: ``read_samples_csv`` of a 200k-row sample
  file shaped like a strip WosTime batch's (exit points on the walls
  u = +-1, no passages), written by ``samples_to_csv`` and read once
  beforehand so that it sits in the page cache; the mean of three reads;
* ``samples_to_csv_200k_s``: what ``simulate`` pays for the same 200k
  samples' file: encode, atomic write into a temporary directory and
  sha256, the mean of three writes after one warm-up;
* ``simulate_strip_200k_peak_rss_mib``: the peak RSS (``ru_maxrss`` from
  ``os.wait4``) of ``python -m combexit.cli simulate`` of 200k WosTime
  samples on the strip from the origin at seed 7, spawned from the row's
  own small interpreter;
* ``halfplane_euler_peak_rss_mib``: the same for ``simulate`` of 8192
  EulerBridge samples on the half-plane from (0, 1) at time cap 1000, seed
  7 (perfbench's ``halfplane-euler`` command);
* ``uniform_comb_euler_peak_rss_mib``: the same for ``simulate`` of the
  ``uniform_comb_euler_run_batch_s`` batch: 8192 EulerBridge samples on the
  uniform comb (gaps and teeth 1, window radius 40) from (0.5, 0) at time
  cap 200, seed 7;
* ``construct_stages2_peak_rss_mib``: the same for ``construct --stages 2``
  at seed 7 (perfbench's ``construct`` command), whose WoS batches build
  the disk-law table;
* ``tail_index_200k_ms``: ``tail_index`` of the same 200k samples (Hill at
  the default ``k``), the mean of five calls after one warm-up call;
* ``check_cli_wall_s``: the wall time, spawn to exit, of ``python -m
  combexit.cli check`` at ``--p 2`` of the uniform comb (gaps and teeth 1,
  window radius 40), interpreter start and imports included;
* ``xval_strip_20k_wall_s``: the same for ``xval`` of 20k samples per
  engine on the strip from the origin at seed 7;
* ``construct_stages3_wall_s``: the same for ``construct --stages 3`` at
  seed 7.

The peak-RSS rows also record each command's minor page faults
(``ru_minflt``) and wall time, run by run in ``minflt`` and ``wall_s``
beside ``runs``: a change that hands memory back to the allocator and
takes it again shows in ``minflt`` even when the peak holds.  The
EulerBridge pass rows record each run's drawn lane-steps in ``drawn``.  The wall-time
rows record each command's peak RSS in ``peak_rss_mib``.  The batch,
pass-count and steps-per-second rows also record their step totals.  When
a change keeps every sample they agree between the trees; where they
differ the script says so on stderr, records ``"steps_agree": false`` in
the row and exits with status 1.  Not part of the test suite: a run takes
a few minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
CHUNK = 4096


def _per_call(fn, calls: int) -> float:
    """Mean seconds per call of ``fn`` over ``calls`` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _chunk_setup() -> dict:
    from combexit.engine import SimParams, run_batch
    from combexit.geometry import HalfPlane

    params = SimParams(step_h=0.04, max_steps=1, master_seed=SEED)
    run = lambda: run_batch(HalfPlane(), (0.0, 1.0), CHUNK, params)  # noqa: E731
    run()
    return {"value": _per_call(run, 20) / CHUNK * 1e6}


def _steps_per_s(domain, start, lanes: int, steps: int, **params) -> dict:
    """Steps per second of ``lanes`` lanes that each run exactly ``steps``
    steps; ``params`` pick the engine and its caps."""
    import numpy as np

    from combexit import engine
    from combexit.series import default_disk_law

    default_disk_law()
    pilot = engine.SimParams(master_seed=SEED, max_steps=steps, **params)
    picked = np.flatnonzero(
        engine.run_batch(domain, start, 20_000, pilot).steps >= steps)[:lanes]
    if picked.size < lanes:
        raise RuntimeError(f"only {picked.size} pilot samples live {steps} steps")
    keys = engine._sample_keys
    engine._sample_keys = lambda seed, indices: keys(
        seed, picked[np.asarray(indices, dtype=np.int64)])
    resolved = engine._resolve(domain, start, pilot)
    run = lambda: engine._simulate_range(domain, start, resolved, 0, lanes)  # noqa: E731
    if int(run()[-1].sum()) != lanes * steps:
        raise RuntimeError("a lane stopped before max_steps")
    return {"value": lanes * steps / _per_call(run, 20), "steps": lanes * steps}


def _wos_full() -> dict:
    from combexit.geometry import VerticalStrip

    return _steps_per_s(VerticalStrip(-1.0, 1.0), (0.0, 0.0), CHUNK, 16,
                        engine="WosTime")


def _wos_low() -> dict:
    from combexit.geometry import HalfPlane

    return _steps_per_s(HalfPlane(), (0.0, 1.0), 32, 32, engine="WosTime",
                        time_cap=1000.0)


def _euler_full() -> dict:
    from combexit.geometry import HalfPlane

    return _steps_per_s(HalfPlane(), (0.0, 1.0), CHUNK, 224,
                        engine="EulerBridge", step_h=0.04, time_cap=1000.0)


def _euler_low() -> dict:
    from combexit.geometry import HalfPlane

    return _steps_per_s(HalfPlane(), (0.0, 1.0), 32, 4064,
                        engine="EulerBridge", step_h=0.04, time_cap=1000.0)


def _times_from_uniform(lanes: int) -> dict:
    import numpy as np

    from combexit.series import default_disk_law

    table = default_disk_law()
    u = np.random.default_rng(SEED).random(lanes)
    table.times_from_uniform(u)
    return {"value": _per_call(lambda: table.times_from_uniform(u), 2000) * 1e6}


def _disk_law_first() -> dict:
    import combexit.cli  # noqa: F401
    from combexit.series import default_disk_law

    t0 = time.perf_counter()
    default_disk_law()
    return {"value": time.perf_counter() - t0}


def _strip_moment_first() -> dict:
    import combexit.cli  # noqa: F401
    from combexit.series import strip_moment

    t0 = time.perf_counter()
    strip_moment(0.5)
    return {"value": (time.perf_counter() - t0) * 1e3}


def _rectangle_distance() -> dict:
    import numpy as np

    from combexit.geometry import Rectangle

    rng = np.random.default_rng(SEED)
    u, v = rng.uniform(-2.0, 2.0, CHUNK), rng.uniform(-1.0, 1.0, CHUNK)
    lines = Rectangle(2.0, 1.0).lines
    lines.distance(u, v)
    return {"value": _per_call(lambda: lines.distance(u, v), 2000) * 1e6}


def _theta0() -> dict:
    from combexit.series import theta0

    theta0(1.0)
    return {"value": _per_call(lambda: theta0(1.0), 20_000) * 1e6}


def _check() -> dict:
    from combexit.checker import check_theorem1
    from combexit.geometry import CombSpec, UniformGaps, build_comb

    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40))
    check_theorem1(comb, 2.0)
    return {"value": _per_call(lambda: check_theorem1(comb, 2.0), 2000) * 1e3}


def _import_cli() -> dict:
    t0 = time.perf_counter()
    import combexit.cli  # noqa: F401
    return {"value": time.perf_counter() - t0}


def _replay(engine: str = "WosTime") -> dict:
    from combexit.engine import SimParams, simulate_exit
    from combexit.geometry import VerticalStrip
    from combexit.series import default_disk_law

    default_disk_law()
    strip, params = VerticalStrip(-1.0, 1.0), SimParams(engine=engine, master_seed=SEED)
    simulate_exit(strip, (0.0, 0.0), params, sample_index=0)
    t0 = time.perf_counter()
    for i in range(200):
        simulate_exit(strip, (0.0, 0.0), params, sample_index=i)
    return {"value": (time.perf_counter() - t0) / 200 * 1e3}


def _batch(domain, start, n: int, **params) -> dict:
    from combexit.engine import SimParams, run_batch

    t0 = time.perf_counter()
    result = run_batch(domain, start, n, SimParams(master_seed=SEED, **params))
    return {"value": time.perf_counter() - t0, "steps": int(result.steps.sum())}


def _strip_wos() -> dict:
    from combexit.geometry import VerticalStrip
    from combexit.series import default_disk_law

    default_disk_law()
    return _batch(VerticalStrip(-1.0, 1.0), (0.0, 0.0), 200_000, engine="WosTime")


def _strip_wos_passes() -> dict:
    from combexit.series import DiskLawTable

    invert = DiskLawTable.times_from_uniform
    passes = 0

    def counted(table, u):
        nonlocal passes
        passes += 1
        return invert(table, u)

    DiskLawTable.times_from_uniform = counted
    return {**_strip_wos(), "value": passes}


def _halfplane_euler() -> dict:
    from combexit.geometry import HalfPlane

    return _batch(HalfPlane(), (0.0, 1.0), 8192, engine="EulerBridge",
                  time_cap=1000.0)


def _uniform_comb_euler() -> dict:
    from combexit.geometry import CombSpec, UniformGaps, build_comb

    comb = build_comb(CombSpec(UniformGaps(1.0, 1.0), window_radius=40))
    return _batch(comb, (0.5, 0.0), 8192, engine="EulerBridge", time_cap=200.0)


def _euler_passes(batch) -> dict:
    """``batch()`` with its EulerBridge passes counted as calls of
    ``_walk``, which walks one coordinate of every live lane per pass."""
    from combexit import engine

    walk = engine._walk
    drawn = []

    def counted(x0, normals, scale, out):
        drawn.append(normals.size)
        return walk(x0, normals, scale, out)

    engine._walk = counted
    result = batch()
    return {**result, "value": len(drawn) // 2, "drawn": sum(drawn) // 2}


def _adversarial_stages3() -> dict:
    from combexit.adversarial import build_adversarial
    from combexit.series import default_disk_law

    default_disk_law()
    t0 = time.perf_counter()
    build_adversarial(3)
    return {"value": time.perf_counter() - t0}


def _strip_shaped_samples():
    """200k samples shaped like a strip WosTime batch's: exit points on the
    walls u = +-1, no passages."""
    import numpy as np

    from combexit.engine import SampleSet, SimParams

    n = 200_000
    rng = np.random.default_rng(SEED)
    return SampleSet(
        rng.exponential(size=n), rng.choice([-1.0, 1.0], n), rng.normal(size=n),
        np.zeros(n, dtype=bool), None, rng.geometric(1 / 14, n),
        "bench", SimParams(engine="WosTime"))


def _read_samples_csv() -> dict:
    from combexit.reports import read_samples_csv, samples_to_csv

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        samples_to_csv(_strip_shaped_samples(), path)
        read_samples_csv(path)
        return {"value": _per_call(lambda: read_samples_csv(path), 3)}


def _samples_to_csv() -> dict:
    from combexit.reports import samples_to_csv

    samples = _strip_shaped_samples()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        samples_to_csv(samples, path)
        return {"value": _per_call(lambda: samples_to_csv(samples, path), 3)}


def _cli_peak_rss(*args: str, domain: dict | None = None) -> dict:
    """Peak RSS of one ``python -m combexit.cli`` command, from ``os.wait4``,
    with its minor page faults and its wall time from spawn to exit.

    ``{tmp}`` in ``args`` names a temporary directory, which holds
    ``domain.json`` when ``domain`` is given.  Spawned from this small
    interpreter: a child started by vfork inherits its parent's RSS
    high-water mark, so a large parent would raise the child's
    ``ru_maxrss`` to its own."""
    with tempfile.TemporaryDirectory() as tmp:
        if domain is not None:
            (Path(tmp) / "domain.json").write_text(json.dumps(domain))
        argv = [sys.executable, "-m", "combexit.cli",
                *(arg.format(tmp=tmp) for arg in args)]
        # the row's own stdout carries its JSON result
        quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{args[0]} exited with status {status}")
    # Linux reports ru_maxrss in KiB
    return {"value": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt,
            "wall_s": wall}


def _cli_wall(*args: str, domain: dict | None = None) -> dict:
    """The wall time of one CLI command, with its peak RSS beside it."""
    run = _cli_peak_rss(*args, domain=domain)
    return {"value": run["wall_s"], "minflt": run["minflt"],
            "peak_rss_mib": run["value"]}


def _simulate_peak_rss(domain: dict, start: str, n: int, engine: str,
                       *args: str) -> dict:
    return _cli_peak_rss(
        "simulate", "--domain", "{tmp}/domain.json", "--start", start,
        "--n", str(n), "--engine", engine, *args, "--seed", str(SEED),
        "--out", "{tmp}/simulate.json", "--csv", "{tmp}/samples.csv",
        domain=domain)


_UNIFORM_COMB = {"type": "comb", "spec": {
    "generator": {"kind": "uniform", "spacing": 1.0, "height": 1.0},
    "window_radius": 40, "one_sided": False}}


def _uniform_comb_euler_peak_rss() -> dict:
    return _simulate_peak_rss(_UNIFORM_COMB, "0.5,0", 8192, "EulerBridge",
                              "--time-cap", "200.0")


def _tail_index() -> dict:
    from combexit.estimators import tail_index

    samples = _strip_shaped_samples()
    tail_index(samples)
    return {"value": _per_call(lambda: tail_index(samples), 5) * 1e3}


# name: (unit, child function)
ROWS = {
    "chunk_setup_us": ("us", _chunk_setup),
    "wos_steps_per_s_4096": ("1/s", _wos_full),
    "wos_steps_per_s_32": ("1/s", _wos_low),
    "euler_steps_per_s_4096": ("1/s", _euler_full),
    "euler_steps_per_s_32": ("1/s", _euler_low),
    "times_from_uniform_32_us": ("us", lambda: _times_from_uniform(32)),
    "times_from_uniform_4096_us": ("us", lambda: _times_from_uniform(4096)),
    "disk_law_first_s": ("s", _disk_law_first),
    "strip_moment_first_ms": ("ms", _strip_moment_first),
    "rectangle_distance_us": ("us", _rectangle_distance),
    "theta0_us": ("us", _theta0),
    "check_ms": ("ms", _check),
    "import_cli_s": ("s", _import_cli),
    "replay_ms": ("ms", _replay),
    "euler_replay_ms": ("ms", lambda: _replay("EulerBridge")),
    "strip_wos_run_batch_s": ("s", _strip_wos),
    "strip_wos_passes": ("count", _strip_wos_passes),
    "halfplane_euler_run_batch_s": ("s", _halfplane_euler),
    "uniform_comb_euler_run_batch_s": ("s", _uniform_comb_euler),
    "halfplane_euler_passes": ("count", lambda: _euler_passes(_halfplane_euler)),
    "uniform_comb_euler_passes": ("count",
                                  lambda: _euler_passes(_uniform_comb_euler)),
    "adversarial_stages3_s": ("s", _adversarial_stages3),
    "read_samples_csv_200k_s": ("s", _read_samples_csv),
    "samples_to_csv_200k_s": ("s", _samples_to_csv),
    "simulate_strip_200k_peak_rss_mib": ("MiB", lambda: _simulate_peak_rss(
        {"type": "vertical_strip", "left": -1.0, "right": 1.0},
        "0,0", 200_000, "WosTime")),
    "halfplane_euler_peak_rss_mib": ("MiB", lambda: _simulate_peak_rss(
        {"type": "half_plane"}, "0,1", 8192, "EulerBridge", "--time-cap", "1000.0")),
    "uniform_comb_euler_peak_rss_mib": ("MiB", _uniform_comb_euler_peak_rss),
    "construct_stages2_peak_rss_mib": ("MiB", lambda: _cli_peak_rss(
        "construct", "--stages", "2", "--seed", str(SEED),
        "--out", "{tmp}/construct.json", "--comb-out", "{tmp}/comb.json")),
    "tail_index_200k_ms": ("ms", _tail_index),
    "check_cli_wall_s": ("s", lambda: _cli_wall(
        "check", "--comb", "{tmp}/domain.json", "--p", "2",
        "--out", "{tmp}/check.json", domain=_UNIFORM_COMB)),
    "xval_strip_20k_wall_s": ("s", lambda: _cli_wall(
        "xval", "--domain", "{tmp}/domain.json", "--n", "20000",
        "--seed", str(SEED), "--out", "{tmp}/xval.json",
        domain={"type": "vertical_strip", "left": -1.0, "right": 1.0})),
    "construct_stages3_wall_s": ("s", lambda: _cli_wall(
        "construct", "--stages", "3", "--seed", str(SEED),
        "--out", "{tmp}/construct.json", "--comb-out", "{tmp}/comb.json")),
}


def _run_child(src: Path, row: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COMBEXIT_WORKERS"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, __file__, "--child", row], env=env,
                         capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"row {row} failed for {src}:\n{out.stderr}")
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
    ap.add_argument("--rows", nargs="+", choices=sorted(ROWS), default=list(ROWS),
                    help="rows to run (default: all)")
    ap.add_argument("--out", type=Path, default=Path("BENCH_layers.json"))
    ap.add_argument("--child", choices=sorted(ROWS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(ROWS[args.child][1]()))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    if args.repeats < 5:
        ap.error("--repeats must be at least 5 for a median worth reporting")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "combexit" / "engine.py").is_file():
            ap.error(f"{tree} holds no combexit package")
    runs = {row: {side: [] for side in trees} for row in args.rows}
    for r in range(args.repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for row in args.rows:
            for side in order:
                runs[row][side].append(_run_child(trees[side], row))
        print(f"repeat {r}: " + ", ".join(
            f"{row} {runs[row]['parent'][-1]['value']:.4g} -> "
            f"{runs[row]['change'][-1]['value']:.4g}" for row in args.rows),
            flush=True)

    rows = {}
    if args.out.is_file():
        rows = json.loads(args.out.read_text(encoding="utf-8"))["rows"]
    steps_differ = []
    for row, by_side in runs.items():
        rows[row] = {"unit": ROWS[row][0]}
        for side, results in by_side.items():
            values = [res["value"] for res in results]
            rows[row][side] = {"median": statistics.median(values), "runs": values}
            for key in ("minflt", "wall_s", "peak_rss_mib", "drawn"):
                if key in results[0]:
                    rows[row][side][key] = [res[key] for res in results]
            steps = {res["steps"] for res in results if "steps" in res}
            if steps:
                rows[row][side]["steps"] = sorted(steps)
        if "steps" in rows[row]["parent"]:
            agree = rows[row]["parent"]["steps"] == rows[row]["change"]["steps"]
            rows[row]["steps_agree"] = agree
            if not agree:
                steps_differ.append(row)
                print(f"WARNING: {row} step totals differ: parent "
                      f"{rows[row]['parent']['steps']}, change "
                      f"{rows[row]['change']['steps']}", file=sys.stderr)
    result = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "seed": SEED,
        "rows": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for row in args.rows:
        body = rows[row]
        print(f"{row}: {body['parent']['median']:.4g} -> "
              f"{body['change']['median']:.4g} {body['unit']}")
    return 1 if steps_differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
