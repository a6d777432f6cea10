"""Command line front end.

Every subcommand writes a JSON report embedding its resolved configuration
and sha256 fingerprints of the files it consumed; bulk samples go to CSV
next to the report.  Exit codes: 0 on success, 2 on invalid arguments or
malformed configuration, 3 when a batch escapes its comb window, a
structurally inconclusive state whose report is still written.

The default worker count for simulation batches comes from the
COMBEXIT_WORKERS environment variable; an explicit --workers flag wins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import estimators, series
from .adversarial import build_adversarial
from .checker import check_refined_unit, check_theorem1
from .engine import SimParams, WindowEscapeError, run_batch
from .geometry import (
    CombDomain,
    build_comb,
    comb_spec_from_config,
    domain_fingerprint,
    domain_from_config,
    domain_to_config,
)
from .reports import (
    fingerprint_bytes,
    read_samples_csv,
    samples_to_csv,
    write_report,
    write_text,
)

__all__ = ["RunConfig", "main", "run_command"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_WORKERS_ENV = "COMBEXIT_WORKERS"
_XVAL_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation, embedded verbatim in the report."""

    subcommand: str
    out: str
    arguments: dict
    inputs: dict = field(default_factory=dict)  # path -> sha256 of content


def _payload(cfg: RunConfig, body: dict) -> dict:
    return {"subcommand": cfg.subcommand, "config": asdict(cfg), **body}


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


def _load_json(path: str) -> tuple[dict, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text), fingerprint_bytes(text.encode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def _parse_start(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"start must be 'U,V', got {text!r}")
    return float(parts[0]), float(parts[1])


def _env_workers() -> int:
    raw = os.environ.get(_WORKERS_ENV)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_WORKERS_ENV}={raw!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"{_WORKERS_ENV} must be at least 1, got {value}")
    return value


def _sim_params(args, engine: str | None = None) -> SimParams:
    workers = args.workers if args.workers is not None else _env_workers()
    return SimParams(
        engine=engine or args.engine,
        step_h=getattr(args, "step_h", None),
        shell_eps=getattr(args, "shell_eps", None),
        time_cap=args.time_cap,
        max_steps=args.max_steps,
        master_seed=args.seed,
        workers=workers,
    )


def _params_dict(params: SimParams) -> dict:
    d = asdict(params)
    d["time_cap"] = _finite_or_none(params.time_cap)
    return d


def _window_escape_report(cfg: RunConfig, exc: WindowEscapeError) -> int:
    """Write the report of a batch that left its comb window; no samples."""
    write_report(
        cfg.out,
        _payload(cfg, {"error": {"kind": "window_escape", "message": str(exc)}}),
    )
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_theta0(args) -> int:
    res = series.theta0(args.ell)
    cfg = RunConfig("theta0", args.out, {"ell": args.ell})
    write_report(
        args.out,
        _payload(
            cfg,
            {
                "theta0": res.theta0,
                "p_top_bottom": res.p_top_bottom,
                "remainder_bound": res.remainder_bound,
            },
        ),
    )
    return EXIT_OK


def _cmd_strip_moment(args) -> int:
    value = series.strip_moment(args.p)
    cfg = RunConfig("strip-moment", args.out, {"p": args.p})
    write_report(args.out, _payload(cfg, {"p": args.p, "moment": value}))
    return EXIT_OK


def _load_comb(path: str) -> tuple[CombDomain, str]:
    cfg, fp = _load_json(path)
    if "type" in cfg:
        domain = domain_from_config(cfg)
        if not isinstance(domain, CombDomain):
            raise ValueError(f"{path} describes a {cfg['type']}, not a comb")
        return domain, fp
    if "generator" in cfg:
        return build_comb(comb_spec_from_config(cfg)), fp
    raise ValueError(f"{path}: expected a domain config or a comb spec")


def _cmd_check(args) -> int:
    comb, fp = _load_comb(args.comb)
    verdict = (
        check_refined_unit(comb, args.p)
        if args.refined
        else check_theorem1(comb, args.p)
    )
    cfg = RunConfig(
        "check",
        args.out,
        {"comb": args.comb, "p": args.p, "refined": args.refined},
        inputs={args.comb: fp},
    )
    write_report(
        args.out,
        _payload(
            cfg,
            {
                "status": verdict.status,
                "p": verdict.p,
                "theta0_used": verdict.theta0_used,
                "bound_on_moment_root": _finite_or_none(
                    verdict.bound_on_moment_root
                ),
                "reason": verdict.reason,
                "growth_class_used": verdict.growth_class_used,
                "domain_fingerprint": domain_fingerprint(comb),
            },
        ),
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    domain_cfg, fp = _load_json(args.domain)
    domain = domain_from_config(domain_cfg)
    start = _parse_start(args.start)
    params = _sim_params(args)
    csv_path = args.csv or str(Path(args.out).with_suffix("")) + "-samples.csv"
    cfg = RunConfig(
        "simulate",
        args.out,
        {
            "domain": args.domain,
            "start": list(start),
            "n": args.n,
            "csv": csv_path,
            "requested_params": _params_dict(params),
        },
        inputs={args.domain: fp},
    )
    try:
        result = run_batch(domain, start, args.n, params)
    except WindowEscapeError as exc:
        return _window_escape_report(cfg, exc)

    csv_digest = samples_to_csv(result, csv_path)
    est = estimators.estimate_moment(result, 1.0)
    write_report(
        args.out,
        _payload(
            cfg,
            {
                "domain_fingerprint": result.domain_fingerprint,
                "resolved_params": _params_dict(result.params),
                "n": result.total,
                "censored": result.censored,
                "mean_exit_time": est.point_estimate,
                "mean_exit_time_se": est.standard_error,
                "samples_csv": csv_path,
                "samples_fingerprint": csv_digest,
            },
        ),
    )
    return EXIT_OK


def _tail_body(diag: estimators.TailDiagnostic) -> dict:
    return {
        "H_hat": diag.H_hat,
        "ci_95": list(diag.ci_95),
        "method": diag.method,
        "k": diag.k,
        "fit_range": None if diag.fit_range is None else list(diag.fit_range),
        "n_effective": diag.n_effective,
    }


def _read_samples(path: str):
    """The sample set in ``path`` and the fingerprint of the very bytes it
    was parsed from (one read, so a file replaced meanwhile cannot make the
    report describe other bytes than its estimate)."""
    data = Path(path).read_bytes()
    return read_samples_csv(path, data), fingerprint_bytes(data)


def _cmd_tail(args) -> int:
    samples, digest = _read_samples(args.samples)
    diag = estimators.tail_index(samples, method=args.method, k=args.k)
    cfg = RunConfig(
        "tail",
        args.out,
        {"samples": args.samples, "method": args.method, "k": args.k},
        inputs={args.samples: digest},
    )
    write_report(args.out, _payload(cfg, _tail_body(diag)))
    return EXIT_OK


def _cmd_verdict(args) -> int:
    samples, digest = _read_samples(args.samples)
    diag = estimators.tail_index(samples, method=args.method)
    call = estimators.moment_verdict(diag, args.p)
    cfg = RunConfig(
        "verdict",
        args.out,
        {"samples": args.samples, "p": args.p, "method": args.method},
        inputs={args.samples: digest},
    )
    write_report(
        args.out,
        _payload(cfg, {"p": args.p, "verdict": call, "tail": _tail_body(diag)}),
    )
    return EXIT_OK


def _cmd_construct(args) -> int:
    cfg = RunConfig(
        "construct",
        args.out,
        {"stages": args.stages, "seed": args.seed, "comb_out": args.comb_out},
    )
    comb, trace = build_adversarial(args.stages, seed=args.seed)
    comb_cfg = domain_to_config(comb)
    write_text(args.comb_out, json.dumps(comb_cfg, indent=2, sort_keys=True) + "\n")
    write_report(
        args.out,
        _payload(
            cfg,
            {
                "trace": [asdict(t) for t in trace],
                "comb": comb_cfg,
                "comb_file": args.comb_out,
                "comb_fingerprint": domain_fingerprint(comb),
            },
        ),
    )
    return EXIT_OK


def _cmd_xval(args) -> int:
    if args.grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    domain_cfg, fp = _load_json(args.domain)
    domain = domain_from_config(domain_cfg)
    start = _parse_start(args.start)
    cfg = RunConfig(
        "xval",
        args.out,
        {
            "domain": args.domain,
            "start": list(start),
            "n": args.n,
            "seed": args.seed,
            "grid_points": args.grid_points,
            "time_cap": args.time_cap,
        },
        inputs={args.domain: fp},
    )
    runs = {}
    try:
        for engine in ("EulerBridge", "WosTime"):
            params = _sim_params(args, engine=engine)
            runs[engine] = run_batch(domain, start, args.n, params)
    except WindowEscapeError as exc:
        return _window_escape_report(cfg, exc)

    pooled = np.concatenate([runs[e].tau for e in runs])
    levels = np.linspace(0.10, 0.90, args.grid_points)
    grid = np.unique(np.quantile(pooled, levels))
    grid = grid[grid > 0.0]
    cap = min(r.params.time_cap for r in runs.values())
    grid = grid[grid < cap]
    if grid.size == 0:
        raise ValueError(
            "no usable grid points: exit times collapse onto the cap"
        )

    curves = {
        e: estimators.survival_curve(runs[e], grid) for e in runs
    }
    points = []
    agree = True
    worst = 0.0
    for (t, fe, se_e), (_, fw, se_w) in zip(
        curves["EulerBridge"], curves["WosTime"]
    ):
        width = _XVAL_Z99 * math.hypot(se_e, se_w)
        gap = abs(fe - fw)
        ok = gap <= width or (se_e == 0.0 and se_w == 0.0 and gap == 0.0)
        agree = agree and ok
        if width > 0.0:
            worst = max(worst, gap / width)
        points.append(
            {
                "t": t,
                "euler_survival": fe,
                "euler_se": se_e,
                "wos_survival": fw,
                "wos_se": se_w,
                "band_99": width,
                "within_band": ok,
            }
        )

    write_report(
        args.out,
        _payload(
            cfg,
            {
                "agree_99": agree,
                "worst_band_fraction": worst,
                "points": points,
                "censored": {e: runs[e].censored for e in runs},
                "domain_fingerprint": runs["EulerBridge"].domain_fingerprint,
            },
        ),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combexit",
        description=(
            "Exit-time laboratory for planar Brownian motion in slit and "
            "comb domains"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "theta0", help="per-passage survival factor for a gap aspect ratio"
    )
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--out", default="theta0.json")

    p = sub.add_parser(
        "strip-moment", help="analytic p-th exit-time moment of the unit strip"
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--out", default="strip-moment.json")

    p = sub.add_parser("check", help="finiteness certificate for a comb")
    p.add_argument("--comb", required=True, help="comb or domain config JSON")
    p.add_argument("--p", type=float, required=True)
    p.add_argument(
        "--refined",
        action="store_true",
        help="use the universal 3/4 factor (unit heights, gaps >= 1)",
    )
    p.add_argument("--out", default="check.json")

    p = sub.add_parser("simulate", help="sample exit times into a CSV")
    p.add_argument("--domain", required=True, help="domain config JSON")
    p.add_argument("--start", required=True, help="start point 'U,V'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--engine", choices=("EulerBridge", "WosTime"), default="EulerBridge"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-h", dest="step_h", type=float, default=None)
    p.add_argument("--shell-eps", dest="shell_eps", type=float, default=None)
    p.add_argument("--time-cap", dest="time_cap", type=float, default=1e4)
    p.add_argument(
        "--max-steps", dest="max_steps", type=int, default=10_000_000
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--csv", default=None, help="samples path (default from --out)")
    p.add_argument("--out", default="simulate.json")

    p = sub.add_parser("tail", help="tail-exponent estimate from a sample CSV")
    p.add_argument("--samples", required=True)
    p.add_argument("--method", choices=("hill", "loglog"), default="hill")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default="tail.json")

    p = sub.add_parser(
        "verdict", help="tri-state finiteness call for E[tau^p] from samples"
    )
    p.add_argument("--samples", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--method", choices=("hill", "loglog"), default="hill")
    p.add_argument("--out", default="verdict.json")

    text = ("staged comb with exact half-moment lower bounds; exits 2 for a "
            "stage count out of range, never 3 (a window escape), as every "
            "sampled stage domain is walled")
    p = sub.add_parser("construct", help=text, description=text)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the cross-check batches")
    p.add_argument("--comb-out", dest="comb_out", default="adversarial-comb.json")
    p.add_argument("--out", default="construct.json")

    p = sub.add_parser(
        "xval", help="cross-validate the two engines on one domain"
    )
    p.add_argument("--domain", required=True)
    p.add_argument("--start", default="0.0,0.0")
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=17)
    p.add_argument("--time-cap", dest="time_cap", type=float, default=1e4)
    p.add_argument(
        "--max-steps", dest="max_steps", type=int, default=10_000_000
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default="xval.json")

    return parser


_HANDLERS = {
    "theta0": _cmd_theta0,
    "strip-moment": _cmd_strip_moment,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "tail": _cmd_tail,
    "verdict": _cmd_verdict,
    "construct": _cmd_construct,
    "xval": _cmd_xval,
}


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostic: 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.subcommand](args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"combexit {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
