"""Command line front end.

Every subcommand writes a JSON report, by default ``<subcommand>.json``,
embedding its resolved configuration and sha256 fingerprints of the files
it consumed; bulk samples go to CSV next to the report.  Each handler
returns the report body and :func:`run_command` alone writes the report and
owns the exit-code map: 0 on success, 2 on invalid arguments or malformed
configuration (no report), 3 when a batch escapes its comb window, a
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
from dataclasses import asdict
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

__all__ = ["main", "run_command"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_WORKERS_ENV = "COMBEXIT_WORKERS"
_XVAL_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


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


# ---------------------------------------------------------------------------
# subcommand handlers: each records its resolved arguments and input
# fingerprints in ``config`` before any sampling, then returns the report body


def _cmd_theta0(args, config: dict) -> dict:
    config["arguments"] = {"ell": args.ell}
    res = series.theta0(args.ell)
    return {
        "theta0": res.theta0,
        "p_top_bottom": res.p_top_bottom,
        "remainder_bound": res.remainder_bound,
    }


def _cmd_strip_moment(args, config: dict) -> dict:
    config["arguments"] = {"p": args.p}
    return {"p": args.p, "moment": series.strip_moment(args.p)}


def _load_comb(path: str) -> tuple[CombDomain, str]:
    cfg, fp = _load_json(path)
    if not isinstance(cfg, dict) or not {"type", "generator"} & cfg.keys():
        raise ValueError(f"{path}: expected a domain config or a comb spec")
    if "type" in cfg:
        domain = domain_from_config(cfg)
        if not isinstance(domain, CombDomain):
            raise ValueError(f"{path} describes a {cfg['type']}, not a comb")
        return domain, fp
    return build_comb(comb_spec_from_config(cfg)), fp


def _cmd_check(args, config: dict) -> dict:
    comb, fp = _load_comb(args.comb)
    config["arguments"] = {"comb": args.comb, "p": args.p, "refined": args.refined}
    config["inputs"] = {args.comb: fp}
    check = check_refined_unit if args.refined else check_theorem1
    verdict = check(comb, args.p)
    return {
        "status": verdict.status,
        "p": verdict.p,
        "theta0_used": verdict.theta0_used,
        "bound_on_moment_root": _finite_or_none(verdict.bound_on_moment_root),
        "reason": verdict.reason,
        "growth_class_used": verdict.growth_class_used,
        "domain_fingerprint": domain_fingerprint(comb),
    }


def _load_domain(args, config: dict):
    """The domain and start point of a sampling command, with both recorded
    in ``config``."""
    domain_cfg, fp = _load_json(args.domain)
    domain = domain_from_config(domain_cfg)
    start = _parse_start(args.start)
    config["arguments"] = {"domain": args.domain, "start": list(start), "n": args.n}
    config["inputs"] = {args.domain: fp}
    return domain, start


def _cmd_simulate(args, config: dict) -> dict:
    domain, start = _load_domain(args, config)
    params = _sim_params(args)
    csv_path = args.csv or str(Path(args.out).with_suffix("")) + "-samples.csv"
    config["arguments"].update(csv=csv_path, requested_params=_params_dict(params))
    result = run_batch(domain, start, args.n, params)
    csv_digest = samples_to_csv(result, csv_path)
    est = estimators.estimate_moment(result, 1.0)
    return {
        "domain_fingerprint": result.domain_fingerprint,
        "resolved_params": _params_dict(result.params),
        "n": result.total,
        "censored": result.censored,
        "mean_exit_time": est.point_estimate,
        "mean_exit_time_se": est.standard_error,
        "samples_csv": csv_path,
        "samples_fingerprint": csv_digest,
    }


def _tail_body(diag: estimators.TailDiagnostic) -> dict:
    return {
        "H_hat": diag.H_hat,
        "ci_95": list(diag.ci_95),
        "method": diag.method,
        "k": diag.k,
        "fit_range": None if diag.fit_range is None else list(diag.fit_range),
        "n_effective": diag.n_effective,
    }


def _read_samples(args, config: dict):
    """The sample set of ``--samples``, with the fingerprint of the very
    bytes it was parsed from recorded in ``config`` (one read, so a file
    replaced meanwhile cannot make the report describe other bytes than its
    estimate)."""
    data = Path(args.samples).read_bytes()
    config["inputs"] = {args.samples: fingerprint_bytes(data)}
    return read_samples_csv(args.samples, data)


def _cmd_tail(args, config: dict) -> dict:
    config["arguments"] = {"samples": args.samples, "method": args.method, "k": args.k}
    samples = _read_samples(args, config)
    return _tail_body(estimators.tail_index(samples, method=args.method, k=args.k))


def _cmd_verdict(args, config: dict) -> dict:
    config["arguments"] = {"samples": args.samples, "p": args.p, "method": args.method}
    samples = _read_samples(args, config)
    diag = estimators.tail_index(samples, method=args.method)
    call = estimators.moment_verdict(diag, args.p)
    return {"p": args.p, "verdict": call, "tail": _tail_body(diag)}


def _cmd_construct(args, config: dict) -> dict:
    config["arguments"] = {"stages": args.stages, "seed": args.seed,
                           "comb_out": args.comb_out}
    comb, trace = build_adversarial(args.stages, seed=args.seed)
    comb_cfg = domain_to_config(comb)
    write_text(args.comb_out, json.dumps(comb_cfg, indent=2, sort_keys=True) + "\n")
    return {
        "trace": [asdict(t) for t in trace],
        "comb": comb_cfg,
        "comb_file": args.comb_out,
        "comb_fingerprint": domain_fingerprint(comb),
    }


def _cmd_xval(args, config: dict) -> dict:
    if args.grid_points < 1:
        raise ValueError("grid_points must be at least 1")
    domain, start = _load_domain(args, config)
    config["arguments"].update(seed=args.seed, grid_points=args.grid_points,
                               time_cap=args.time_cap)
    runs = {
        engine: run_batch(domain, start, args.n, _sim_params(args, engine=engine))
        for engine in ("EulerBridge", "WosTime")
    }

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

    return {
        "agree_99": agree,
        "worst_band_fraction": worst,
        "points": points,
        "censored": {e: runs[e].censored for e in runs},
        "domain_fingerprint": runs["EulerBridge"].domain_fingerprint,
    }


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

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--domain", required=True, help="domain config JSON")
    sampling.add_argument("--seed", type=int, default=0)
    sampling.add_argument("--time-cap", dest="time_cap", type=float,
                          default=SimParams.time_cap)
    sampling.add_argument("--max-steps", dest="max_steps", type=int,
                          default=SimParams.max_steps)
    sampling.add_argument("--workers", type=int, default=None)

    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", required=True)
    samples.add_argument("--method", choices=("hill", "loglog"), default="hill")

    p = sub.add_parser(
        "theta0", help="per-passage survival factor for a gap aspect ratio"
    )
    p.add_argument("--ell", type=float, required=True)

    p = sub.add_parser(
        "strip-moment", help="analytic p-th exit-time moment of the unit strip"
    )
    p.add_argument("--p", type=float, required=True)

    p = sub.add_parser("check", help="finiteness certificate for a comb")
    p.add_argument("--comb", required=True, help="comb or domain config JSON")
    p.add_argument("--p", type=float, required=True)
    p.add_argument(
        "--refined",
        action="store_true",
        help="use the universal 3/4 factor (unit heights, gaps >= 1)",
    )

    p = sub.add_parser("simulate", parents=[sampling],
                       help="sample exit times into a CSV")
    p.add_argument("--start", required=True, help="start point 'U,V'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--engine", choices=("EulerBridge", "WosTime"), default="EulerBridge"
    )
    p.add_argument("--step-h", dest="step_h", type=float, default=None)
    p.add_argument("--shell-eps", dest="shell_eps", type=float, default=None)
    p.add_argument("--csv", default=None, help="samples path (default from --out)")

    p = sub.add_parser("tail", parents=[samples],
                       help="tail-exponent estimate from a sample CSV")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser(
        "verdict", parents=[samples],
        help="tri-state finiteness call for E[tau^p] from samples"
    )
    p.add_argument("--p", type=float, required=True)

    text = ("staged comb with exact half-moment lower bounds; exits 2 for a "
            "stage count out of range, never 3 (a window escape), as every "
            "sampled stage domain is walled")
    p = sub.add_parser("construct", help=text, description=text)
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the cross-check batches")
    p.add_argument("--comb-out", dest="comb_out", default="adversarial-comb.json")

    p = sub.add_parser("xval", parents=[sampling],
                       help="cross-validate the two engines on one domain")
    p.add_argument("--start", default="0.0,0.0")
    p.add_argument("--n", type=int, default=20_000)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=17)

    for name, p in sub.choices.items():
        p.add_argument("--out", default=f"{name}.json")
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
    """Run one subcommand, write its report and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own diagnostic: 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    config = {"subcommand": args.subcommand, "out": args.out,
              "arguments": {}, "inputs": {}}  # inputs: path -> sha256
    code = EXIT_OK
    try:
        try:
            body = _HANDLERS[args.subcommand](args, config)
        except WindowEscapeError as exc:
            body = {"error": {"kind": "window_escape", "message": str(exc)}}
            code = EXIT_INCONCLUSIVE
        write_report(args.out,
                     {"subcommand": args.subcommand, "config": config, **body})
    except (ValueError, TypeError, OSError) as exc:
        print(f"combexit {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
