"""Cross-validate the two samplers on exactly solvable fixtures.

Prints per-time-point survival fractions for both engines with joint 99%
bands, then a discretization study: halving the Euler step and the shell
radius should pull the two mean-exit-time estimates toward each other.
"""

import argparse
import math

import numpy as np

from combexit.engine import SimParams, run_batch
from combexit.estimators import survival_curve
from combexit.geometry import Rectangle, VerticalStrip

Z99 = 2.5758293035489004


def survival_table(domain, label, n, seed):
    runs = {
        engine: run_batch(domain, (0.0, 0.0), n,
                          SimParams(engine=engine, master_seed=seed))
        for engine in ("EulerBridge", "WosTime")
    }
    pooled = np.concatenate([r.tau for r in runs.values()])
    grid = np.unique(np.quantile(pooled, np.linspace(0.1, 0.9, 9)))
    curves = {e: survival_curve(runs[e], grid) for e in runs}

    print(f"\n{label}: survival at pooled quantiles, n={n} per engine")
    print(f"{'t':>10} {'euler':>8} {'wos':>8} {'|diff|':>8} {'band99':>8}")
    worst = 0.0
    for (t, fe, se_e), (_, fw, se_w) in zip(
        curves["EulerBridge"], curves["WosTime"]
    ):
        band = Z99 * math.hypot(se_e, se_w)
        worst = max(worst, abs(fe - fw) / band if band else 0.0)
        print(f"{t:10.4f} {fe:8.4f} {fw:8.4f} {abs(fe - fw):8.4f} {band:8.4f}")
    print(f"worst band fraction: {worst:.3f} (must stay below 1)")


def halving_study(n, seed):
    strip = VerticalStrip(-1.0, 1.0)
    print(f"\nstrip mean exit time, n={n}: true value 1")
    print("euler step halving (bias is O(h), one exit-time quantum):")
    for h in (0.16, 0.08, 0.04):
        ss = run_batch(strip, (0.0, 0.0), n,
                       SimParams(step_h=h, master_seed=seed))
        t = ss.tau
        print(f"  h={h:<6} mean={t.mean():.4f}  se={t.std(ddof=1)/math.sqrt(n):.4f}")
    print("wos shell halving (bias is the residual time inside the shell):")
    for eps in (0.08, 0.04, 0.02):
        ss = run_batch(strip, (0.0, 0.0), n,
                       SimParams(engine="WosTime", shell_eps=eps,
                                 master_seed=seed))
        t = ss.tau
        print(f"  eps={eps:<5} mean={t.mean():.4f}  se={t.std(ddof=1)/math.sqrt(n):.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    survival_table(VerticalStrip(-1.0, 1.0), "VerticalStrip(-1,1)", args.n, args.seed)
    survival_table(Rectangle(1.0, 1.0), "Rectangle(1,1)", args.n, args.seed)
    halving_study(args.n, args.seed)


if __name__ == "__main__":
    main()
