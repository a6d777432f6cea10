"""Build a comb whose exact half-moment lower bounds outrun any target.

Runs the staged construction, prints the certificate trace beside the Monte
Carlo cross-check at each accepted wall, and writes the resulting comb as a
JSON domain config that the ``combexit check`` command can consume.  The
finished comb always leaves a half-plane beyond its last tooth, so the
finiteness checker must decline it at p = 1/2; the script confirms that as
a sanity check.
"""

import argparse
import json
from pathlib import Path

from combexit.adversarial import build_adversarial
from combexit.checker import check_theorem1
from combexit.geometry import domain_to_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stages", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the cross-check batches")
    ap.add_argument("--out", type=Path, default=Path("adversarial-comb.json"))
    args = ap.parse_args()

    domain, trace = build_adversarial(args.stages, seed=args.seed)

    print(f"{'stage':>5} {'wall x':>10} {'E[tau^1/2] >=':>14} "
          f"{'estimate':>9} {'SE':>7} {'samples':>8} {'tries':>6}")
    for t in trace:
        print(f"{t.stage:5d} {t.abscissa:10.2f} {t.lower_bound:14.6f} "
              f"{t.estimate:9.4f} {t.standard_error:7.4f} "
              f"{t.samples_used:8d} {t.search_iterations:6d}")
    print(f"total samples: {sum(t.samples_used for t in trace)}")

    report = check_theorem1(domain, p=0.5)
    print(f"checker at p=1/2: {report.status} (expected Inconclusive)")

    args.out.write_text(json.dumps(domain_to_config(domain), indent=2) + "\n")
    print(f"comb written to {args.out}")


if __name__ == "__main__":
    main()
