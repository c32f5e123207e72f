#!/usr/bin/env python3
"""Coupling sweep of the partition-function stability experiment.

For each coupling on a log grid, evaluate log Z_N(f)/Z_N by exact quadrature
on the reference 4-site lattice, compare against the second-order series, and
record whether the discrepancy sits inside the remainder envelope.  The
discrepancy should scale like lambda^(j+1); the fitted slope is printed at
the end.
"""

import argparse
import csv
import math
import pathlib

import numpy as np

from phi4lab import ExperimentConfig, LatticeSpec, estimate_Z
from phi4lab.stability_lab import calibrate_Cj


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=1, help="truncation order j")
    ap.add_argument("--lam-min", type=float, default=0.005)
    ap.add_argument("--lam-max", type=float, default=0.2)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("results/stability_sweep.csv"))
    args = ap.parse_args()

    spec = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
    f = (0.6, -0.4, 0.2, 0.5)
    lams = np.geomspace(args.lam_min, args.lam_max, args.points)

    rows = []
    for lam in lams:
        cfg = ExperimentConfig(spec=spec, lam=float(lam), f=f, j=args.order)
        rep = estimate_Z(cfg, C_j=calibrate_Cj(cfg))
        gap = abs(rep.value - rep.series_value)
        rows.append((float(lam), rep.value, rep.series_value, gap,
                     rep.envelope, int(rep.inside)))
        print(f"lambda={lam:.4f}  value={rep.value:+.8e}  "
              f"gap={gap:.3e}  envelope={rep.envelope:.3e}  "
              f"inside={bool(rep.inside)}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "value", "series", "gap", "envelope", "inside"])
        w.writerows(rows)

    gaps = np.array([r[3] for r in rows])
    slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
    print(f"\ndiscrepancy slope d(log gap)/d(log lambda) = {slope:.3f} "
          f"(expected {args.order + 1})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
