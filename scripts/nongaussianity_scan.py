#!/usr/bin/env python3
"""Fourth cumulant of the source response versus coupling.

Measures kappa_4 of log Z(t f) in the source strength t by a five-point
finite-difference stencil on exact quadrature values, and compares it with
the leading-order prediction -4! lambda a^d sum_z ((C f)_z)^4.  The relative
gap shrinks linearly with lambda; both columns go in the CSV.
"""

import argparse
import csv
import math
import pathlib

from phi4lab import ExperimentConfig, LatticeSpec, nongaussianity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, nargs="+",
                    default=[0.005, 0.01, 0.02, 0.05, 0.1])
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("results/nongaussianity_scan.csv"))
    args = ap.parse_args()

    spec = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
    f = (0.6, -0.4, 0.2, 0.5)

    rows = []
    for lam in args.lam:
        cfg = ExperimentConfig(spec=spec, lam=lam, f=f)
        res = nongaussianity(cfg)
        rows.append((lam, res["kappa4"], res["prediction"],
                     res["relative_gap"]))
        print(f"lambda={lam:.4f}  kappa4={res['kappa4']:+.6e}  "
              f"prediction={res['prediction']:+.6e}  "
              f"rel gap={100 * res['relative_gap']:.2f}%")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda", "kappa4", "prediction", "relative_gap"])
        w.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
