#!/usr/bin/env python3
"""Random-deformation multiplicity scan with persisted, reproducible artifacts.

Samples random conformal factors, deforms the flat metric, and tabulates how
often the lowest positive eigenvalue clusters come out quaternionically
simple.  Writes genericity.json (canonical) and genericity.csv (summary).
"""

import argparse
import json
import pathlib

from spintorus.experiments import genericity_scan
from spintorus.torus_dirac import SpinStructure


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", default="1,0,0")
    ap.add_argument("--N", type=int, default=3)
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--t", type=float, default=0.05)
    ap.add_argument("--degree", type=int, default=2)
    ap.add_argument("--amplitude", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--m-clusters", type=int, default=3)
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    report = genericity_scan(
        SpinStructure.parse(args.delta),
        args.trials,
        args.t,
        args.N,
        args.degree,
        args.amplitude,
        args.seed,
        m_clusters=args.m_clusters,
    )
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "genericity.json").write_text(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    )
    with open(out / "genericity.csv", "w") as fh:
        for row in report.csv_rows():
            fh.write(",".join(row) + "\n")

    print(f"trials: {report.trials}, failures: {report.n_failures}")
    if report.fraction_all_simple is not None:
        print(f"fraction all-simple (first {report.m_clusters} positive clusters): "
              f"{report.fraction_all_simple:.3f}")
    for pattern, count in sorted(report.pattern_counts.items()):
        print(f"  mult_H pattern [{pattern}]: {count}")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
