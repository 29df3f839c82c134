#!/usr/bin/env python3
"""Full synthetic experiment on the QD-1 preset, through the CLI.

Runs `phasemirror simulate --preset qd1` into <outdir>/sim (a 12-point
voltage sweep with photon-counting noise), then `phasemirror analyze
--in` on it into <outdir>/fit (fringe fit, per-point lifetime fits,
rate fringe fit, feasible-parameter set), and prints the recovered
numbers from report.json next to the simulation truth.  Exits with the
CLI's code if either command fails.

Usage: python3 scripts/run_qd1_experiment.py [outdir]
"""

import json
import os
import sys

from phasemirror.cli import main as cli_main


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "qd1_run"
    sim, fit = os.path.join(outdir, "sim"), os.path.join(outdir, "fit")
    for argv in (
        ["simulate", "--preset", "qd1", "--out", sim],
        ["analyze", "--in", sim, "--out", fit],
    ):
        rc = cli_main(argv)
        if rc:
            return rc

    with open(os.path.join(sim, "manifest.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)["config"]
    report_path = os.path.join(fit, "report.json")
    with open(report_path, encoding="utf-8") as fh:
        result = json.load(fh)
    print(f"emitter offset   : {cfg['emitter']['y0_nm']:.2f} nm, |r_T| = {cfg['r_T_mag']}")
    print(f"nu_I   recovered : {result['nu_I']:.4f}   (truth 0.48)")
    print(f"nu_g   recovered : {result['nu_gamma']:.4f}   (truth 0.25)")
    print(f"gamma_max        : {result['gamma_max']:.4f} 1/ns (truth 1.05)")
    print(f"gamma_min        : {result['gamma_min']:.4f} 1/ns (truth 0.63)")
    est = result["estimate"]
    if est is not None:
        lo, hi = est["r_T_range"]
        print(f"feasible |r_T|   : [{lo:.2f}, {hi:.2f}] "
              f"({len(est['feasible_slices'])} feasible offsets)")
        lo, hi = est["y0_range"]
        print(f"feasible |y0|    : [{lo:.1f}, {hi:.1f}] nm")
        print(f"|r_T| lower bound: {est['r_T_lower_bound_point']:.4f} "
              "(centered-emitter inversion)")
    print(f"\nreport written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
