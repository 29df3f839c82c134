#!/usr/bin/env python3
"""Derive the QD-1 preset emitter parameters from first principles.

Working backwards from the targets (rate toggling 1.05 <-> 0.63 1/ns,
intensity visibility 0.48, |r_T| = 0.6), this script solves the default
waveguide mode, finds the lateral offset whose mode-weight imbalance
yields the intensity visibility, splits the rates in proportion to the
local weights, and solves for the background rate.  The result must
match config.QD1_PRESET; run after any change to the mode solver or
the preset to keep the two in sync.
"""

import sys

from phasemirror.config import DEFAULT_CONFIG, QD1_PRESET, RunConfig
from phasemirror.emission import visibility_intensity_mixed
from phasemirror.modesolver import bisect_root, mode_weights, solve_te0

R_T = 0.6
NU_I_TARGET = 0.48
GAMMA_MAX = 1.05
GAMMA_MIN = 0.63
GAMMA_NRAD = 0.1


def main() -> int:
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    half = profile.core_half_width

    def excess(y0: float) -> float:
        return visibility_intensity_mixed(R_T, mode_weights(profile, y0)) - NU_I_TARGET

    # the visibility falls from nu(r) at the center to 0 at the weight
    # crossing, inside the bracket, and rises again beyond it, to
    # |(wy - wx)/(wy + wx)| * nu(r) = 0.164 at its end
    y0_star = bisect_root(excess, 0.0, 0.75 * half)
    wx, wy = mode_weights(profile, y0_star)
    rho_sq = wx / wy

    # gamma_x = rho_sq * gamma_y; amplitude and mean of the averaged
    # rate fringe then fix gamma_y and gamma_b.
    amp = 0.5 * (GAMMA_MAX - GAMMA_MIN)
    mean = 0.5 * (GAMMA_MAX + GAMMA_MIN)
    gamma_y = 2.0 * amp / (R_T * (1.0 - rho_sq))
    gamma_x = rho_sq * gamma_y
    gamma_b = mean - 0.5 * (gamma_x + gamma_y)

    beta_y = gamma_y / (gamma_y + gamma_b)
    nu_gamma = R_T * (gamma_y - gamma_x) / (gamma_x + gamma_y + 2.0 * gamma_b)

    derived = {
        "y0_nm": round(y0_star, 9),
        "gamma_x0": round(gamma_x, 9),
        "gamma_y0": round(gamma_y, 9),
        "gamma_b": round(gamma_b, 9),
        "gamma_nrad": GAMMA_NRAD,
    }
    print(f"offset y0*      : {y0_star:.9f} nm  (half width {half:g} nm)")
    print(f"weight ratio    : wx/wy = {rho_sq:.9f}")
    print(f"gamma_x0        : {gamma_x:.9f} 1/ns")
    print(f"gamma_y0        : {gamma_y:.9f} 1/ns")
    print(f"gamma_b         : {gamma_b:.9f} 1/ns")
    print(f"beta_y (local)  : {beta_y:.6f}")
    print(f"predicted nu_I  : {NU_I_TARGET:.6f} (by construction)")
    print(f"predicted nu_g  : {nu_gamma:.6f}")
    print(f"rate extrema    : {mean + amp:.6f} / {mean - amp:.6f} 1/ns")

    frozen = QD1_PRESET["emitter"]
    bad = [
        key
        for key in derived
        if abs(derived[key] - frozen[key]) > 1e-6
    ]
    if bad:
        print(f"\nPRESET OUT OF SYNC for {bad}; paste this into config.py:")
        print(f"QD1_PRESET[\"emitter\"] = {derived!r}")
        return 1
    print("\npreset matches the derivation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
