"""Reference values and output checks for the benchmark's operations.

Everything here is computed by the benchmark itself, from the physics the
package documents, never by calling the package: a check that asked the
program for its own answer would pass whatever the program did.  Each
``check_*`` function reads one command's output directory and returns a list
of problems; an empty list means the operation's outputs are right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# pull allowed between a fitted visibility and its closed form, in the fit's sigma
N_SIGMA = 5.0


# ---------------------------------------------------------------------------
# closed forms


def slab_root(V: float, R: float) -> float:
    """Root u of u tan(u) = R sqrt(V^2 - u^2) on (0, min(V, pi/2)), by bisection.

    The left side rises from 0 and the right side falls to 0 at u = V, so the
    bracket holds exactly one root; bisection runs until the bracket stops
    shrinking in floating point.
    """
    lo, hi = 0.0, min(V, math.pi / 2.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if mid * math.tan(mid) - R * math.sqrt(max(V * V - mid * mid, 0.0)) > 0.0:
            hi = mid
        else:
            lo = mid


def effective_index(geometry: dict) -> tuple[float, float, float]:
    """(n_eff, h_t, beta) of the TE0 wire mode by the two-slab effective-index method.

    Thickness first (R = 1) gives the slab index; the width step then carries
    the 1/n^2 flux continuity, R = (n_slab / n_clad)^2.  h_t is the transverse
    wavenumber in the core and beta = k0 n_eff.
    """
    k0 = 2.0 * math.pi / geometry["wavelength_nm"]
    n_core, n_clad = geometry["core_index"], geometry["clad_index"]
    half_t = geometry["thickness_nm"] / 2.0
    u_t = slab_root(k0 * half_t * math.sqrt(n_core**2 - n_clad**2), 1.0)
    n_slab = math.sqrt(n_core**2 - (u_t / half_t / k0) ** 2)
    half_w = geometry["width_nm"] / 2.0
    u_w = slab_root(
        k0 * half_w * math.sqrt(n_slab**2 - n_clad**2), (n_slab / n_clad) ** 2
    )
    h_t = u_w / half_w
    n_eff = math.sqrt(n_slab**2 - (h_t / k0) ** 2)
    return n_eff, h_t, k0 * n_eff


def weight_ratio(geometry: dict, y0_nm: float) -> float:
    """|e_x|^2 / |e_y|^2 at an offset inside the core.

    In the core the auxiliary field is cos(h_t y), e_y is proportional to it
    and e_x to its derivative over beta, so the ratio is (h_t tan(h_t y0) / beta)^2;
    the field normalisation cancels.
    """
    _, h_t, beta = effective_index(geometry)
    return (h_t * math.tan(h_t * y0_nm) / beta) ** 2


def nu_intensity(r: float, rho: float) -> float:
    """Two-dipole intensity visibility 2r/(1+r^2) |w_y - w_x| / (w_y + w_x), rho = w_x/w_y."""
    return 2.0 * r / (1.0 + r * r) * abs(1.0 - rho) / (1.0 + rho)


def nu_rate(r: float, gamma_x0: float, gamma_y0: float, gamma_b: float) -> float:
    """Rate visibility r |gamma_x0 - gamma_y0| / (gamma_x0 + gamma_y0 + 2 gamma_b)."""
    return r * abs(gamma_x0 - gamma_y0) / (gamma_x0 + gamma_y0 + 2.0 * gamma_b)


def _layer(n: float, d_nm: float, lam: np.ndarray) -> np.ndarray:
    delta = 2.0 * np.pi / lam * n * d_nm
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[c, 1j * s / n], [1j * n * s, c]]).transpose(2, 0, 1)


def periodic_stack_r(mirror: dict, lam: np.ndarray) -> np.ndarray:
    """Amplitude reflection of N identical periods [u/2, hole, u/2] by the Chebyshev identity.

    A unimodular period matrix P obeys P^N = U_{N-1}(a) P - U_{N-2}(a) I with
    a = (P11 + P22) / 2 and U the Chebyshev polynomials of the second kind, so
    no product of N matrices is formed.
    """
    lam = np.asarray(lam, dtype=float)
    hole = 2.0 * mirror["hole_radius_nm"]
    u_half = (mirror["pitch_nm"] - hole) / 2.0
    n_u, n_h = mirror["n_unetched"], mirror["n_hole"]
    P = _layer(n_u, u_half, lam) @ _layer(n_h, hole, lam) @ _layer(n_u, u_half, lam)
    a = 0.5 * (P[:, 0, 0] + P[:, 1, 1])
    u_prev, u_cur = np.zeros_like(a), np.ones_like(a)  # U_{-1}, U_0
    for _ in range(mirror["n_holes"] - 1):
        u_prev, u_cur = u_cur, 2.0 * a * u_cur - u_prev
    M = u_cur[:, None, None] * P - u_prev[:, None, None] * np.eye(2)
    n = mirror["termination_index"]
    left = (M[:, 0, 0] + M[:, 0, 1] * n) * n
    right = M[:, 1, 0] + M[:, 1, 1] * n
    return (left - right) / (left + right)


# ---------------------------------------------------------------------------
# reading outputs


def _rows(path: str) -> np.ndarray:
    """The numbers of a CSV file below its header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(x) for x in row] for row in reader])


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# per-command checks


def check_mode(out: str, cfg: dict) -> list[str]:
    """n_eff against the bisection, fig1c extrema against the single-dipole closed forms."""
    problems = []
    manifest = _json(os.path.join(out, "manifest.json"))
    n_eff, _, _ = effective_index(cfg["geometry"])
    if not _close(manifest["n_eff"], n_eff, 1e-10):
        problems.append(f"n_eff {manifest['n_eff']!r} != bisection {n_eff!r}")
    fig = _rows(os.path.join(out, "fig1c.csv"))
    r = cfg["r_T_mag"]
    e = cfg["emitter"]
    expect = {
        "rate max": (fig[:, 1].max(), e["gamma_y0"] * (1 + r) + e["gamma_b"]),
        "rate min": (fig[:, 1].min(), e["gamma_y0"] * (1 - r) + e["gamma_b"]),
        "intensity max": (fig[:, 2].max(), (1 + r) ** 2 / 2),
        "intensity min": (fig[:, 2].min(), (1 - r) ** 2 / 2),
    }
    for name, (got, want) in expect.items():
        if not _close(got, want, 1e-9):
            problems.append(f"fig1c {name} {got!r} != {want!r}")
    return problems


def check_mirror(out: str, cfg: dict) -> list[str]:
    """0 <= R <= 1, R >= 0.9 across 900-1000 nm, r against the Chebyshev form."""
    problems = []
    m = cfg["mirror"]
    rows = _rows(os.path.join(out, "mirror_sweep.csv"))
    if len(rows) != m["sweep_points"]:
        problems.append(f"{len(rows)} rows, expected {m['sweep_points']}")
    lam, r_re, r_im, R = rows.T
    if R.min() < 0.0 or R.max() > 1.0 + 1e-12:
        problems.append(f"R outside [0, 1]: [{R.min()}, {R.max()}]")
    band = (lam >= 900.0) & (lam <= 1000.0)
    if R[band].min() < 0.9:
        problems.append(f"R = {R[band].min():.4f} < 0.9 inside 900-1000 nm")
    pick = np.linspace(0, len(lam) - 1, 25).astype(int)
    want = periodic_stack_r(m, lam[pick])
    err = np.abs(r_re[pick] + 1j * r_im[pick] - want).max()
    if err > 1e-9:
        problems.append(f"r differs from the Chebyshev form by {err:.3g}")
    return problems


def check_simulate(out: str, cfg: dict) -> list[str]:
    """Every manifest SHA-256 recomputed; phi_rad = quad_coeff v^2 + quad_offset."""
    problems = []
    manifest = _json(os.path.join(out, "manifest.json"))
    for name, digest in manifest["files"].items():
        if _sha256(os.path.join(out, name)) != digest:
            problems.append(f"{name}: SHA-256 does not match the manifest")
    rows = _rows(os.path.join(out, "sweep.csv"))
    if len(rows) != cfg["sweep"]["n_points"]:
        problems.append(f"{len(rows)} sweep points, expected {cfg['sweep']['n_points']}")
    c = cfg["calibration"]
    phi = c["quad_coeff"] * rows[:, 0] ** 2 + c["quad_offset"]
    err = np.abs(rows[:, 1] - phi).max()
    if err > 1e-12 * max(1.0, float(np.abs(phi).max())):
        problems.append(f"phi_rad differs from quad_coeff v^2 by {err:.3g}")
    return problems


def expected_visibilities(cfg: dict) -> tuple[float, float]:
    """(nu_I, nu_gamma) that a sweep of this config should fit back."""
    r, e = cfg["r_T_mag"], cfg["emitter"]
    rho = weight_ratio(cfg["geometry"], e["y0_nm"])
    return nu_intensity(r, rho), nu_rate(r, e["gamma_x0"], e["gamma_y0"], e["gamma_b"])


def check_analyze_sweep(out: str, cfg: dict) -> list[str]:
    """Fitted nu_I and nu_gamma within N_SIGMA of the closed forms."""
    problems = []
    report = _json(os.path.join(out, "report.json"))
    want_i, want_g = expected_visibilities(cfg)
    for name, fit, want in (
        ("nu_I", report["intensity_fit"], want_i),
        ("nu_gamma", report["rate_fit"], want_g),
    ):
        got, sigma = fit["derived"]["visibility"], fit["derived"]["visibility_sigma"]
        pull = (got - want) / sigma
        if not abs(pull) <= N_SIGMA:
            problems.append(f"{name} = {got:.5f} vs {want:.5f}: pull {pull:+.1f} sigma")
    if len(report["rate_fits"]) != cfg["sweep"]["n_points"]:
        problems.append(f"{len(report['rate_fits'])} rate fits for {cfg['sweep']['n_points']} points")
    return problems


def check_analyze_table(out: str, table: list[dict]) -> list[str]:
    """Bound inverts 2r/(1+r^2), contrast from the extremal rates, bound <= min r_T_range."""
    problems = []
    rows = _json(os.path.join(out, "report.json"))["rows"]
    if len(rows) != len(table):
        return [f"{len(rows)} report rows for {len(table)} table rows"]
    for got, row in zip(rows, table):
        b = got["r_T_lower_bound_point"]
        if abs(2.0 * b / (1.0 + b * b) - row["nu_I"]) > 1e-12:
            problems.append(f"qd {row['qd']}: bound {b!r} does not invert nu_I")
        gmax, gmin = row["gamma_max"], row["gamma_min"]
        if abs(got["rate_contrast"] - (gmax - gmin) / (gmax + gmin)) > 1e-12:
            problems.append(f"qd {row['qd']}: rate contrast {got['rate_contrast']!r}")
        if got["feasible"] and got["r_T_lower_bound"] > min(got["r_T_range"]) + 1e-12:
            problems.append(f"qd {row['qd']}: bound above the feasible r_T range")
    return problems


def read_table(path: str) -> list[dict]:
    """Rows of a per-emitter table as dicts of floats (qd as int)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {k: int(v) if k == "qd" else float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
