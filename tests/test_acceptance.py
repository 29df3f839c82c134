"""End-to-end acceptance checks, one test per contract item.

Each test prints a single PASS/FAIL line so the suite output doubles
as a checklist.  Tolerances are part of the contract and are asserted
as stated, not loosened to fit the implementation.
"""

import copy
import hashlib
import json
import math
import os
import time

import numpy as np
import pytest

import oracles
from helpers import builtin_table1_path
from phasemirror import emission as em
from phasemirror import inference, opticalstack, synthlab
from phasemirror.cli import main
from phasemirror.config import (
    DEFAULT_CONFIG,
    QD1_PRESET,
    RunConfig,
)
from phasemirror.emission import DipoleOrientation
from phasemirror.modesolver import mode_weights, solve_te0

SIGN = {DipoleOrientation.X: +1.0, DipoleOrientation.Y: -1.0}


def report(item: str, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {item}: {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def test_01_analytic_intensity_visibility():
    t0 = time.perf_counter()
    mid = em.visibility_intensity(0.5)
    lo = em.visibility_intensity(0.0)
    hi = em.visibility_intensity(1.0)
    elapsed = time.perf_counter() - t0
    ok = abs(mid - 0.8) < 1e-12 and lo == 0.0 and hi == 1.0 and elapsed < 1e-3
    assert report("1", "nu_I(0.5) = 0.8 analytically, under 1 ms", ok), (
        mid,
        lo,
        hi,
        elapsed,
    )


def test_02_interference_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        scene = em.EmitterScene(
            y0=0.0, L=theta / 2.0, k=1.0,
            gamma_x0=0.3, gamma_y0=1.0, gamma_b=0.1, gamma_nrad=0.0,
        )
        for dip in (DipoleOrientation.X, DipoleOrientation.Y):
            got = em.intensity(scene, (0.0, 1.0), r, phi, dip)
            oracle = 0.5 * abs(1.0 + SIGN[dip] * r * np.exp(1j * (2 * phi + theta))) ** 2
            worst = max(worst, abs(got - oracle))
    ok = worst < 1e-12
    assert report("2", "intensity equals expanded |1 +/- r e^{i(2phi+theta)}|^2 / 2", ok), worst


def test_03_green_function_reduction():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        k = rng.uniform(0.005, 0.05)
        L = rng.uniform(1e3, 1e5)
        # gamma_d0 = 1 and gamma_b = 0: the rate is the modulation factor
        scene = em.EmitterScene(
            y0=0.0, L=L, k=k,
            gamma_x0=1.0, gamma_y0=1.0, gamma_b=0.0, gamma_nrad=0.0,
        )
        for dip in (DipoleOrientation.X, DipoleOrientation.Y):
            got = em.decay_rate(scene, r, phi, dip)
            want = oracles.rate_modulation(r, phi, 2.0 * k * L, dip)
            worst = max(worst, abs(got - want))
    k = 0.0123
    im_exact = em.scalar_green(0.0, 0.0, k).imag == 1.0 / (2.0 * k)
    ok = worst < 1e-12 and im_exact
    assert report("3", "image-dipole ratio reduces to the closed form", ok), (
        worst,
        im_exact,
    )


def test_04_phase_average_conservation():
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    scene = cfg.scene(profile.k)
    phis = np.linspace(0.0, 2.0 * math.pi, 1025)[:-1]
    avg = float(
        np.mean([em.decay_rate(scene, 0.5, p, DipoleOrientation.Y) for p in phis])
    )
    ok = abs(avg - (scene.gamma_y0 + scene.gamma_b)) < 1e-10
    assert report("4", "phase-averaged rate equals gamma_d0 + gamma_b", ok), avg


def test_05_figure_curves():
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    scene = cfg.scene(profile.k)
    weights = mode_weights(profile, scene.y0)
    _, rates, inten = em.figure1c_curves(scene, weights, 0.5, DipoleOrientation.Y)
    nu_i = (inten.max() - inten.min()) / (inten.max() + inten.min())
    extrema_ok = (
        abs(rates.max() - (scene.gamma_y0 * 1.5 + scene.gamma_b)) < 1e-10
        and abs(rates.min() - (scene.gamma_y0 * 0.5 + scene.gamma_b)) < 1e-10
    )
    y0, nu_i_col, nu_g_col = em.figure1d_curves(profile, scene, 0.5)
    by_y0 = dict(zip(y0.tolist(), zip(nu_i_col.tolist(), nu_g_col.tolist())))
    beta_y0 = scene.gamma_y0 / (scene.gamma_y0 + scene.gamma_b)
    center_ok = (
        abs(by_y0[0.0][0] - 0.8) < 1e-12
        and abs(by_y0[0.0][1] - 0.5 * beta_y0 * 0.5) < 1e-12
    )
    sym = max(
        max(abs(by_y0[y][0] - by_y0[-y][0]), abs(by_y0[y][1] - by_y0[-y][1]))
        for y in by_y0
        if y > 0 and -y in by_y0
    )
    ok = extrema_ok and abs(nu_i - 0.8) < 1e-12 and center_ok and sym < 1e-10
    assert report("5", "figure curves: extrema, center visibilities, symmetry", ok), (
        rates.max(),
        rates.min(),
        nu_i,
        by_y0[0.0],
        sym,
    )


def test_06_qd1_round_trip():
    t0 = time.perf_counter()
    cfg = RunConfig.from_dict(QD1_PRESET)
    profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    scene = cfg.scene(profile.k)
    weights = mode_weights(profile, scene.y0)
    phis, counts, histograms = synthlab.generate_sweep(
        scene, weights, cfg.r_T_magnitude(), cfg.calibration, cfg.sweep, seed=cfg.seed
    )
    result = inference.analyze_sweep(
        phis, counts, cfg.sweep.bin_edges(), histograms, profile=profile,
        histogram_names=synthlab.histogram_header(len(histograms))[1:],
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(result["gamma_max"] - 1.00) <= 0.08
        and abs(result["gamma_min"] - 0.63) <= 0.08
        and abs(result["nu_gamma"] - 0.27) <= 0.05
        and abs(result["nu_I"] - 0.48) <= 0.03
        and elapsed < 30.0
    )
    assert report("6", "tuned-emitter round trip lands on the tabulated row", ok), (
        result["gamma_max"],
        result["gamma_min"],
        result["nu_gamma"],
        result["nu_I"],
        elapsed,
    )


def test_07a_reflectivity_bound_from_intensity_visibility(default_profile):
    rows = inference.read_table1_csv(builtin_table1_path())
    (qd4,) = [row for row in rows if row["qd"] == 4]
    nu_I = qd4["nu_I"]
    bound = inference.r_lower_bound(nu_I)
    (qd4_report,) = [
        row
        for row in inference.table1_report(rows, default_profile)["rows"]
        if row["qd"] == 4
    ]
    ok = (
        0.40 <= bound <= 0.42
        and qd4_report["r_T_lower_bound_point"] == bound
        and em.visibility_intensity(bound) == pytest.approx(nu_I, abs=1e-12)
    )
    assert report("7a", f"QD4 nu_I = {nu_I} maps to a bound in [0.40, 0.42]", ok), (
        nu_I,
        bound,
        qd4_report["r_T_lower_bound_point"],
    )


def test_07b_feasible_set_contains_offset_solution():
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    est = inference.estimate_parameters(0.48, 0.27, profile)
    # a slice whose |r_T| interval meets [0.55, 0.65] at an offset in [40, 80] nm
    hit = any(
        40.0 <= y <= 80.0 and r_lo <= 0.65 and r_hi >= 0.55
        for y, r_lo, r_hi, _, _ in est.feasible_slices
    )
    assert report("7b", "feasible set reaches r_T ~ 0.6 at y0 ~ 60 nm", hit), (
        est.r_T_range,
        est.y0_range,
    )


def test_08_mirror_stopband_and_flux_conservation():
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    spec = cfg.crystal()
    lams = np.linspace(900.0, 1000.0, 101)
    _, _, power = opticalstack.reflectivity_sweep(spec, lams)
    min_R = min(power)
    indices, lengths = oracles.segment_layout(spec)
    worst = 0.0
    for lam in lams:
        r, t = oracles.stack_coefficients(
            indices, lengths, spec.termination_index, spec.termination_index, lam
        )
        worst = max(worst, abs(abs(r) ** 2 + abs(t) ** 2 - 1.0))
    ok = min_R > 0.9 and worst < 1e-10
    assert report("8", "stopband above 0.9 over 900-1000 nm, flux conserved", ok), (
        min_R,
        worst,
    )


def test_09_gradient_check():
    rng = np.random.default_rng(5)
    edges = np.linspace(0.0, 25.0, 201)
    counts = rng.poisson(50.0, size=200).astype(float)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        x = np.array(
            [
                rng.uniform(2.0, 6.0),
                rng.uniform(-0.5, 0.8),
                rng.uniform(0.0, 4.0),
                rng.uniform(-3.0, -1.0),
            ]
        )
        ga = oracles.poisson_nll_gradient(x, edges, counts, False)
        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            mup, _ = inference.biexp_model(xp, edges, False)
            mum, _ = inference.biexp_model(xm, edges, False)
            gn = (inference.poisson_nll(mup, counts) - inference.poisson_nll(mum, counts)) / (2 * h)
            worst = max(worst, abs(gn - ga[j]) / max(abs(ga[j]), 1.0))
    ok = worst < 1e-6
    assert report("9", "analytic likelihood gradient matches finite differences", ok), worst


def _run_pipeline(base, tag):
    sim = os.path.join(base, f"sim_{tag}")
    ana = os.path.join(base, f"ana_{tag}")
    assert main(["simulate", "--out", sim]) == 0
    assert main(["analyze", "--in", sim, "--out", ana]) == 0
    return sim, ana


def _manifest_files(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)["files"]


def test_10_byte_determinism(tmp_path):
    base = str(tmp_path)
    sim1, ana1 = _run_pipeline(base, "a")
    sim2, ana2 = _run_pipeline(base, "b")
    sim3, ana3 = _run_pipeline(base, "c")
    same_sim = _manifest_files(sim1) == _manifest_files(sim2) == _manifest_files(sim3)
    same_ana = _manifest_files(ana1) == _manifest_files(ana2) == _manifest_files(ana3)
    with open(os.path.join(ana1, "report.json"), "rb") as fh:
        rep1 = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(ana3, "report.json"), "rb") as fh:
        rep3 = hashlib.sha256(fh.read()).hexdigest()
    ok = same_sim and same_ana and rep1 == rep3
    assert report("10", "simulate+analyze byte-identical across reruns", ok)


def test_11_table_report_flags_first_row(default_profile):
    rows = inference.read_table1_csv(builtin_table1_path())
    rep = inference.table1_report(rows, default_profile)
    first = rep["rows"][0]
    ok = (
        len(rep["rows"]) == 6
        and abs(first["rate_contrast"] - 0.227) < 5e-4
        and first["nu_gamma"] == 0.27
        and first["nu_gamma_err"] == 0.04
        and first["contrast_within_1_sigma"] is False
        and any("outside 1 sigma" in n for n in first["notes"])
        and all("r_T_lower_bound_point" in r for r in rep["rows"])
    )
    assert report("11", "table report flags the first-row contrast mismatch", ok), first
