"""Tests of the benchmark's own closed forms, input generator and span arithmetic.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from phasemirror import modesolver, opticalstack  # noqa: E402
from phasemirror.config import DEFAULT_CONFIG, QD1_PRESET, RunConfig  # noqa: E402


@pytest.mark.parametrize("V,R", [(0.3, 1.0), (1.2, 1.0), (2.5, 6.5), (10.0, 12.0)])
def test_slab_root_solves_its_equation(V, R):
    u = checks.slab_root(V, R)
    assert 0.0 < u < min(V, math.pi / 2)
    assert abs(u * math.tan(u) - R * math.sqrt(V * V - u * u)) < 1e-12 * max(1.0, R * V)


@pytest.mark.parametrize("width", [250.0, 300.0, 400.0])
def test_effective_index_matches_the_solver(width):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["geometry"]["width_nm"] = width
    profile = modesolver.solve_te0(RunConfig.from_dict(cfg).geometry())
    n_eff, _, beta = checks.effective_index(cfg["geometry"])
    assert n_eff == pytest.approx(profile.n_eff, rel=1e-13)
    assert beta == pytest.approx(profile.k, rel=1e-13)


def test_weight_ratio_matches_the_sampled_mode():
    cfg = RunConfig.from_dict(QD1_PRESET)
    profile = modesolver.solve_te0(cfg.geometry(), n_points=cfg.grid_points)
    wx, wy = modesolver.mode_weights(profile, QD1_PRESET["emitter"]["y0_nm"])
    rho = checks.weight_ratio(QD1_PRESET["geometry"], QD1_PRESET["emitter"]["y0_nm"])
    assert rho == pytest.approx(wx / wy, rel=1e-3)


def test_qd1_visibilities_are_the_preset_targets():
    nu_i, nu_g = checks.expected_visibilities(QD1_PRESET)
    assert nu_i == pytest.approx(0.48, abs=1e-3)
    assert nu_g == pytest.approx(0.25, abs=1e-12)


def _product_r(mirror, lam):
    hole = 2.0 * mirror["hole_radius_nm"]
    u_half = (mirror["pitch_nm"] - hole) / 2.0
    M = np.eye(2, dtype=complex)
    for _ in range(mirror["n_holes"]):
        for n, d in ((mirror["n_unetched"], u_half), (mirror["n_hole"], hole),
                     (mirror["n_unetched"], u_half)):
            delta = 2.0 * math.pi / lam * n * d
            M = M @ np.array([[math.cos(delta), 1j * math.sin(delta) / n],
                              [1j * n * math.sin(delta), math.cos(delta)]])
    n = mirror["termination_index"]
    left = (M[0, 0] + M[0, 1] * n) * n
    right = M[1, 0] + M[1, 1] * n
    return (left - right) / (left + right)


@pytest.mark.parametrize("holes", [1, 2, 12, 48])
def test_chebyshev_stack_equals_the_matrix_product(holes):
    mirror = dict(DEFAULT_CONFIG["mirror"], n_holes=holes)
    lams = np.array([850.0, 912.5, 950.0, 1003.1, 1050.0])
    got = checks.periodic_stack_r(mirror, lams)
    want = [_product_r(mirror, lam) for lam in lams]
    assert np.max(np.abs(got - want)) < 1e-12
    spec = RunConfig.from_dict(dict(DEFAULT_CONFIG, mirror=mirror)).crystal()
    assert np.max(np.abs(got - [opticalstack.tmm_reflectivity(spec, lam) for lam in lams])) < 1e-12


def test_nu_rate_reduces_to_half_beta_r_for_a_centred_y_dipole():
    # gamma_x0 = 0: r gamma_y0 / (gamma_y0 + 2 gamma_b) = r beta_y0 / (2 - beta_y0)
    r, gy, gb = 0.5, 1.0, 0.1
    beta = gy / (gy + gb)
    assert checks.nu_rate(r, 0.0, gy, gb) == pytest.approx(r * beta / (2.0 - beta))


def test_generated_table_is_valid_and_seeded(tmp_path):
    rows = workloads.make_table(np.random.default_rng([7, 1]), 40)
    again = workloads.make_table(np.random.default_rng([7, 1]), 40)
    assert rows == again
    for row in rows:
        assert row["gamma_max"] >= row["gamma_min"] > 0
        assert 0.0 <= row["nu_I"] <= 1.0 and 0.0 <= row["nu_gamma"] <= 1.0
    path = str(tmp_path / "t.csv")
    workloads.write_table(path, rows)
    assert checks.read_table(path) == rows


def test_self_time_excludes_direct_children_only():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["inference.analyze_sweep", 1.0, 9.0, 0],
        ["inference.fit_biexponential", 2.0, 3.0, 1],
        ["inference.fit_biexponential", 4.0, 6.0, 1],
    ]
    got = layertrace.self_times(spans)
    assert got["cli.main"] == (1, pytest.approx(2.0))
    assert got["inference.analyze_sweep"] == (1, pytest.approx(5.0))
    assert got["inference.fit_biexponential"] == (2, pytest.approx(3.0))


def test_tracer_restores_the_package():
    from phasemirror import cli, config, inference

    before = (config.RunConfig.__dict__["from_dict"], cli.write_manifest,
              inference.fit_biexponential)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        config.RunConfig.from_dict(DEFAULT_CONFIG)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["config.from_dict"]
    assert tracer.counts["config.from_dict_calls"] == 1
    assert (config.RunConfig.__dict__["from_dict"], cli.write_manifest,
            inference.fit_biexponential) == before


def test_figures_take_medians_and_work_rates():
    slots = {"a": ("mode_s", 1.0), "b": ("pts_per_s", 10.0), "c": ("pts_per_s", 30.0)}
    times = {"a": [1.0, 3.0, 2.0], "b": [1.0, 1.0], "c": [2.0]}
    got = run.figures(slots, times)
    assert got == {"mode_s": 2.0, "pts_per_s": pytest.approx((20.0 + 30.0) / 4.0)}
