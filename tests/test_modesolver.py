import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import default_device
from oracles import helmholtz_residual
from phasemirror.cli import main
from phasemirror.modesolver import (
    GridTooCoarse,
    ModeProfile,
    NoBoundMode,
    OutOfRange,
    _solve_even_slab,
    bisect_root,
    mode_weights,
    solve_te0,
)

DEFAULT_GEOM = default_device().geometry


def test_default_mode_basic_properties(default_profile):
    p = default_profile
    assert 1.0 < p.n_eff < 3.48
    assert p.k == pytest.approx(2 * np.pi / 930.0 * p.n_eff)
    # center symmetry forces a vanishing longitudinal component
    i0 = np.argmin(np.abs(p.grid))
    assert abs(p.e_x[i0]) < 1e-10
    assert np.max(np.abs(p.e_y)) == pytest.approx(1.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        replace(DEFAULT_GEOM, width_nm=-1)
    with pytest.raises(ValueError):
        replace(DEFAULT_GEOM, core_index=1.0, clad_index=1.0)
    with pytest.raises(ValueError):
        replace(DEFAULT_GEOM, clad_index=0.5)
    with pytest.raises(ValueError):
        replace(DEFAULT_GEOM, wavelength_nm=0)


def test_grid_refinement_converges():
    n_coarse = solve_te0(DEFAULT_GEOM, n_points=257).n_eff
    n_fine = solve_te0(DEFAULT_GEOM, n_points=513).n_eff
    assert abs(n_fine - n_coarse) / n_fine < 1e-6


def test_longitudinal_component_is_minor(default_profile):
    # well-guided TE mode: |e_x| < |e_y| through the central core region
    p = default_profile
    inner = np.abs(p.grid) <= 0.6 * p.core_half_width
    assert np.all(np.abs(p.e_x[inner]) < np.abs(p.e_y[inner]))


def test_helmholtz_residual_small(default_profile):
    assert helmholtz_residual(default_profile, DEFAULT_GEOM) < 1e-8


def test_parity(default_profile):
    p = default_profile
    tol = 1e-10 * np.max(np.abs(p.e_y))
    assert np.max(np.abs(p.e_y - p.e_y[::-1])) < tol
    assert np.max(np.abs(p.e_x + p.e_x[::-1])) < tol


def test_scale_invariance(default_profile):
    p = default_profile
    scaled = ModeProfile(
        grid=p.grid,
        e_x=7.3 * p.e_x,
        e_y=7.3 * p.e_y,
        n_eff=p.n_eff,
        k=p.k,
        core_half_width=p.core_half_width,
    )
    for y0 in (0.0, 35.0, 75.0, 140.0):
        wx1, wy1 = mode_weights(p, y0)
        wx2, wy2 = mode_weights(scaled, y0)
        if wx1 > 0:
            assert wx2 / wx1 == pytest.approx(7.3**2, rel=1e-12)
        assert wy2 / wy1 == pytest.approx(7.3**2, rel=1e-12)
        f1 = (wy1 - wx1) / (wy1 + wx1)
        f2 = (wy2 - wx2) / (wy2 + wx2)
        assert f1 == pytest.approx(f2, abs=1e-12)


def test_n_eff_monotone_in_width():
    n_effs = [
        solve_te0(replace(DEFAULT_GEOM, width_nm=w)).n_eff for w in (250.0, 300.0, 350.0)
    ]
    assert n_effs[0] < n_effs[1] < n_effs[2]


def test_weights_center(default_profile):
    wx, wy = mode_weights(default_profile, 0.0)
    assert wx == pytest.approx(0.0, abs=1e-20)
    ys = np.linspace(-150, 150, 301)
    wys = [mode_weights(default_profile, float(y))[1] for y in ys]
    assert wy == pytest.approx(max(wys))


def test_weights_near_60nm_offset(default_profile):
    # imbalance factor around the narrative offset; consistency target
    wx, wy = mode_weights(default_profile, 60.0)
    f = (wy - wx) / (wy + wx)
    assert 0.45 < f < 0.8


def test_weights_mirror_symmetric(default_profile):
    for y0 in (10.0, 60.0, 120.0, 200.0):
        assert mode_weights(default_profile, y0) == pytest.approx(
            mode_weights(default_profile, -y0), rel=1e-12
        )


def test_weights_on_an_array_equal_each_offset(default_profile):
    edge = default_profile.grid[-1]
    ys = np.linspace(-edge, edge, 301)
    wx, wy = mode_weights(default_profile, ys)
    each = [mode_weights(default_profile, float(y)) for y in ys]
    assert wx.tolist() == [w[0] for w in each]
    assert wy.tolist() == [w[1] for w in each]
    assert all(type(w) is float for w in each[0])


def test_weights_out_of_range(default_profile):
    with pytest.raises(OutOfRange):
        mode_weights(default_profile, default_profile.grid[-1] + 1.0)
    with pytest.raises(OutOfRange):
        mode_weights(default_profile, np.array([0.0, -default_profile.grid[-1] - 1.0]))


def test_no_bound_mode_for_narrow_wire():
    with pytest.raises(NoBoundMode):
        solve_te0(replace(DEFAULT_GEOM, width_nm=50.0))


@given(
    V=st.floats(min_value=0.01, max_value=50.0),
    R=st.floats(min_value=1.0, max_value=20.0),
)
def test_slab_root_sits_on_the_sign_change(V, R):
    def g(u):
        return u * math.tan(u) - R * math.sqrt(max(V * V - u * u, 0.0))

    u = _solve_even_slab(V, R)
    assert 0.0 < u < min(V, math.pi / 2.0)
    g_u = g(u)
    neighbours = (math.nextafter(u, -math.inf), math.nextafter(u, math.inf))
    assert g_u == 0.0 or any((g_u < 0.0) != (g(x) < 0.0) for x in neighbours)


@pytest.mark.parametrize("V", [-1.0, 0.0, 1e-12, 1e-8])
def test_slab_without_a_bracketed_root(V):
    # V <= 0, a bracket that collapses, and a bracket with no sign change
    with pytest.raises(NoBoundMode):
        _solve_even_slab(V, 1.0)


def test_bisect_root_reaches_adjacent_floats():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    assert bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_grid_too_coarse():
    # a very wide wire at the minimum point count undersamples the tails
    with pytest.raises(GridTooCoarse):
        solve_te0(replace(DEFAULT_GEOM, width_nm=10_000.0), n_points=64)


def test_n_points_precondition():
    with pytest.raises(ValueError):
        solve_te0(DEFAULT_GEOM, n_points=32)


def test_profile_csv_round_trip(default_profile, tmp_path):
    # `mode` exports the profile it solves, every float exactly
    assert main(["mode", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mode_profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y_nm", "e_x", "e_y"]
    assert len(rows) - 1 == len(default_profile.grid)
    y, ex, ey = (np.array([float(r[i]) for r in rows[1:]]) for i in range(3))
    assert np.array_equal(y, default_profile.grid)
    assert np.array_equal(ex, default_profile.e_x)
    assert np.array_equal(ey, default_profile.e_y)


@given(
    width=st.floats(min_value=200.0, max_value=500.0),
    thickness=st.floats(min_value=120.0, max_value=300.0),
    wavelength=st.floats(min_value=850.0, max_value=1050.0),
)
def test_solved_modes_are_physical(width, thickness, wavelength):
    geom = replace(
        DEFAULT_GEOM, width_nm=width, thickness_nm=thickness, wavelength_nm=wavelength
    )
    try:
        p = solve_te0(geom, n_points=257)
    except NoBoundMode:
        return
    assert geom.clad_index < p.n_eff < geom.core_index
    i0 = np.argmin(np.abs(p.grid))
    assert abs(p.e_x[i0]) < 1e-9
