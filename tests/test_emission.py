import csv
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import default_device
from oracles import figure1d_row, rate_modulation, visibility_rate_centered
from phasemirror import emission
from phasemirror.cli import main
from phasemirror.emission import (
    DipoleOrientation,
    ReflectivityOutOfRange,
    _check_reflectivity,
    decay_rate,
    figure1c_curves,
    figure1d_curves,
    intensity,
    scalar_green,
    visibility_intensity,
    visibility_intensity_mixed,
)
from phasemirror.modesolver import mode_weights, solve_te0

X, Y, AVG = (
    DipoleOrientation.X,
    DipoleOrientation.Y,
    DipoleOrientation.AVERAGED_BOTH,
)

phases = st.floats(min_value=-20.0, max_value=20.0)
reflectivities = st.floats(min_value=0.0, max_value=1.0)


def make_scene(**kw):
    return replace(default_device().scene, **kw)


class TestScalarGreen:
    def test_self_field(self):
        k = 2 * math.pi / 930.0
        g = scalar_green(0.0, 0.0, k)
        assert g == pytest.approx(1j / (2 * k))
        assert g.imag == pytest.approx(1.0 / (2 * k), abs=1e-15)

    def test_full_wavelength_periodicity(self):
        k = 2 * math.pi / 930.0
        assert scalar_green(930.0, 0.0, k) == pytest.approx(1j / (2 * k))

    @given(sep=st.floats(min_value=0.0, max_value=1e6))
    def test_unit_modulus(self, sep):
        k = 0.0173
        assert abs(scalar_green(sep, 0.0, k)) == pytest.approx(1 / (2 * k))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            scalar_green(0.0, 0.0, 0.0)


def unit_scene(k, L):
    # gamma_d0 = 1 and gamma_b = 0: decay_rate is the factor 1 +/- |r_T| cos(2 phi + theta)
    return make_scene(k=k, L=L, gamma_x0=1.0, gamma_y0=1.0, gamma_b=0.0)


class TestRateModulation:
    @given(r=reflectivities, phi=phases, theta=phases)
    def test_green_ratio_equals_closed_form(self, r, phi, theta):
        k = 0.0173
        L = (theta % (2 * math.pi)) / (2 * k)  # non-negative, same fringe
        for dip in (X, Y):
            closed = rate_modulation(r, phi, 2 * k * L, dip)
            green = decay_rate(unit_scene(k, L), r, phi, dip)
            assert green == pytest.approx(closed, abs=1e-12)

    def test_image_dipole_in_phase(self):
        # r=1, 2 phi + theta = 0, X dipole: doubled rate
        assert rate_modulation(1.0, 0.0, 0.0, X) == pytest.approx(2.0)
        assert decay_rate(unit_scene(0.0173, 0.0), 1.0, 0.0, X) == pytest.approx(2.0)

    def test_broadband_only_theta_matters(self):
        # same 2kL product, different frequencies: identical factor
        a = decay_rate(unit_scene(0.0173, 30_000.0), 0.7, 0.4, Y)
        b = decay_rate(unit_scene(2 * 0.0173, 15_000.0), 0.7, 0.4, Y)
        assert a == pytest.approx(b, abs=1e-12)

    def test_reflectivity_range(self):
        with pytest.raises(ReflectivityOutOfRange):
            decay_rate(unit_scene(0.0173, 0.0), 1.5, 0.0, X)


def one_fringe_call(call):
    """call()'s value, asserting that it evaluates emission.fringe exactly once."""
    with mock.patch.object(emission, "fringe", wraps=emission.fringe) as spy:
        got = call()
    assert spy.call_count == 1
    return got


class TestSingleAxes:
    # the averaged dipole is built from the single-axis values of one fringe
    # evaluation: the mean of the two rates, the weight mix of the two
    # intensities, every bit as the single-axis calls give them
    AXES = {X: (X,), Y: (Y,), AVG: (X, Y)}

    @pytest.mark.parametrize("dip", list(DipoleOrientation))
    @pytest.mark.parametrize("phi", [0.7, np.linspace(0.0, math.pi, 33)])
    @pytest.mark.parametrize("include_nonradiative", [False, True])
    def test_rate_is_the_mean_of_the_single_axis_rates(self, dip, phi, include_nonradiative):
        scene = make_scene(gamma_x0=0.3)
        got = one_fringe_call(
            lambda: decay_rate(scene, 0.6, phi, dip, include_nonradiative=include_nonradiative)
        )
        rates = [decay_rate(scene, 0.6, phi, axis) for axis in self.AXES[dip]]
        mean = rates[0] if len(rates) == 1 else 0.5 * (rates[0] + rates[1])
        extra = scene.gamma_nrad if include_nonradiative else 0.0
        assert np.asarray(got).tobytes() == np.asarray(mean + extra).tobytes()

    @pytest.mark.parametrize("dip", list(DipoleOrientation))
    @pytest.mark.parametrize("phi", [0.7, np.linspace(0.0, math.pi, 33)])
    def test_intensity_is_the_weight_mix_of_the_single_axes(self, dip, phi):
        scene = make_scene()
        weights = (0.2, 0.8)
        got = one_fringe_call(lambda: intensity(scene, weights, 0.6, phi, dip))
        singles = [intensity(scene, weights, 0.6, phi, axis) for axis in self.AXES[dip]]
        if dip is AVG:
            want = weights[0] * singles[0] + weights[1] * singles[1]
        else:
            want = singles[0]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestDecayRate:
    def test_no_mirror(self):
        scene = make_scene()
        for phi in (0.0, 0.7, 2.0):
            assert decay_rate(scene, 0.0, phi, Y) == pytest.approx(1.1)

    def test_destructive_phase_maximizes_y(self):
        # cos(2 phi + theta) = -1 with the Y sign convention gives 1.6
        scene = make_scene()
        phi = (math.pi - scene.theta) / 2.0
        assert decay_rate(scene, 0.5, phi, Y) == pytest.approx(1.6, abs=1e-12)

    def test_nonradiative_channel(self):
        scene = make_scene()
        base = decay_rate(scene, 0.3, 0.2, Y)
        total = decay_rate(scene, 0.3, 0.2, Y, include_nonradiative=True)
        assert total == pytest.approx(base + 0.1)

    @given(r=reflectivities, phi=phases)
    def test_phase_average_conserved(self, r, phi):
        scene = make_scene(gamma_x0=0.3)
        phis = phi + np.linspace(0, math.pi, 1024, endpoint=False)
        for dip, gamma_d0 in ((X, 0.3), (Y, 1.0)):
            mean = np.mean([decay_rate(scene, r, p, dip) for p in phis])
            assert mean == pytest.approx(gamma_d0 + 0.1, abs=1e-10)

    def test_sign_opposition(self):
        scene = make_scene(gamma_x0=0.3)
        for phi in (0.0, 0.3, 1.1):
            dx = decay_rate(scene, 0.6, phi, X) - decay_rate(scene, 0.0, phi, X)
            dy = decay_rate(scene, 0.6, phi, Y) - decay_rate(scene, 0.0, phi, Y)
            assert dx == pytest.approx(-dy * (0.3 / 1.0), abs=1e-12)

    def test_extremal_rates(self):
        scene = make_scene()
        r = 0.45
        phis = np.linspace(0, math.pi, 4001)
        rates = [decay_rate(scene, r, p, Y) for p in phis]
        assert max(rates) == pytest.approx(1.0 * (1 + r) + 0.1, abs=1e-6)
        assert min(rates) == pytest.approx(1.0 * (1 - r) + 0.1, abs=1e-6)


class TestIntensity:
    def test_no_mirror_half(self):
        scene = make_scene()
        for phi in (0.0, 1.0, 2.9):
            assert intensity(scene, (0.0, 1.0), 0.0, phi, Y) == pytest.approx(0.5)

    def test_full_constructive(self):
        scene = make_scene()
        phi = -scene.theta / 2.0  # cos(2 phi + theta) = 1
        assert intensity(scene, (1.0, 0.0), 1.0, phi, X) == pytest.approx(2.0)

    @given(r=reflectivities, phi=phases)
    def test_interference_oracle(self, r, phi):
        # independent derivation: I = |1 +/- r e^{i(2 phi + theta)}|^2 / 2
        scene = make_scene()
        psi = 2 * phi + scene.theta
        oracle_x = 0.5 * abs(1 + r * np.exp(1j * psi)) ** 2
        oracle_y = 0.5 * abs(1 - r * np.exp(1j * psi)) ** 2
        assert intensity(scene, (1, 0), r, phi, X) == pytest.approx(
            oracle_x, abs=1e-12
        )
        assert intensity(scene, (0, 1), r, phi, Y) == pytest.approx(
            oracle_y, abs=1e-12
        )

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no more precise than float64",
    )
    def test_fringe_accurate_at_the_qd1_mirror_distance(self, qd1_cfg):
        # theta = 2kL ~ 1039 rad: the fringe that intensity and decay_rate
        # carry, read back at |r_T| = 1, against cos(2 phi + 2kL) in long
        # double from the scene's stored k and L
        scene = qd1_cfg.scene(solve_te0(qd1_cfg.geometry(), n_points=qd1_cfg.grid_points).k)
        phis = np.linspace(0.0, math.pi, 2001)
        ld = np.longdouble
        want = np.cos(2 * phis.astype(ld) + 2 * ld(scene.k) * ld(scene.L))
        # Y dipole: I = 1 - c and Gamma = gamma_y0 (1 - c) + gamma_b
        from_intensity = 1.0 - intensity(scene, (0.0, 1.0), 1.0, phis, Y)
        from_rate = 1.0 - (decay_rate(scene, 1.0, phis, Y) - scene.gamma_b) / scene.gamma_y0
        for got in (from_intensity, from_rate):
            assert np.max(np.abs(got - want)) < 5e-14

    def test_swept_fringe_visibility(self):
        scene = make_scene()
        vals = [
            intensity(scene, (0, 1), 0.5, phi, Y)
            for phi in np.linspace(0, math.pi, 2001)
        ]
        nu = (max(vals) - min(vals)) / (max(vals) + min(vals))
        assert nu == pytest.approx(0.8, abs=1e-6)

    def test_rate_intensity_phase_lock(self):
        # brightest phase is also the fastest-decay phase for one dipole
        scene = make_scene()
        phis = np.linspace(0, math.pi, 4001, endpoint=False)
        ints = np.array([intensity(scene, (0, 1), 0.5, p, Y) for p in phis])
        rates = np.array([decay_rate(scene, 0.5, p, Y) for p in phis])
        assert np.argmax(ints) == np.argmax(rates)
        assert np.argmin(ints) == np.argmin(rates)

    def test_mixed_weights_sum(self):
        scene = make_scene(gamma_x0=0.3)
        wx, wy = 0.2, 0.7
        for phi in (0.1, 0.8, 1.7):
            ix = intensity(scene, (wx, wy), 0.6, phi, X)
            iy = intensity(scene, (wx, wy), 0.6, phi, Y)
            mixed = intensity(scene, (wx, wy), 0.6, phi, AVG)
            assert mixed == pytest.approx(wx * ix + wy * iy, abs=1e-14)


class TestVisibilities:
    def test_intensity_formula(self):
        assert visibility_intensity(0.5) == pytest.approx(0.8, abs=1e-15)
        assert visibility_intensity(0.0) == 0.0
        assert visibility_intensity(1.0) == 1.0

    def test_mixed_reduction(self):
        assert visibility_intensity_mixed(0.5, (0.0, 1.0)) == pytest.approx(0.8)
        assert visibility_intensity_mixed(0.9, (0.4, 0.4)) == 0.0

    def test_intensity_array_has_the_scalar_bits(self):
        rs = np.linspace(0.0, 1.0, 101)
        got = visibility_intensity(rs)
        assert got.tolist() == [visibility_intensity(r) for r in rs.tolist()]

    def test_mixed_plane_has_the_scalar_bits(self, default_profile):
        # a column of reflectivities against weights over offsets, as the
        # feasible-set scan evaluates it
        rs = np.linspace(0.0, 1.0, 11)
        y0s = np.linspace(0.0, default_profile.core_half_width, 21)
        wx, wy = mode_weights(default_profile, y0s)
        got = visibility_intensity_mixed(rs[:, None], (wx, wy))
        assert got.shape == (11, 21)
        assert got.tolist() == [
            [visibility_intensity_mixed(r, w) for w in zip(wx.tolist(), wy.tolist())]
            for r in rs.tolist()
        ]

    def test_array_with_one_reflectivity_outside_is_refused(self):
        _check_reflectivity(np.linspace(0.0, 1.0, 5))
        for bad in (1.0 + 1e-12, -0.1, math.nan):
            rs = np.array([0.0, 0.5, bad, 1.0])
            with pytest.raises(ReflectivityOutOfRange, match=f"got {bad}$"):
                _check_reflectivity(rs)
            with pytest.raises(ReflectivityOutOfRange):
                visibility_intensity(rs[:, None])


class TestScene:
    def test_theta_is_derived(self):
        scene = make_scene(L=12_345.0)
        assert scene.theta == 2.0 * scene.k * 12_345.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_scene(gamma_y0=-0.1)
        with pytest.raises(ValueError):
            make_scene(k=0.0)
        with pytest.raises(ValueError):
            make_scene(L=-1.0)


class TestFigureCurves:
    def test_phase_curve_attains_extrema(self):
        scene = make_scene()
        _, gammas, _ = figure1c_curves(scene, (0.0, 1.0), 0.5, Y)
        assert max(gammas) == pytest.approx(1.0 * 1.5 + 0.1, abs=1e-12)
        assert min(gammas) == pytest.approx(1.0 * 0.5 + 0.1, abs=1e-12)

    def test_phase_curve_lock(self):
        scene = make_scene()
        with mock.patch.object(emission, "N_PHI", 801):
            _, gammas, ints = figure1c_curves(scene, (0.0, 1.0), 0.5, Y)
        assert len(gammas) >= 801
        assert np.argmax(gammas) == np.argmax(ints)

    def test_offset_curves_center_and_symmetry(self, default_profile):
        scene = make_scene()
        y0, nu_i, nu_g = figure1d_curves(default_profile, scene, 0.5)
        mid = len(y0) // 2
        assert y0[mid] == pytest.approx(0.0, abs=1e-12)
        assert nu_i[mid] == pytest.approx(0.8, abs=1e-12)
        assert nu_g[mid] == pytest.approx(visibility_rate_centered(1.0 / 1.1, 0.5), abs=1e-12)
        assert np.max(np.abs(nu_i - nu_i[::-1])) < 1e-10
        assert np.max(np.abs(nu_g - nu_g[::-1])) < 1e-10

    @pytest.mark.parametrize("gamma_b, beta_y0", [(0.1, 1.0 / 1.1), (0.0, 1.0)])
    def test_offset_curves_beta_factors_at_center(self, default_profile, gamma_b, beta_y0):
        # beta_x is 0 where e_x vanishes, also with gamma_b = 0, where the
        # quotient would be 0/0; beta_y is gamma_y0 / (gamma_y0 + gamma_b)
        y0, _, nu_g = figure1d_curves(default_profile, make_scene(gamma_b=gamma_b), 0.5)
        mid = len(y0) // 2
        assert nu_g[mid] == pytest.approx(visibility_rate_centered(beta_y0, 0.5), abs=1e-12)

    @pytest.mark.parametrize("gamma_b", [0.0, 0.2])
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
    def test_offset_curves_equal_the_per_offset_oracle(self, default_profile, r, gamma_b):
        # figure1d_curves evaluates all offsets at once; the oracle, one
        # offset at a time, must give every float exactly
        scene = make_scene(gamma_b=gamma_b)
        half = default_profile.core_half_width
        y0s = np.linspace(-half, half, 201).tolist()
        want = [(y0, *figure1d_row(default_profile, scene, r, y0)) for y0 in y0s]
        columns = figure1d_curves(default_profile, scene, r)
        assert [col.tolist() for col in columns] == [list(col) for col in zip(*want)]

    @pytest.mark.parametrize("dip", [X, Y, AVG])
    @pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
    def test_phase_curves_equal_the_per_phase_calls(self, r, dip):
        # figure1c_curves evaluates the rates and intensities of all phases
        # at once; the scalar calls, one phase at a time, must give every
        # float exactly
        scene = make_scene(gamma_x0=0.3)
        weights = (0.2, 0.8)
        phis, gammas, ints = figure1c_curves(scene, weights, r, dip)
        phis = phis.tolist()
        assert phis == sorted(set(phis))
        assert gammas.tolist() == [decay_rate(scene, r, phi, dip) for phi in phis]
        assert ints.tolist() == [intensity(scene, weights, r, phi, dip) for phi in phis]

    def test_offset_nu_i_monotone_to_crossing(self, default_profile):
        scene = make_scene()
        with mock.patch.object(emission, "N_OFFSETS", 401):
            y0, nu_i, _ = figure1d_curves(default_profile, scene, 0.5)
        assert len(y0) == 401
        half = [(y, v) for y, v in zip(y0.tolist(), nu_i.tolist()) if y >= 0]
        values = [v for _, v in half]
        crossing = int(np.argmin(values))
        diffs = np.diff(values[: crossing + 1])
        assert np.all(diffs <= 1e-12)

    def test_csv_exports(self, default_cfg, default_profile, tmp_path):
        # `mode` exports both curve families, every float exactly
        scene = default_cfg.scene(default_profile.k)
        r = default_cfg.r_T_magnitude()
        weights = mode_weights(default_profile, scene.y0)
        want = {
            "fig1c.csv": (
                ["phi_rad", "gamma_total", "intensity_rel"],
                figure1c_curves(scene, weights, r, Y),
            ),
            "fig1d.csv": (
                ["y0_nm", "nu_I", "nu_gamma"],
                figure1d_curves(default_profile, scene, r),
            ),
        }
        assert main(["mode", "--out", str(tmp_path)]) == 0
        for name, (header, columns) in want.items():
            with open(tmp_path / name, newline="") as fh:
                parsed = list(csv.reader(fh))
            assert parsed[0] == header
            rows = list(zip(*(col.tolist() for col in columns)))
            assert [tuple(map(float, row)) for row in parsed[1:]] == rows
