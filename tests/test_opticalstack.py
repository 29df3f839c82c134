import csv
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import default_device
from oracles import lumped_reflection, segment_layout, stack_coefficients, stack_matrix
from phasemirror.cli import main
from phasemirror.opticalstack import (
    MirrorChain,
    reflectivity_sweep,
    tmm_reflectivity,
    waveguide_transmission,
)

CHAIN = default_device().chain
SPEC = default_device().crystal


class TestMirrorChain:
    def test_default_chain_magnitude(self):
        chain = MirrorChain(t_phi_sq=0.55, t_wg_sq=0.9, r_M_mag=1.0)
        assert chain.magnitude == pytest.approx(0.495)
        assert lumped_reflection(chain, 0.0) == pytest.approx(0.495 + 0j)

    def test_lossless_quarter_phase(self):
        chain = MirrorChain(t_phi_sq=1.0, t_wg_sq=1.0, r_M_mag=1.0)
        assert lumped_reflection(chain, np.pi / 4) == pytest.approx(np.exp(1j * np.pi / 2))

    def test_no_mirror(self):
        for phi in (0.0, 1.0, 2.5):
            chain = replace(CHAIN, r_M_mag=0.0)
            assert lumped_reflection(chain, phi) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(CHAIN, t_phi_sq=1.2)
        with pytest.raises(ValueError):
            replace(CHAIN, r_M_mag=-0.1)

    @given(
        t_phi=st.floats(min_value=0.0, max_value=1.0),
        t_wg=st.floats(min_value=0.0, max_value=1.0),
        r_m=st.floats(min_value=0.0, max_value=1.0),
        phi=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_magnitude_invariant_under_phase(self, t_phi, t_wg, r_m, phi):
        chain = MirrorChain(t_phi_sq=t_phi, t_wg_sq=t_wg, r_M_mag=r_m)
        r = lumped_reflection(chain, phi)
        assert abs(r) == pytest.approx(chain.magnitude, abs=1e-12)
        assert 0.0 <= chain.magnitude <= 1.0
        if chain.magnitude > 1e-12:
            assert np.angle(r) == pytest.approx(
                np.angle(np.exp(2j * phi)), abs=1e-9
            )


class TestPhotonicCrystal:
    def test_validation(self):
        with pytest.raises(ValueError):
            replace(SPEC, hole_radius_nm=140.0)  # diameter >= pitch
        with pytest.raises(ValueError):
            replace(SPEC, n_hole=0.5)
        with pytest.raises(ValueError):
            replace(SPEC, n_holes=-1)

    def test_layout(self):
        spec = SPEC
        indices, lengths = segment_layout(spec)
        assert len(indices) == 3 * spec.n_holes
        assert np.sum(lengths) == pytest.approx(spec.n_holes * spec.pitch_nm)
        # symmetric stack reads the same in both directions
        assert np.array_equal(indices, indices[::-1])
        assert np.array_equal(lengths, lengths[::-1])

    def test_stopband_covers_900_1000(self):
        spec = SPEC
        for lam in np.linspace(900.0, 1000.0, 101):
            assert abs(tmm_reflectivity(spec, lam)) ** 2 > 0.9

    def test_bragg_center_is_local_maximum(self):
        spec = SPEC
        lam_b = spec.bragg_wavelength_nm
        assert 900.0 < lam_b < 1000.0
        r_b = abs(tmm_reflectivity(spec, lam_b)) ** 2
        for lam in (lam_b - 150.0, lam_b + 150.0):
            assert abs(tmm_reflectivity(spec, lam)) ** 2 < r_b

    def test_flux_conservation(self):
        spec = SPEC
        indices, lengths = segment_layout(spec)
        n = spec.termination_index
        for lam in np.linspace(850.0, 1050.0, 41):
            r, t = stack_coefficients(indices, lengths, n, n, lam)
            assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_more_holes_reflect_more(self):
        mags = []
        for n_holes in (4, 8, 12):
            spec = replace(SPEC, n_holes=n_holes)
            mags.append(abs(tmm_reflectivity(spec, spec.bragg_wavelength_nm)))
        assert mags[0] < mags[1] < mags[2]
        assert mags[2] > 0.999

    def test_reciprocity(self):
        spec = SPEC
        indices, lengths = segment_layout(spec)
        n = spec.termination_index
        for lam in (910.0, 950.0, 990.0):
            r_fwd, _ = stack_coefficients(indices, lengths, n, n, lam)
            r_bwd, _ = stack_coefficients(indices[::-1], lengths[::-1], n, n, lam)
            assert r_fwd == pytest.approx(r_bwd, abs=1e-12)

    def test_cascade_then_invert_is_identity(self):
        spec = SPEC
        indices, lengths = segment_layout(spec)
        # off-band: matrix entries are O(1), identity recovered tightly
        M = stack_matrix(indices, lengths, 1300.0)
        assert np.max(np.abs(M @ np.linalg.inv(M) - np.eye(2))) < 1e-10
        # in the stopband the entries grow to ~1e4; scale by the
        # condition number to keep the check meaningful
        M = stack_matrix(indices, lengths, 950.0)
        resid = np.max(np.abs(M @ np.linalg.inv(M) - np.eye(2)))
        assert resid < 1e-10 * np.linalg.cond(M)
        assert np.linalg.det(M) == pytest.approx(1.0, rel=1e-9)

    def test_empty_stack_is_fresnel(self):
        spec = replace(SPEC, n_holes=0)
        indices, lengths = segment_layout(spec)
        assert len(indices) == 0
        # equal media on both sides: no reflection at any wavelength
        for lam in (850.0, 950.0, 1050.0):
            assert tmm_reflectivity(spec, lam) == pytest.approx(0.0, abs=1e-14)
        # unequal media: the bare Fresnel coefficient
        r, _ = stack_coefficients(indices, lengths, 1.0, 2.56, 950.0)
        assert r == pytest.approx((1.0 - 2.56) / (1.0 + 2.56), abs=1e-14)

    @given(lam=st.floats(min_value=700.0, max_value=1300.0))
    def test_flux_conservation_property(self, lam):
        spec = SPEC
        indices, lengths = segment_layout(spec)
        r, t = stack_coefficients(indices, lengths, 1.0, 2.0, lam)
        assert abs(r) ** 2 + (2.0 / 1.0) * abs(t) ** 2 == pytest.approx(
            1.0, abs=1e-10
        )


class TestWaveguideTransmission:
    def test_default_loss_over_mirror_distance(self):
        one_way = waveguide_transmission(7.5, 30_000.0)
        assert one_way == pytest.approx(10.0 ** (-0.0225), abs=1e-12)
        assert one_way**2 == pytest.approx(0.9, abs=0.002)

    def test_trivial_cases(self):
        assert waveguide_transmission(0.0, 1e6) == 1.0
        assert waveguide_transmission(7.5, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            waveguide_transmission(-1.0, 100.0)
        with pytest.raises(ValueError):
            waveguide_transmission(1.0, -100.0)


def test_sweep_csv(default_cfg, tmp_path):
    # `mirror` exports the sweep it computes, every float exactly
    m = default_cfg.raw["mirror"]
    lams = np.linspace(m["lambda_min_nm"], m["lambda_max_nm"], m["sweep_points"])
    lam_col, r_col, rp_col = reflectivity_sweep(default_cfg.crystal(), lams)
    assert main(["mirror", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "mirror_sweep.csv", newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["lambda_nm", "r_re", "r_im", "R_power"]
    assert len(parsed) == len(lam_col) + 1
    for lam, r, rp, row in zip(lam_col, r_col, rp_col, parsed[1:]):
        assert float(row[0]) == lam
        assert float(row[1]) == r.real
        assert float(row[2]) == r.imag
        assert float(row[3]) == rp


@pytest.mark.parametrize(
    "n_holes, lams",
    [(n, np.linspace(850.0, 1050.0, 41)) for n in (0, 1, 4, 12, 48)]
    # the shape of the benchmark's design sweeps
    + [(24, np.linspace(845.0, 1055.0, 1001))],
    ids=["0", "1", "4", "12", "48", "24-design"],
)
def test_sweep_matches_layer_by_layer_product(n_holes, lams):
    # the sweep raises one period matrix to n_holes for all wavelengths at
    # once; the per-layer product of stack_coefficients is the reference
    spec = replace(SPEC, n_holes=n_holes)
    indices, lengths = segment_layout(spec)
    n = spec.termination_index
    lam_col, r_col, rp_col = reflectivity_sweep(spec, lams)
    assert len(lam_col) == len(r_col) == len(rp_col) == len(lams)
    tol = 1e3 * np.finfo(float).eps
    for lam, lam_row, r, rp in zip(lams, lam_col.tolist(), r_col.tolist(), rp_col.tolist()):
        want, _ = stack_coefficients(indices, lengths, n, n, lam)
        assert lam_row == lam
        assert abs(r - want) <= tol
        assert abs(tmm_reflectivity(spec, lam) - want) <= tol
        assert rp == abs(r) ** 2


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["mirror", "--out", str(out)]) == 0
    name = "mirror_sweep.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()
