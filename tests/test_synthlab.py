import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasemirror.emission import DipoleOrientation, EmitterScene, intensity
from phasemirror.synthlab import (
    CalibrationModel,
    DecayHistogram,
    ExcitonModel,
    MalformedCSV,
    OutOfCalibration,
    PhaseCalibration,
    _exgauss_density,
    default_bin_edges,
    expected_bin_counts,
    expected_histogram,
    generate_decay_histogram,
    generate_sweep,
    phase_of_voltage,
    read_histogram_csv,
    read_sweep_csv,
    write_histogram_csv,
    write_sweep_csv,
)

SCENE = EmitterScene(
    y0=0.0, L=30_000.0, k=2 * math.pi / 930.0 * 2.56,
    gamma_x0=0.3, gamma_y0=1.0, gamma_b=0.1, gamma_nrad=0.1,
)
WEIGHTS = (0.2, 0.7)
QUAD = PhaseCalibration(model=CalibrationModel.QUADRATIC, quad_coeff=0.05)


class TestCalibration:
    def test_quadratic(self):
        assert phase_of_voltage(QUAD, 0.0) == 0.0
        assert phase_of_voltage(QUAD, 4.0) == pytest.approx(0.8)

    def test_quadratic_with_offset_and_range(self):
        cal = PhaseCalibration(
            model=CalibrationModel.QUADRATIC,
            quad_coeff=0.1,
            quad_offset=0.5,
            v_range=(0.0, 5.0),
        )
        assert phase_of_voltage(cal, 2.0) == pytest.approx(0.9)
        with pytest.raises(OutOfCalibration):
            phase_of_voltage(cal, 5.1)

    def test_table_interpolation(self):
        cal = PhaseCalibration(
            model=CalibrationModel.TABLE,
            table=((0.0, 0.0), (2.0, 1.0), (4.0, 3.0)),
        )
        assert phase_of_voltage(cal, 1.0) == pytest.approx(0.5)
        assert phase_of_voltage(cal, 3.0) == pytest.approx(2.0)
        with pytest.raises(OutOfCalibration):
            phase_of_voltage(cal, 4.5)
        with pytest.raises(OutOfCalibration):
            phase_of_voltage(cal, -0.5)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            PhaseCalibration(model=CalibrationModel.TABLE, table=((0.0, 0.0),))
        with pytest.raises(ValueError):
            PhaseCalibration(
                model=CalibrationModel.TABLE,
                table=((0.0, 0.0), (0.0, 1.0)),
            )
        with pytest.raises(ValueError):
            PhaseCalibration(
                model=CalibrationModel.TABLE,
                table=((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)),
            )

    def test_quadratic_needs_coefficient(self):
        with pytest.raises(ValueError):
            PhaseCalibration(model=CalibrationModel.QUADRATIC, quad_coeff=None)


class TestExcitonModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExcitonModel(gamma_f=0.5, gamma_s=1.0)
        with pytest.raises(ValueError):
            ExcitonModel(gamma_f=1.0, gamma_s=-0.1)
        with pytest.raises(ValueError):
            ExcitonModel(gamma_f=1.0, gamma_s=0.1, amp_ratio=-1.0)
        # degenerate equality is representable; rejecting it is the
        # fitter's job
        ExcitonModel(gamma_f=1.0, gamma_s=1.0)


class TestHistogram:
    def test_sum_invariant(self):
        model = ExcitonModel(gamma_f=1.1, gamma_s=0.1)
        hist = generate_decay_histogram(model, 100_000, seed=7)
        assert hist.counts.sum() == hist.total_counts
        assert np.all(hist.counts >= 0)
        assert len(hist.bin_edges) == len(hist.counts) + 1

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            DecayHistogram(
                bin_edges=np.array([0.0, 1.0, 2.0]),
                counts=np.array([5.0, -1.0]),
            )
        with pytest.raises(ValueError, match="increasing"):
            DecayHistogram(
                bin_edges=np.array([0.0, 1.0, 0.5]),
                counts=np.array([5.0, 5.0]),
            )

    def test_expected_curve_matches_analytic(self):
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.1, amp_ratio=0.05)
        edges = default_bin_edges(25.0, 500)
        _, mu = expected_bin_counts(model, 1e5, edges)
        assert mu.sum() == pytest.approx(1e5, rel=1e-12)
        # analytic bin integral of the two exponentials
        a, b = edges[:-1], edges[1:]
        shape = (np.exp(-a) - np.exp(-b)) / 1.0 + 0.05 * (
            np.exp(-0.1 * a) - np.exp(-0.1 * b)
        ) / 0.1
        expect = shape / shape.sum() * 1e5
        assert np.max(np.abs(mu - expect)) < 1e-6

    def test_background_floor(self):
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.1, background=2.0)
        edges = default_bin_edges(25.0, 100)
        _, mu = expected_bin_counts(model, 10_000, edges)
        assert mu.sum() == pytest.approx(10_000, rel=1e-12)
        assert np.all(mu >= 2.0)
        with pytest.raises(ValueError):
            expected_bin_counts(model, 100, edges)  # background exceeds budget

    def test_irf_broadens_the_peak(self):
        sharp = expected_histogram(ExcitonModel(1.0, 0.1), 1e5)
        blurred = expected_histogram(ExcitonModel(1.0, 0.1), 1e5, irf_sigma=0.3)
        assert np.argmax(blurred.counts) >= np.argmax(sharp.counts)
        assert blurred.counts.max() < sharp.counts.max()
        assert blurred.counts.sum() == pytest.approx(1e5, rel=1e-9)

    def test_exgauss_tends_to_exponential_as_sigma_vanishes(self):
        # for t >> sigma the blurred density is e^{sigma^2 gamma^2 / 2} e^{-gamma t}
        gamma = 1.3
        t = np.linspace(0.5, 20.0, 40)
        errors = []
        for sigma in (1e-1, 1e-2, 1e-3):
            rel = _exgauss_density(t, gamma, sigma) / np.exp(-gamma * t) - 1.0
            assert np.max(np.abs(rel)) <= sigma**2 * gamma**2
            errors.append(np.max(np.abs(rel)))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5])
    def test_exgauss_sums_to_one_over_a_long_window(self, sigma):
        gamma = 0.8
        t, dt = np.linspace(-12.0 * sigma, 60.0 / gamma, 200_001, retstep=True)
        total = gamma * np.sum(_exgauss_density(t, gamma, sigma)) * dt
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_erfc_is_exactly_two_from_minus_six_down(self):
        # _exgauss_density skips math.erfc where it returns exactly 2.0
        x = np.linspace(-6.0, -60.0, 200_001).tolist() + [-1e3, -1e300, -math.inf]
        assert all(math.erfc(v) == 2.0 for v in x)

    def test_exgauss_equals_its_per_bin_erfc_form(self):
        t = 0.5 * (default_bin_edges()[:-1] + default_bin_edges()[1:])
        for gamma in np.linspace(0.05, 5.0, 40):
            for sigma in (0.01, 0.05, 0.2, 0.5, 2.0):
                arg = (sigma**2 * gamma - t) / (math.sqrt(2.0) * sigma)
                erfc = np.array([math.erfc(a) for a in arg])
                want = 0.5 * np.exp(sigma**2 * gamma**2 / 2.0 - gamma * t) * erfc
                assert _exgauss_density(t, gamma, sigma).tobytes() == want.tobytes()

    def test_poisson_statistics_pooled(self):
        # variance/mean over repeated draws stays near 1 for busy bins
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.1)
        edges = default_bin_edges(10.0, 50)
        _, mu = expected_bin_counts(model, 50_000, edges)
        draws = np.array(
            [
                generate_decay_histogram(model, 50_000, edges, seed=s).counts
                for s in range(200)
            ],
            dtype=float,
        )
        busy = mu >= 50.0
        assert busy.sum() > 10
        ratio = draws.var(axis=0, ddof=1)[busy] / draws.mean(axis=0)[busy]
        assert 0.9 < ratio.mean() < 1.1

    def test_seed_determinism(self):
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.1)
        a = generate_decay_histogram(model, 10_000, seed=42)
        b = generate_decay_histogram(model, 10_000, seed=42)
        c = generate_decay_histogram(model, 10_000, seed=43)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)


class TestSweep:
    def run(self, counts_scale=40_000.0, seed=11, voltages=None):
        if voltages is None:
            voltages = np.linspace(0.0, 8.0, 12)
        return generate_sweep(
            SCENE, WEIGHTS, 0.6, QUAD, voltages, counts_scale, seed,
            hist_counts=20_000.0,
        )

    def test_structure(self):
        voltages = np.linspace(0.0, 8.0, 12)
        phis, counts, hists = self.run()
        assert len(phis) == len(counts) == len(hists) == 12
        for v, phi, n, hist in zip(voltages, phis, counts, hists):
            assert phi == pytest.approx(0.05 * v**2)
            assert n >= 0
            assert hist.counts.sum() == hist.total_counts

    def test_noiseless_mode(self):
        phis, counts, hists = self.run(counts_scale=math.inf)
        for phi, n, hist in zip(phis, counts, hists):
            expected = intensity(SCENE, WEIGHTS, 0.6, phi, DipoleOrientation.AVERAGED_BOTH)
            assert n == expected
            # float expectation counts, not integers
            assert hist.counts.dtype.kind == "f"

    def test_seeded_reproducibility(self):
        a_counts, a_hists = self.run(seed=5)[1:]
        b_counts, b_hists = self.run(seed=5)[1:]
        c_counts = self.run(seed=6)[1]
        assert np.array_equal(a_counts, b_counts)
        for ha, hb in zip(a_hists, b_hists):
            assert np.array_equal(ha.counts, hb.counts)
        assert np.any(a_counts != c_counts)

    def test_zero_reflectivity_flat_sweep(self):
        _, counts, _ = generate_sweep(
            SCENE, WEIGHTS, 0.0, QUAD, np.linspace(0, 8, 6), math.inf, 0,
            hist_counts=1000.0,
        )
        assert len(set(counts)) == 1

    def test_out_of_calibration_propagates(self):
        cal = PhaseCalibration(
            model=CalibrationModel.QUADRATIC, quad_coeff=0.05, v_range=(0.0, 4.0)
        )
        with pytest.raises(OutOfCalibration):
            generate_sweep(
                SCENE, WEIGHTS, 0.6, cal, [0.0, 5.0], math.inf, 0,
                hist_counts=1000.0,
            )


class TestCsv:
    def test_sweep_round_trip(self, tmp_path):
        voltages = np.linspace(0.0, 8.0, 12)
        phis, counts, _ = TestSweep().run(voltages=voltages)
        path = tmp_path / "sweep.csv"
        write_sweep_csv((voltages, phis, counts), str(path))
        volts, phis_back, counts_back = read_sweep_csv(str(path))
        assert np.array_equal(volts, voltages)
        assert np.array_equal(phis_back, phis)
        assert np.array_equal(counts_back, counts)

    def test_histogram_round_trip(self, tmp_path):
        hists = [
            generate_decay_histogram(ExcitonModel(1.0, 0.1), 5000, irf_sigma=0.1, seed=s)
            for s in (3, 4)
        ]
        path = tmp_path / "histograms.csv"
        write_histogram_csv(hists, str(path))
        backs = read_histogram_csv(str(path))
        assert len(backs) == len(hists)
        # the table carries every field of each histogram
        for hist, back in zip(hists, backs):
            for f in dataclasses.fields(DecayHistogram):
                want, got = getattr(hist, f.name), getattr(back, f.name)
                if f.name == "bin_edges":
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
                else:
                    assert np.array_equal(got, want), f.name
            assert back.total_counts == hist.total_counts

    def test_histograms_binned_otherwise_are_not_written(self, tmp_path):
        path = str(tmp_path / "histograms.csv")
        a = DecayHistogram(default_bin_edges(25.0, 4), np.ones(4))
        b = DecayHistogram(default_bin_edges(20.0, 4), np.ones(4))
        with pytest.raises(ValueError, match="histogram 2 has other bin edges"):
            write_histogram_csv([a, a, b], path)

    def test_sweep_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("voltage,phi_rad,intensity_counts\n1.0,0.05,abc\n")
        with pytest.raises(ValueError, match="line 2"):
            read_sweep_csv(str(path))
        path.write_text("wrong,header\n")
        with pytest.raises(ValueError, match="line 1"):
            read_sweep_csv(str(path))

    def test_histogram_parse_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ns,counts_000\n0.5,10\n1.5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_histogram_csv(str(path))
        path.write_text("t_ns,counts_000\n0.5,10\n1.5,9\n3.5,8\n")
        with pytest.raises(ValueError, match="uniform"):
            read_histogram_csv(str(path))
        # equal or falling times are not bins either, whichever column
        for times in ("0.5,10\n0.5,9\n", "1.5,10\n0.5,9\n"):
            path.write_text("t_ns,counts_000\n" + times)
            with pytest.raises(MalformedCSV, match="bad.csv: bins must be uniform and increasing"):
                read_histogram_csv(str(path))

    @pytest.mark.parametrize(
        "text, match",
        [
            # a counts_ column missing, and two swapped
            ("t_ns,counts_000,counts_002\n0.5,1,2\n1.5,3,4\n",
             "line 1: column 3 is 'counts_002', not 'counts_001'"),
            ("t_ns,counts_001,counts_000\n0.5,1,2\n1.5,3,4\n",
             "line 1: column 2 is 'counts_001', not 'counts_000'"),
            ("counts_000,t_ns\n0.5,1\n1.5,3\n",
             "line 1: column 1 is 'counts_000', not 't_ns'"),
            ("", "line 1: expected header ['t_ns'], got None"),
            # a ragged line, a nan cell, a negative count
            ("t_ns,counts_000,counts_001\n0.5,1,2\n1.5,3\n", "line 3: expected 3 columns"),
            ("t_ns,counts_000,counts_001\n0.5,1,2\n1.5,3,nan\n",
             "line 3: counts_001 is nan, not a finite number"),
            ("t_ns,counts_000,counts_001\n0.5,1,2\n1.5,-3,4\n",
             "counts_000: counts must be non-negative"),
        ],
    )
    def test_malformed_histogram_table_names_line_and_column(self, tmp_path, text, match):
        path = tmp_path / "histograms.csv"
        path.write_text(text)
        with pytest.raises(MalformedCSV, match=re.escape(f"{path} {match}")):
            read_histogram_csv(str(path))

    def test_parse_errors_are_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, reader in [
            ("bogus,phi_rad,intensity_counts\n1.0,0.05,3\n", read_sweep_csv),
            ("voltage,phi_rad,intensity_counts\n1.0,0.05\n", read_sweep_csv),
            ("t_ns,counts_000\n0.5,10\n1.5\n", read_histogram_csv),
            ("t_ns,counts_000\n0.5,10\n1.5,-1\n", read_histogram_csv),
            ("t_ns,counts_000\n1.5,10\n0.5,9\n", read_histogram_csv),
        ]:
            path.write_text(text)
            with pytest.raises(MalformedCSV, match="bad.csv"):
                reader(str(path))


@given(
    gamma_f=st.floats(min_value=0.2, max_value=5.0),
    ratio=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_histogram_counts_invariants(gamma_f, ratio, seed):
    model = ExcitonModel(gamma_f=gamma_f, gamma_s=0.1, amp_ratio=ratio)
    hist = generate_decay_histogram(
        model, 2000, default_bin_edges(20.0, 64), seed=seed
    )
    assert hist.counts.sum() == hist.total_counts
    assert np.all(hist.counts >= 0)
    assert np.all(hist.counts == np.floor(hist.counts))


def per_file_edges(mids):
    """The edges a one-histogram file's reader rebuilt from its t_ns column."""
    w = float(np.diff(mids)[0])
    return np.concatenate([mids - w / 2.0, [mids[-1] + w / 2.0]])


@given(
    n_hist=st.integers(min_value=1, max_value=200),
    n_bins=st.integers(min_value=2, max_value=64),
    t_max=st.floats(min_value=0.5, max_value=100.0),
    noiseless=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n_hist=200, n_bins=64, t_max=25.0, noiseless=False, seed=0)
@example(n_hist=1, n_bins=2, t_max=0.5, noiseless=True, seed=1)
def test_histogram_table_round_trip(tmp_path_factory, n_hist, n_bins, t_max, noiseless, seed):
    rng = np.random.default_rng(seed)
    edges = default_bin_edges(t_max, n_bins)
    shape = (n_hist, n_bins)
    counts = rng.uniform(0.0, 1e4, shape) if noiseless else rng.poisson(1e3, shape)
    hists = [DecayHistogram(edges, c) for c in counts]
    path = str(tmp_path_factory.mktemp("hist") / "histograms.csv")
    write_histogram_csv(hists, path)
    back = read_histogram_csv(path)
    assert len(back) == n_hist
    want_edges = per_file_edges(hists[0].midpoints)
    for hist, got in zip(hists, back):
        assert got.counts.tobytes() == np.asarray(hist.counts, dtype=float).tobytes()
        # one rebuilt edge array, bit for bit the one-file reader's
        assert got.bin_edges is back[0].bin_edges
        assert got.bin_edges.tobytes() == want_edges.tobytes()
    np.testing.assert_allclose(want_edges, edges, rtol=0.0, atol=1e-12 * t_max)
