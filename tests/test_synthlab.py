import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import default_device
from oracles import (
    DEFAULT_EDGES,
    DEFAULT_SWEEP,
    DecayHistogram,
    ExcitonModel,
    bin_integrals_longdouble,
    expected_histogram,
    generate_decay_histogram,
)
from oracles import expected_bin_counts as one_rate_expected_counts
from phasemirror import emission
from phasemirror.emission import DipoleOrientation, decay_rate, intensity
from phasemirror.errors import InputError
from phasemirror.synthlab import (
    _SWEEP_BLOCK,
    CalibrationModel,
    MalformedCSV,
    OutOfCalibration,
    _exgauss_density,
    default_bin_edges,
    exp_bin_integrals,
    generate_sweep,
    phase_of_voltage,
    read_histogram_csv,
    read_sweep_csv,
    write_histogram_csv,
    write_sweep_csv,
)

SCENE = replace(default_device().scene, gamma_x0=0.3)
SWEEP = replace(DEFAULT_SWEEP, hist_counts=20_000.0)
WEIGHTS = (0.2, 0.7)
CAL = default_device().calibration
QUAD = replace(CAL, model=CalibrationModel.QUADRATIC, quad_coeff=0.05)


class TestCalibration:
    def test_quadratic(self):
        assert phase_of_voltage(QUAD, 0.0) == 0.0
        assert phase_of_voltage(QUAD, 4.0) == pytest.approx(0.8)

    def test_quadratic_with_offset_and_range(self):
        cal = replace(
            CAL,
            model=CalibrationModel.QUADRATIC,
            quad_coeff=0.1,
            quad_offset=0.5,
            v_range=(0.0, 5.0),
        )
        assert phase_of_voltage(cal, 2.0) == pytest.approx(0.9)
        with pytest.raises(OutOfCalibration):
            phase_of_voltage(cal, 5.1)

    def test_table_interpolation(self):
        cal = replace(
            CAL,
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
            replace(CAL, model=CalibrationModel.TABLE, table=((0.0, 0.0),))
        with pytest.raises(ValueError):
            replace(
                CAL,
                model=CalibrationModel.TABLE,
                table=((0.0, 0.0), (0.0, 1.0)),
            )
        with pytest.raises(ValueError):
            replace(
                CAL,
                model=CalibrationModel.TABLE,
                table=((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)),
            )

    def test_quadratic_without_range_accepts_any_voltage(self):
        assert QUAD.span() == (-math.inf, math.inf)
        assert phase_of_voltage(QUAD, -3.0) == pytest.approx(0.45)
        assert phase_of_voltage(QUAD, 1e3) == pytest.approx(5e4)

    def test_decreasing_table_interpolation(self):
        cal = replace(
            CAL,
            model=CalibrationModel.TABLE,
            table=((1.0, 2.0), (3.0, 1.0), (5.0, -1.0)),
        )
        assert cal.span() == (1.0, 5.0)
        assert [phase_of_voltage(cal, v) for v in (1.0, 3.0, 5.0)] == [2.0, 1.0, -1.0]
        assert phase_of_voltage(cal, 4.0) == pytest.approx(0.0)

    def test_quadratic_needs_coefficient(self):
        with pytest.raises(ValueError):
            replace(CAL, model=CalibrationModel.QUADRATIC, quad_coeff=None)


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
        mu = expected_histogram(model, 1e5, edges).counts
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
        mu = expected_histogram(model, 10_000, edges).counts
        assert mu.sum() == pytest.approx(10_000, rel=1e-12)
        assert np.all(mu >= 2.0)
        with pytest.raises(ValueError):
            expected_histogram(model, 100, edges)  # background exceeds budget

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
            rel = _exgauss_density(t, [gamma], sigma)[0] / np.exp(-gamma * t) - 1.0
            assert np.max(np.abs(rel)) <= sigma**2 * gamma**2
            errors.append(np.max(np.abs(rel)))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5])
    def test_exgauss_sums_to_one_over_a_long_window(self, sigma):
        gamma = 0.8
        t, dt = np.linspace(-12.0 * sigma, 60.0 / gamma, 200_001, retstep=True)
        total = gamma * np.sum(_exgauss_density(t, [gamma], sigma)) * dt
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_erfc_is_exactly_two_from_minus_six_down(self):
        # _exgauss_density skips math.erfc where it returns exactly 2.0
        x = np.linspace(-6.0, -60.0, 200_001).tolist() + [-1e3, -1e300, -math.inf]
        assert all(math.erfc(v) == 2.0 for v in x)

    def test_exgauss_equals_its_per_bin_erfc_form(self):
        t = 0.5 * (DEFAULT_EDGES[:-1] + DEFAULT_EDGES[1:])
        for gamma in np.linspace(0.05, 5.0, 40):
            for sigma in (0.01, 0.05, 0.2, 0.5, 2.0):
                arg = (sigma**2 * gamma - t) / (math.sqrt(2.0) * sigma)
                erfc = np.array([math.erfc(a) for a in arg])
                want = 0.5 * np.exp(sigma**2 * gamma**2 / 2.0 - gamma * t) * erfc
                assert _exgauss_density(t, [gamma], sigma)[0].tobytes() == want.tobytes()

    def test_poisson_statistics_pooled(self):
        # variance/mean over repeated draws stays near 1 for busy bins
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.1)
        edges = default_bin_edges(10.0, 50)
        mu = expected_histogram(model, 50_000, edges).counts
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


# the default window, a coarse one, a fit window that starts mid-histogram,
# and a window whose first edge lies just below 0
KERNEL_EDGES = (
    DEFAULT_EDGES,
    np.linspace(0.0, 25.0, 51),
    DEFAULT_EDGES[137:],
    np.linspace(-3.47e-18, 10.0, 2001),
)


class TestExpBinIntegrals:
    @given(gamma=st.floats(1e-3, 50.0), which=st.integers(0, len(KERNEL_EDGES) - 1))
    @example(gamma=1e-3, which=0)
    @example(gamma=1e-3, which=3)
    @example(gamma=50.0, which=2)
    def test_matches_the_long_double_oracle(self, gamma, which):
        edges = KERNEL_EDGES[which]
        E, dE, d2E = exp_bin_integrals([gamma], edges, derivative=2)
        E_ref, dE_ref, d2E_ref = bin_integrals_longdouble(gamma, edges)
        assert np.all(np.isfinite(E)) and np.all(np.isfinite(dE)) and np.all(np.isfinite(d2E))
        # bins below float's normal range hold no relative precision to check
        ok = E_ref > 1e-290
        assert np.all((np.abs(E[0] - E_ref) <= 1e-13 * E_ref)[ok])
        # dE is the fit's ((b e_b - a e_a) - E) / gamma, kept so that fits keep
        # every bit; its difference cancels as gamma w -> 0 and carries the
        # rounding of both exponentials and their arguments, kappa
        a, b = np.abs(edges[:-1]), np.abs(edges[1:])
        e_a, e_b = np.exp(-gamma * a), np.exp(-gamma * b)
        kappa = (b * e_b * (1.0 + gamma * b) + a * e_a * (1.0 + gamma * a)) / gamma
        bound = 1e-13 * np.abs(dE_ref) + 4.0 * np.finfo(float).eps * kappa
        assert np.all((np.abs(dE[0] - dE_ref) <= bound)[ok])
        # d2E = ((a^2 e_a - b^2 e_b) - 2 dE) / gamma cancels the same way,
        # carrying the rounding of its own two terms and twice that of dE
        kappa2 = (
            b * b * e_b * (1.0 + gamma * b) + a * a * e_a * (1.0 + gamma * a) + 2.0 * kappa
        ) / gamma
        bound2 = 1e-13 * np.abs(d2E_ref) + 4.0 * np.finfo(float).eps * kappa2
        assert np.all((np.abs(d2E[0] - d2E_ref) <= bound2)[ok])
        # the lower orders are the first outputs of the higher, bit for bit
        E1, dE1 = exp_bin_integrals([gamma], edges, derivative=1)
        assert E1.tobytes() == E.tobytes() and dE1.tobytes() == dE.tobytes()
        assert exp_bin_integrals([gamma], edges).tobytes() == E.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 1e-300])
    @pytest.mark.parametrize("which", range(len(KERNEL_EDGES)))
    def test_takes_the_exact_limits_as_gamma_vanishes(self, gamma, which):
        edges = KERNEL_EDGES[which]
        E, dE, d2E = exp_bin_integrals([gamma, 1.0], edges, derivative=2)
        E_ref, dE_ref, d2E_ref = bin_integrals_longdouble(gamma, edges)
        eps = np.finfo(float).eps
        assert E[0].tobytes() == np.diff(edges).tobytes()
        assert np.all(np.abs(dE[0] - dE_ref) <= eps * np.abs(dE_ref))
        # w (a^2 + ab + b^2) / 3 takes eight roundings to dE's limit's three
        assert np.all(np.abs(d2E[0] - d2E_ref) <= 2.0 * eps * np.abs(d2E_ref))
        # the limit row leaves the other rows as they are alone
        E1, dE1, d2E1 = exp_bin_integrals([1.0], edges, derivative=2)
        assert E[1].tobytes() == E1[0].tobytes()
        assert dE[1].tobytes() == dE1[0].tobytes()
        assert d2E[1].tobytes() == d2E1[0].tobytes()
        first = exp_bin_integrals([gamma, 1.0], edges, derivative=1)
        assert [x.tobytes() for x in first] == [E.tobytes(), dE.tobytes()]
        assert exp_bin_integrals([gamma, 1.0], edges).tobytes() == E.tobytes()


class TestSweep:
    def run(self, counts_scale=40_000.0, seed=11, **changes):
        sweep = replace(SWEEP, counts_scale=counts_scale, **changes)
        return generate_sweep(SCENE, WEIGHTS, 0.6, QUAD, sweep, seed)

    def test_structure(self):
        voltages = np.linspace(0.0, 8.0, 12)
        phis, counts, hists = self.run()
        assert len(phis) == len(counts) == 12
        # one float64 row of counts per point, on the default bins
        assert hists.shape == (12, len(DEFAULT_EDGES) - 1)
        assert hists.dtype == np.float64 and hists.flags.c_contiguous
        assert np.all(hists >= 0) and np.all(hists == np.floor(hists))
        for v, phi, n in zip(voltages, phis, counts):
            assert phi == pytest.approx(0.05 * v**2)
            assert n >= 0

    def test_noiseless_mode(self):
        phis, counts, hists = self.run(counts_scale=None)
        for phi, n, hist in zip(phis, counts, hists):
            expected = intensity(SCENE, WEIGHTS, 0.6, phi, DipoleOrientation.AVERAGED_BOTH)
            assert n == expected
            # float expectation counts, not integers
            assert np.any(hist != np.floor(hist))

    def test_two_fringe_evaluations_per_sweep(self):
        # one for the intensities and one for the fast rates of all points
        with mock.patch.object(emission, "fringe", wraps=emission.fringe) as spy:
            self.run()
        assert spy.call_count == 2

    def test_seeded_reproducibility(self):
        a_counts, a_hists = self.run(seed=5)[1:]
        b_counts, b_hists = self.run(seed=5)[1:]
        c_counts = self.run(seed=6)[1]
        assert np.array_equal(a_counts, b_counts)
        assert a_hists.tobytes() == b_hists.tobytes()
        assert np.any(a_counts != c_counts)

    def test_zero_reflectivity_flat_sweep(self):
        sweep = replace(SWEEP, n_points=6, counts_scale=None, hist_counts=1000.0)
        _, counts, _ = generate_sweep(SCENE, WEIGHTS, 0.0, QUAD, sweep, 0)
        assert len(set(counts)) == 1

    @pytest.mark.parametrize("n_points", [12, 48, 192])
    def test_intensity_stream_ignores_histogram_binning(self, n_points):
        sweep = replace(SWEEP, n_points=n_points, hist_counts=1000.0)
        voltages = sweep.voltages()
        runs = [
            generate_sweep(SCENE, WEIGHTS, 0.6, QUAD, replace(sweep, n_bins=n_bins), 3)
            for n_bins in (20, 50)
        ]
        (phi_a, counts_a, _), (phi_b, counts_b, _) = runs
        assert np.array_equal(phi_a, [phase_of_voltage(QUAD, v) for v in voltages])
        assert np.array_equal(phi_a, phi_b)
        assert np.array_equal(counts_a, counts_b)

    def test_prefix_of_a_sweep_keeps_its_points(self):
        # point i draws from its own streams, so later points change nothing
        voltages = SWEEP.voltages()
        _, counts, hists = self.run()
        # the first five voltages, bit for bit, as a sweep of their own
        head = dict(n_points=5, v_stop=voltages[4])
        assert replace(SWEEP, **head).voltages().tobytes() == voltages[:5].tobytes()
        _, head_counts, head_hists = self.run(**head)
        assert np.array_equal(head_counts, counts[:5])
        assert head_hists.tobytes() == hists[:5].tobytes()

    @pytest.mark.parametrize(
        "n_points", [1, _SWEEP_BLOCK - 1, _SWEEP_BLOCK, _SWEEP_BLOCK + 1, 192]
    )
    @pytest.mark.parametrize("irf_sigma", [None, 0.2])
    @pytest.mark.parametrize("background", [0.0, 1.0])
    def test_histograms_equal_the_per_point_functions(self, n_points, irf_sigma, background):
        # blocks of points give each point's own histogram, bit for bit
        sweep = replace(SWEEP, n_points=n_points, irf_sigma_ns=irf_sigma, background=background)
        for counts_scale in (40_000.0, None):
            phis, _, hists = generate_sweep(
                SCENE, WEIGHTS, 0.6, QUAD, replace(sweep, counts_scale=counts_scale), 11
            )
            assert hists.shape == (n_points, len(DEFAULT_EDGES) - 1)
            for i, (phi, hist) in enumerate(zip(phis, hists)):
                gamma_f = decay_rate(
                    SCENE, 0.6, phi, DipoleOrientation.AVERAGED_BOTH, include_nonradiative=True
                )
                model = ExcitonModel(gamma_f, SCENE.gamma_nrad, 0.05, background)
                if counts_scale is None:
                    want = expected_histogram(model, 20_000.0, irf_sigma=irf_sigma)
                    oracle = one_rate_expected_counts(model, 20_000.0, want.bin_edges, irf_sigma)
                    assert want.counts.tobytes() == oracle.tobytes()
                else:
                    ss_hist = np.random.SeedSequence([11, i]).spawn(2)[1]
                    want = generate_decay_histogram(
                        model, 20_000.0, irf_sigma=irf_sigma, seed=ss_hist
                    )
                assert want.bin_edges.tobytes() == DEFAULT_EDGES.tobytes()
                # Poisson draws are integers, exact as float64
                assert hist.tobytes() == want.counts.astype(float).tobytes()

    def test_table_knots_at_the_voltages_match_quadratic(self):
        sweep = replace(SWEEP, hist_counts=1000.0)
        table = replace(
            CAL,
            model=CalibrationModel.TABLE,
            table=tuple((float(v), phase_of_voltage(QUAD, v)) for v in sweep.voltages()),
        )
        quad = generate_sweep(SCENE, WEIGHTS, 0.6, QUAD, sweep, 11)
        tab = generate_sweep(SCENE, WEIGHTS, 0.6, table, sweep, 11)
        assert np.array_equal(tab[0], quad[0])
        assert np.array_equal(tab[1], quad[1])
        assert tab[2].tobytes() == quad[2].tobytes()

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(hist_counts=0.0), "hist_counts must be positive"),
            (dict(irf_sigma_ns=0.0), "irf_sigma_ns must be positive when given"),
            (dict(irf_sigma_ns=-0.2), "irf_sigma_ns must be positive when given"),
            # a floor of 40 counts in each of 500 bins is all 20,000 counts
            (
                dict(background=40.0),
                "hist_counts must exceed the background budget background * n_bins",
            ),
        ],
    )
    def test_spec_refuses_what_no_point_can_use(self, changes, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            replace(SWEEP, **changes)

    def test_out_of_calibration_propagates(self):
        cal = replace(
            CAL, model=CalibrationModel.QUADRATIC, quad_coeff=0.05, v_range=(0.0, 4.0)
        )
        sweep = replace(SWEEP, v_stop=5.0, n_points=2, counts_scale=None, hist_counts=1000.0)
        with pytest.raises(OutOfCalibration):
            generate_sweep(SCENE, WEIGHTS, 0.6, cal, sweep, 0)


# three 1 ns bins, whose midpoints are 0.5, 1.5 and 2.5
EDGES_3 = np.array([0.0, 1.0, 2.0, 3.0])


class TestCsv:
    def test_sweep_round_trip(self, tmp_path):
        voltages = SWEEP.voltages()
        phis, counts, _ = TestSweep().run()
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
        counts = np.array([h.counts for h in hists], dtype=float)
        path = tmp_path / "histograms.csv"
        write_histogram_csv((DEFAULT_EDGES, counts), str(path))
        back = read_histogram_csv(str(path), DEFAULT_EDGES)
        # the table and the edges carry every histogram whole
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert back.shape == counts.shape
        assert back.tobytes() == counts.tobytes()
        assert list(back.sum(axis=1)) == [h.total_counts for h in hists]

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
            read_histogram_csv(str(path), EDGES_3)
        # t_ns must be the given bins' midpoints, row for row
        for times, match in [
            ("0.5,10\n1.5,9\n", "bad.csv: 2 rows for 3 bins"),
            ("0.5,10\n1.5,9\n3.5,8\n", "bad.csv line 4: t_ns is 3.5, not the bin midpoint 2.5"),
            ("0.5,10\n0.5,9\n2.5,8\n", "bad.csv line 3: t_ns is 0.5, not the bin midpoint 1.5"),
            ("1.5,10\n0.5,9\n2.5,8\n", "bad.csv line 2: t_ns is 1.5, not the bin midpoint 0.5"),
        ]:
            path.write_text("t_ns,counts_000\n" + times)
            with pytest.raises(MalformedCSV, match=re.escape(match)):
                read_histogram_csv(str(path), EDGES_3)

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
             "line 3: counts_000 is -3.0, a negative count"),
            ("t_ns,counts_000,counts_001\n0.5,1,-2\n1.5,-3,4\n",
             "line 2: counts_001 is -2.0, a negative count"),
        ],
    )
    def test_malformed_histogram_table_names_line_and_column(self, tmp_path, text, match):
        path = tmp_path / "histograms.csv"
        path.write_text(text)
        with pytest.raises(MalformedCSV, match=re.escape(f"{path} {match}")):
            read_histogram_csv(str(path), EDGES_3[:3])

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
            args = (EDGES_3[:3],) if reader is read_histogram_csv else ()
            with pytest.raises(MalformedCSV, match="bad.csv"):
                reader(str(path), *args)


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
    path = str(tmp_path_factory.mktemp("hist") / "histograms.csv")
    write_histogram_csv((edges, counts), path)
    back = read_histogram_csv(path, edges)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.shape == shape
    assert back.tobytes() == counts.astype(float).tobytes()


@given(
    n_points=st.integers(min_value=1, max_value=2 * _SWEEP_BLOCK + 1),
    n_bins=st.integers(min_value=8, max_value=120),
    t_max=st.floats(min_value=2.0, max_value=50.0),
    noiseless=st.booleans(),
    irf_sigma=st.one_of(st.none(), st.floats(min_value=0.02, max_value=0.5)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n_points=192, n_bins=500, t_max=25.0, noiseless=False, irf_sigma=None, seed=0)
@example(n_points=192, n_bins=500, t_max=25.0, noiseless=False, irf_sigma=0.2, seed=1)
@example(n_points=3, n_bins=8, t_max=2.0, noiseless=True, irf_sigma=None, seed=2)
@example(n_points=3, n_bins=8, t_max=2.0, noiseless=True, irf_sigma=0.5, seed=3)
def test_simulated_histograms_read_back_bit_for_bit(
    tmp_path_factory, n_points, n_bins, t_max, noiseless, irf_sigma, seed
):
    # the matrix generate_sweep gives is the matrix read_histogram_csv gives
    # back, on the same edges
    sweep = replace(
        SWEEP, n_points=n_points, counts_scale=None if noiseless else 40_000.0,
        t_max_ns=t_max, n_bins=n_bins, irf_sigma_ns=irf_sigma,
    )
    edges = sweep.bin_edges()
    _, _, hists = generate_sweep(SCENE, WEIGHTS, 0.6, QUAD, sweep, seed)
    path = str(tmp_path_factory.mktemp("sweep") / "histograms.csv")
    write_histogram_csv((edges, hists), path)
    back = read_histogram_csv(path, edges)
    assert hists.shape == back.shape == (n_points, n_bins)
    assert back.dtype == hists.dtype == np.float64
    assert back.tobytes() == hists.tobytes()
