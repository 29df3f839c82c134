import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poisson_nll_gradient
from phasemirror.inference import (
    EmptyFeasibleSet,
    InsufficientFringes,
    InsufficientPhaseSpan,
    MalformedRow,
    NonIdentifiable,
    VisibilityEstimate,
    _initial_guess,
    _observed_information,
    analyze_sweep,
    biexp_model,
    estimate_parameters,
    fit_biexponential,
    fit_sinusoid,
    poisson_nll,
    r_lower_bound,
    read_table1_csv,
    reconstruct_phase_map,
    table1_report,
)
from phasemirror.config import RunConfig, builtin_table1_path
from phasemirror.modesolver import mode_weights, solve_te0
from phasemirror.synthlab import (
    ExcitonModel,
    expected_histogram,
    generate_decay_histogram,
    generate_sweep,
    phase_of_voltage,
)

EDGES = np.linspace(0.0, 25.0, 501)
PLAIN = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05)
FLOOR = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)


def quad_fringe():
    # quadratic phase map crossing three interior turning points
    v = np.linspace(0.0, 10.0, 201)
    phi = 0.05 * v**2
    inten = 120.0 * (1.0 + 0.8 * np.cos(2.0 * phi + 0.3))
    return v, phi, inten


def recovered_phases(cal, voltages):
    return np.array([phase_of_voltage(cal, vi) for vi in voltages])


@pytest.fixture(scope="module")
def qd1_profile(qd1_cfg):
    return solve_te0(qd1_cfg.geometry(), n_points=qd1_cfg.grid_points)


@pytest.fixture(scope="module")
def qd1_sweep(qd1_cfg, qd1_profile):
    cfg = qd1_cfg
    scene = cfg.scene(qd1_profile.k)
    weights = mode_weights(qd1_profile, scene.y0)
    return generate_sweep(
        scene,
        weights,
        cfg.r_T_magnitude(),
        cfg.calibration,
        list(cfg.voltages()),
        cfg.counts_scale,
        seed=cfg.seed,
        hist_counts=cfg.hist_counts,
        bin_edges=cfg.bin_edges(),
        irf_sigma=cfg.irf_sigma,
    )


@pytest.fixture(scope="module")
def qd1_analysis(qd1_profile, qd1_sweep):
    return analyze_sweep(*qd1_sweep, profile=qd1_profile)


class TestPoissonGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        """Central differences of the NLL agree with the closed form."""
        rng = np.random.default_rng(5)
        edges = np.linspace(0.0, 25.0, 201)
        counts = rng.poisson(50.0, size=200).astype(float)
        h = 1e-5
        for _ in range(10):
            x = np.array(
                [
                    rng.uniform(2.0, 6.0),
                    rng.uniform(-0.5, 0.8),
                    rng.uniform(0.0, 4.0),
                    rng.uniform(-3.0, -1.0),
                ]
            )
            ga = poisson_nll_gradient(x, edges, counts, False)
            gn = np.zeros(4)
            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                mup, _ = biexp_model(xp, edges, False)
                mum, _ = biexp_model(xm, edges, False)
                gn[j] = (poisson_nll(mup, counts) - poisson_nll(mum, counts)) / (2 * h)
            rel = np.abs(gn - ga) / np.maximum(np.abs(ga), 1.0)
            assert float(rel.max()) < 1e-6


def _oracle_bin_integral(gamma, a, b):
    return np.exp(-gamma * a) * (-np.expm1(-gamma * (b - a))) / gamma


def _oracle_bin_integral_deriv(gamma, a, b):
    E = _oracle_bin_integral(gamma, a, b)
    return ((b * np.exp(-gamma * b) - a * np.exp(-gamma * a)) - E) / gamma


def _oracle_biexp_model(x, edges, fit_background):
    """Reference bi-exponential model: one exp call per bin end and term."""
    af, gf, as_, gs = np.exp(x[:4])
    a, b = edges[:-1], edges[1:]
    Ef, dEf = _oracle_bin_integral(gf, a, b), _oracle_bin_integral_deriv(gf, a, b)
    Es, dEs = _oracle_bin_integral(gs, a, b), _oracle_bin_integral_deriv(gs, a, b)
    mu = af * Ef + as_ * Es
    cols = [af * Ef, af * gf * dEf, as_ * Es, as_ * gs * dEs]
    if fit_background:
        bg = math.exp(x[4])
        mu = mu + bg
        cols.append(np.full_like(mu, bg))
    J = np.stack(cols, axis=1)
    return np.maximum(mu, 1e-300), J


class TestBiexpModelOracle:
    @given(
        x=st.tuples(
            st.floats(0.0, 12.0),
            st.floats(-4.0, 3.0),
            st.floats(-2.0, 10.0),
            st.floats(-6.0, 1.0),
            st.floats(-8.0, 4.0),
        ),
        start=st.integers(0, 300),
        fit_background=st.booleans(),
    )
    def test_bit_identical_to_reference_formula(self, x, start, fit_background):
        x = np.array(x if fit_background else x[:4])
        edges = EDGES[start:]
        mu, J = biexp_model(x, edges, fit_background)
        mu_ref, J_ref = _oracle_biexp_model(x, edges, fit_background)
        assert mu.tobytes() == mu_ref.tobytes()
        assert J.tobytes() == J_ref.tobytes()


def _oracle_observed_information(x, edges, counts, fit_background):
    """Reference Hessian of the NLL: central differences of the analytic gradient."""
    p = len(x)
    H = np.zeros((p, p))
    h = 1e-6
    for j in range(p):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        gp = poisson_nll_gradient(xp, edges, counts, fit_background)
        gm = poisson_nll_gradient(xm, edges, counts, fit_background)
        H[:, j] = (gp - gm) / (2.0 * h)
    return 0.5 * (H + H.T)


class TestObservedInformationOracle:
    @given(
        x=st.tuples(
            st.floats(0.0, 12.0),
            st.floats(-4.0, 3.0),
            st.floats(-2.0, 10.0),
            st.floats(-6.0, 1.0),
            st.floats(-8.0, 4.0),
        ),
        start=st.integers(0, 300),
        fit_background=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_central_differences(self, x, start, fit_background, seed):
        x = np.array(x if fit_background else x[:4])
        edges = EDGES[start:]
        # counts drawn away from x, so the curvature of mu itself counts
        rng = np.random.default_rng(seed)
        mu_data, _ = biexp_model(x + rng.uniform(-0.3, 0.3, len(x)), edges, fit_background)
        counts = rng.poisson(mu_data).astype(float)
        mu, J = biexp_model(x, edges, fit_background)
        H = _observed_information(x, mu, J, edges, counts)
        H_ref = _oracle_observed_information(x, edges, counts, fit_background)
        assert np.max(np.abs(H - H_ref)) <= 1e-6 * np.max(np.abs(H_ref))


def _oracle_initial_guess(edges, counts, fit_background):
    """Reference start: the same slope fits by np.polyfit (an SVD lstsq each)."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    width = float(np.mean(np.diff(edges)))
    n = len(counts)
    y = np.log(np.maximum(counts, 0.5))
    tail = slice(max(int(0.6 * n), 2), n)
    slope_s, icept_s = np.polyfit(mids[tail], y[tail], 1)
    gs0 = max(-float(slope_s), 1e-3)
    as0 = max(math.exp(float(icept_s)) / width, 1e-6)
    head = slice(0, max(5, int(0.15 * n)))
    corrected = np.maximum(counts[head] - as0 * width * np.exp(-gs0 * mids[head]), 0.25)
    slope_f, icept_f = np.polyfit(mids[head], np.log(corrected), 1)
    gf0 = max(-float(slope_f), 1.6 * gs0, 1e-3)
    af0 = max(math.exp(float(icept_f)) / width, as0 * 1e-3, 1e-6)
    x0 = [math.log(af0), math.log(gf0), math.log(as0), math.log(gs0)]
    if fit_background:
        bg0 = max(float(np.mean(counts[-10:])) * 0.5, 1e-4)
        x0.append(math.log(bg0))
    return np.array(x0)


class TestInitialGuessOracle:
    @given(
        gamma_f=st.floats(0.3, 5.0),
        slow_fraction=st.floats(0.02, 0.5),
        amp_ratio=st.floats(0.0, 0.3),
        background=st.floats(0.0, 5.0),
        total=st.floats(1e4, 1e6),
        start=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_polyfit(
        self, gamma_f, slow_fraction, amp_ratio, background, total, start, seed
    ):
        model = ExcitonModel(gamma_f, gamma_f * slow_fraction, amp_ratio, background)
        hist = generate_decay_histogram(model, total, bin_edges=EDGES, seed=seed)
        edges, counts = hist.bin_edges[start:], hist.counts[start:].astype(float)
        for fit_background in (False, True):
            x0 = _initial_guess(edges, counts, fit_background)
            x0_ref = _oracle_initial_guess(edges, counts, fit_background)
            scale = max(np.max(np.abs(x0_ref)), 1.0)
            assert np.max(np.abs(x0 - x0_ref)) <= 1e-12 * scale


# n_iter, parameters and sigmas (as repr) that the np.polyfit start and the
# central-difference information gave on these histograms; the closed-form
# start moves the path by rounding only, the exact information the sigmas
# by its own finite-difference error
FROZEN_FITS = {
    "plain": (
        dict(model=PLAIN, total_counts=1e5, irf_sigma=None, seed=7),
        False,
        5,
        {"A_f": "72974.40174597772", "gamma_f": "1.0916782570066892",
         "A_s": "3546.2929967560926", "gamma_s": "0.09805036631579592"},
        {"A_f": "449.95213125755816", "gamma_f": "0.0070424822382841356",
         "A_s": "60.75999439557626", "gamma_s": "0.0013313095765452347"},
    ),
    "irf": (
        dict(model=PLAIN, total_counts=1e5, irf_sigma=0.2, seed=7),
        False,
        5,
        {"A_f": "79081.97371637363", "gamma_f": "1.0938854908018993",
         "A_s": "3760.201953550365", "gamma_s": "0.09834980697520321"},
        {"A_f": "761.379020664428", "gamma_f": "0.008774742099269862",
         "A_s": "64.70804340158642", "gamma_s": "0.0013241226716005658"},
    ),
    "floor": (
        dict(model=FLOOR, total_counts=2e5, irf_sigma=None, seed=11),
        True,
        6,
        {"A_f": "147058.10541720013", "gamma_f": "1.1191935392422403",
         "A_s": "7499.090768447871", "gamma_s": "0.10409280615134439",
         "background": "3.713193606007505"},
        {"A_f": "649.1789200007795", "gamma_f": "0.005981840882783965",
         "A_s": "118.50702122532836", "gamma_s": "0.003476098729483742",
         "background": "2.711126386758128"},
    ),
}


class TestFitParity:
    @pytest.mark.parametrize("kind", sorted(FROZEN_FITS))
    def test_matches_frozen_fit(self, kind):
        spec, fit_background, n_iter, params, sigmas = FROZEN_FITS[kind]
        hist = generate_decay_histogram(bin_edges=EDGES, **spec)
        res = fit_biexponential(hist, fit_background)
        assert res.n_iter == n_iter
        assert res.flags == []
        assert res.params == pytest.approx(
            {k: float(v) for k, v in params.items()}, rel=1e-12, abs=0.0
        )
        assert res.uncertainties == pytest.approx(
            {k: float(v) for k, v in sigmas.items()}, rel=1e-6, abs=0.0
        )

    def test_vanishing_floor_stays_flagged(self, qd1_cfg):
        # QD1 with a 1-count floor, seed 0: in fits 1 and 7 the floor's
        # likelihood peaks at 0, which ln(bg) reaches only as a limit
        data = copy.deepcopy(qd1_cfg.raw)
        data["sweep"]["background"] = 1.0
        data["seed"] = 0
        cfg = RunConfig.from_dict(data)
        profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
        scene = cfg.scene(profile.k)
        _, _, histograms = generate_sweep(
            scene,
            mode_weights(profile, scene.y0),
            cfg.r_T_magnitude(),
            cfg.calibration,
            cfg.voltages(),
            cfg.counts_scale,
            cfg.seed,
            amp_ratio=cfg.raw["sweep"]["amp_ratio"],
            background=1.0,
            hist_counts=cfg.hist_counts,
            bin_edges=cfg.bin_edges(),
        )
        for i, n_iter in ((1, 9), (7, 8)):
            res = fit_biexponential(histograms[i], fit_background=True)
            assert res.n_iter == n_iter
            assert res.params["background"] == 0.0
            assert res.uncertainties["background"] == math.inf
            assert res.flags == ["singular_information"]


class TestBiexponentialFit:
    def test_noiseless_histogram_recovered_exactly(self):
        # the model integrates bins exactly, so noiseless data is a fixed point
        hist = expected_histogram(PLAIN, 1e5, bin_edges=EDGES)
        res = fit_biexponential(hist)
        assert res.converged
        assert res.params["gamma_f"] == pytest.approx(1.1, rel=1e-8)
        assert res.params["gamma_s"] == pytest.approx(0.1, rel=1e-8)
        assert res.derived["gamma_rad"] == pytest.approx(1.0, rel=1e-7)
        assert res.n_iter <= 10
        assert res.flags == []

    def test_noisy_fit_within_tolerance_and_errors_honest(self):
        hist = generate_decay_histogram(PLAIN, 1e5, bin_edges=EDGES, seed=7)
        res = fit_biexponential(hist)
        gf, sgf = res.params["gamma_f"], res.uncertainties["gamma_f"]
        gs, sgs = res.params["gamma_s"], res.uncertainties["gamma_s"]
        assert abs(gf - 1.1) / 1.1 < 0.05
        assert abs(gs - 0.1) / 0.1 < 0.05
        assert abs(gf - 1.1) < 2.0 * sgf
        assert abs(gs - 0.1) < 2.0 * sgs
        grad = res.derived["gamma_rad"]
        assert abs(grad - 1.0) < 2.0 * res.derived["gamma_rad_sigma"]
        assert res.goodness < 2.0

    def test_degenerate_rates_raise(self):
        model = ExcitonModel(gamma_f=1.0, gamma_s=0.8, amp_ratio=1.0)
        hist = generate_decay_histogram(model, 1e5, bin_edges=EDGES, seed=3)
        with pytest.raises(NonIdentifiable, match="degenerate"):
            fit_biexponential(hist)

    def test_background_noiseless_exact(self):
        model = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)
        hist = expected_histogram(model, 2e5, bin_edges=EDGES)
        res = fit_biexponential(hist, fit_background=True)
        assert res.params["gamma_f"] == pytest.approx(1.1, rel=1e-6)
        assert res.params["background"] == pytest.approx(2.0, abs=1e-6)

    def test_background_noisy_covered_by_errors(self):
        model = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)
        hist = generate_decay_histogram(model, 2e5, bin_edges=EDGES, seed=11)
        res = fit_biexponential(hist, fit_background=True)
        assert "background" in res.params
        bg, sbg = res.params["background"], res.uncertainties["background"]
        assert abs(bg - 2.0) < 2.0 * sbg
        assert abs(res.params["gamma_s"] - 0.1) / 0.1 < 0.05

    def test_low_statistics_flag(self):
        hist = generate_decay_histogram(PLAIN, 500, bin_edges=EDGES, seed=2)
        assert hist.total_counts < 1000
        res = fit_biexponential(hist)
        assert "low_statistics" in res.flags

    def test_too_few_bins_rejected(self):
        edges = np.linspace(0.0, 1.0, 6)
        hist = expected_histogram(PLAIN, 1e4, bin_edges=edges)
        with pytest.raises(ValueError, match="too few bins"):
            fit_biexponential(hist)


class TestSinusoidFit:
    def test_exact_recovery(self):
        phi = np.linspace(0.0, 2.2, 17)
        vals = 3.0 * (1.0 + 0.6 * np.cos(2.0 * phi + 0.9))
        res = fit_sinusoid(phi, vals, np.ones_like(vals))
        assert res.params["mean"] == pytest.approx(3.0, abs=1e-10)
        assert res.derived["visibility"] == pytest.approx(0.6, abs=1e-10)
        assert res.params["theta"] == pytest.approx(0.9, abs=1e-10)
        assert res.flags == []

    def test_negative_amplitude_absorbed_into_theta(self):
        phi = np.linspace(0.0, 2.2, 17)
        vals = 3.0 * (1.0 - 0.6 * np.cos(2.0 * phi + 0.9))
        res = fit_sinusoid(phi, vals, np.ones_like(vals))
        assert res.derived["visibility"] == pytest.approx(0.6, abs=1e-10)
        assert res.params["theta"] == pytest.approx(
            (0.9 + math.pi) % (2.0 * math.pi), abs=1e-10
        )

    def test_constant_data_flags_theta(self):
        phi = np.linspace(0.0, 2.2, 17)
        res = fit_sinusoid(phi, np.full_like(phi, 4.0), np.ones_like(phi))
        assert "theta_undefined" in res.flags
        assert res.params["theta"] == 0.0
        assert res.derived["visibility"] == pytest.approx(0.0, abs=1e-12)

    def test_weights_do_not_bias_an_exact_model(self):
        phi = np.linspace(0.0, 3.0, 25)
        vals = 5.0 * (1.0 + 0.3 * np.cos(2.0 * phi + 2.1))
        sig = np.linspace(0.2, 2.0, 25)
        res = fit_sinusoid(phi, vals, sig)
        assert res.derived["visibility"] == pytest.approx(0.3, abs=1e-10)
        assert res.goodness == pytest.approx(0.0, abs=1e-16)

    def test_too_few_points_rejected(self):
        phi = np.linspace(0.0, 3.0, 5)
        with pytest.raises(InsufficientPhaseSpan, match="6 phase points"):
            fit_sinusoid(phi, np.ones(5), np.ones(5))

    def test_short_span_rejected(self):
        phi = np.linspace(0.0, 0.4, 10)
        with pytest.raises(InsufficientPhaseSpan, match="span"):
            fit_sinusoid(phi, np.ones(10), np.ones(10))

    def test_nonpositive_sigma_rejected(self):
        phi = np.linspace(0.0, 2.2, 10)
        with pytest.raises(ValueError, match="sigmas"):
            fit_sinusoid(phi, np.ones(10), np.zeros(10))

    @given(
        mean=st.floats(0.5, 50.0),
        nu=st.floats(0.01, 0.95),
        theta=st.floats(0.0, 2.0 * math.pi - 1e-6),
    )
    def test_round_trip_property(self, mean, nu, theta):
        phi = np.linspace(0.0, math.pi, 13)
        vals = mean * (1.0 + nu * np.cos(2.0 * phi + theta))
        res = fit_sinusoid(phi, vals, np.ones_like(vals))
        assert res.params["mean"] == pytest.approx(mean, rel=1e-8)
        assert res.derived["visibility"] == pytest.approx(nu, rel=1e-6, abs=1e-8)
        dtheta = (res.params["theta"] - theta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(dtheta) < 1e-6


class TestPhaseMapReconstruction:
    def test_quadratic_map_recovered(self):
        v, phi, inten = quad_fringe()
        cal = reconstruct_phase_map(v, inten)
        rec = recovered_phases(cal, v)
        err = (rec - rec[0]) - (phi - phi[0])
        assert float(np.max(np.abs(err))) <= 1e-6
        assert "sign and offset unresolved" in cal.gauge_note
        assert "chi2/dof" in cal.gauge_note

    def test_linear_map_recovered(self):
        v = np.linspace(0.0, 5.0, 64)
        phi = 1.1 * math.pi * v / 5.0
        inten = 80.0 * (1.0 + 0.5 * np.cos(2.0 * phi + 1.2))
        cal = reconstruct_phase_map(v, inten)
        rec = recovered_phases(cal, v)
        err = (rec - rec[0]) - (phi - phi[0])
        assert float(np.max(np.abs(err))) <= 1e-6

    @pytest.mark.parametrize("theta", [0.3, 2.35, 4.0, 5.5])
    def test_fringe_offset_is_immaterial(self, theta):
        # the fringe may start on a rising or falling edge, or at a turn
        v = np.linspace(0.0, 10.0, 201)
        phi = 0.05 * v**2
        inten = 1.0 + 0.5 * np.cos(2.0 * phi + theta)
        rec = recovered_phases(reconstruct_phase_map(v, inten), v)
        assert float(np.max(np.abs(rec - phi))) <= 1e-6

    def test_output_is_monotone_from_zero(self):
        v, _, inten = quad_fringe()
        cal = reconstruct_phase_map(v, inten)
        rec = recovered_phases(cal, v)
        assert rec[0] == 0.0
        assert np.all(np.diff(rec) >= 0.0)

    def test_noisy_reference_recovered(self):
        # desk-scale counts: shot noise on a 2000-count fringe
        v, phi, _ = quad_fringe()
        rng = np.random.default_rng(9)
        lam = 2000.0 * (1.0 + 0.8 * np.cos(2.0 * phi + 0.3)) / 2.0 + 50.0
        noisy = rng.poisson(lam).astype(float)
        rec = recovered_phases(reconstruct_phase_map(v, noisy), v)
        assert float(np.max(np.abs(rec - phi))) <= 0.03

    @pytest.mark.parametrize("n_points", [12, 48, 192])
    def test_simulated_qd1_sweeps_recovered(self, qd1_cfg, qd1_profile, n_points):
        scene = qd1_cfg.scene(qd1_profile.k)
        weights = mode_weights(qd1_profile, scene.y0)
        voltages = list(np.linspace(0.0, 8.0, n_points))
        for seed in range(10):
            # the intensity stream does not depend on the histogram binning
            phi, counts, _ = generate_sweep(
                scene, weights, qd1_cfg.r_T_magnitude(), qd1_cfg.calibration,
                voltages, 4e4, seed,
                hist_counts=1000.0, bin_edges=np.linspace(0.0, 25.0, 21),
            )
            rec = recovered_phases(reconstruct_phase_map(voltages, counts), voltages)
            assert float(np.max(np.abs(rec - (phi - phi[0])))) <= 0.05, seed

    def test_too_few_samples_rejected(self):
        v, _, inten = quad_fringe()
        with pytest.raises(InsufficientFringes, match="8 samples"):
            reconstruct_phase_map(v[:6], inten[:6])

    def test_flat_line_rejected(self):
        v, _, _ = quad_fringe()
        with pytest.raises(InsufficientFringes, match="modulation"):
            reconstruct_phase_map(v, np.full_like(v, 7.0))

    def test_partial_fringe_rejected(self):
        v, _, inten = quad_fringe()
        with pytest.raises(InsufficientFringes, match="fringes"):
            reconstruct_phase_map(v[:40], inten[:40])

    def test_nonmonotone_voltages_rejected(self):
        v, _, inten = quad_fringe()
        v = v.copy()
        v[5] = v[4]
        with pytest.raises(ValueError, match="strictly increasing"):
            reconstruct_phase_map(v, inten)

    def test_visibility_is_gauge_invariant(self):
        # a sign flip plus offset on the map must not move the visibility
        v, _, inten = quad_fringe()
        cal = reconstruct_phase_map(v, inten)
        rec = recovered_phases(cal, v)
        f1 = fit_sinusoid(rec, inten, np.ones_like(inten))
        f2 = fit_sinusoid(-rec + 0.7, inten, np.ones_like(inten))
        assert abs(f1.derived["visibility"] - f2.derived["visibility"]) < 1e-9

    def test_recovered_map_transfers_to_another_line(self):
        # a second noisy fringe analyzed with the recovered map fits well
        v, phi, inten = quad_fringe()
        cal = reconstruct_phase_map(v, inten)
        rec = recovered_phases(cal, v)
        rng = np.random.default_rng(21)
        lam = 5e4 * (1.0 + 0.55 * np.cos(2.0 * phi + 1.9)) / 2.0 + 1e3
        counts = rng.poisson(lam).astype(float)
        res = fit_sinusoid(rec, counts, np.sqrt(counts))
        assert res.goodness < 2.0
        assert res.derived["visibility"] == pytest.approx(0.55 * 5e4 / (5e4 + 2e3), abs=0.02)


class TestRLowerBound:
    def test_frozen_values(self):
        assert r_lower_bound(0.67) == pytest.approx(0.38453567444970366, rel=1e-14)
        assert r_lower_bound(0.83) == pytest.approx(0.5328151919332849, rel=1e-14)
        assert r_lower_bound(0.48) == pytest.approx(0.25569065004489094, rel=1e-14)
        assert r_lower_bound(0.42) == pytest.approx(0.22018070389744243, rel=1e-14)

    def test_endpoints(self):
        assert r_lower_bound(0.0) == 0.0
        assert r_lower_bound(1.0) == pytest.approx(1.0)

    def test_inverts_centered_visibility(self):
        for r in [0.05, 0.2, 0.5, 0.77, 0.99]:
            nu = 2.0 * r / (1.0 + r**2)
            assert r_lower_bound(nu) == pytest.approx(r, abs=1e-12)

    def test_small_visibility_keeps_precision(self):
        # r = nu/2 + nu^3/8 + O(nu^5); 1 - sqrt(1 - nu^2) would cancel here
        for nu in [1e-6, 1e-5, 1e-4]:
            assert r_lower_bound(nu) == pytest.approx(nu / 2 + nu**3 / 8, rel=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            r_lower_bound(-0.1)
        with pytest.raises(ValueError):
            r_lower_bound(1.1)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        assert r_lower_bound(lo) < r_lower_bound(hi)


class TestEstimateParameters:
    def test_frozen_feasible_summary(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        assert est.n_feasible == 43628
        assert len(est.feasible_set) == 1984
        assert est.r_T_range == pytest.approx((0.23, 1.0))
        assert est.beta_y0_range == pytest.approx((0.59, 1.0))
        assert est.y0_range == pytest.approx((0.0, 150.0))
        assert est.r_T_lower_bound == pytest.approx(0.22018070389744243, rel=1e-12)
        assert est.r_T_lower_bound_point == pytest.approx(0.25569065004489094, rel=1e-12)

    def test_feasible_set_satisfies_both_visibilities(self, default_profile):
        """Stored triples reproduce the measurements when pushed forward."""
        est = estimate_parameters(0.48, 0.27, default_profile)
        prof = default_profile
        wy0 = float(np.interp(0.0, prof.grid, prof.e_y)) ** 2
        for r, b, y in est.feasible_set[::97]:
            wx = float(np.interp(y, prof.grid, prof.e_x)) ** 2
            wy = float(np.interp(y, prof.grid, prof.e_y)) ** 2
            nu_i = 2.0 * r / (1.0 + r**2) * abs(wy - wx) / (wy + wx)
            nu_g = r * b * abs(wy - wx) / (b * (wy + wx) + 2.0 * wy0 * (1.0 - b))
            assert abs(nu_i - 0.48) <= 2.0 * 0.03 + 1e-12
            assert abs(nu_g - 0.27) <= 2.0 * 0.05 + 1e-12

    def test_bound_below_every_feasible_r(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        assert est.r_T_lower_bound <= min(t[0] for t in est.feasible_set)

    def test_moderate_reflectivity_offset_region_reachable(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        box = [
            t
            for t in est.feasible_set
            if 0.55 <= t[0] <= 0.65 and 40.0 <= t[2] <= 80.0
        ]
        assert len(box) == 155

    def test_incompatible_pair_raises(self, default_profile):
        # high rate visibility cannot coexist with a tiny intensity one
        with pytest.raises(EmptyFeasibleSet):
            estimate_parameters(
                0.05, 0.9, default_profile, sigma_I=0.01, sigma_gamma=0.01
            )

    def test_input_validation(self, default_profile):
        with pytest.raises(ValueError, match="nu_I"):
            estimate_parameters(1.2, 0.3, default_profile)
        with pytest.raises(ValueError, match="nu_gamma"):
            estimate_parameters(0.3, -0.1, default_profile)
        with pytest.raises(ValueError, match="sigma_I"):
            estimate_parameters(0.3, 0.3, default_profile, sigma_I=0.0)

    def test_max_stored_subsamples_without_changing_count(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile, max_stored=100)
        assert est.n_feasible == 43628
        assert len(est.feasible_set) <= 100

    @pytest.mark.parametrize("which", ["default", "qd1"])
    def test_rate_deviation_never_falls_along_beta(
        self, default_profile, qd1_profile, which
    ):
        # the interval search rests on this: in every (r_T, y0) cell of the
        # default grid the rate deviation, rounded as the estimator rounds
        # it, is nondecreasing in beta_y0, so the passing betas form one run
        profile = default_profile if which == "default" else qd1_profile
        wx, wy = mode_weights(profile, np.linspace(0.0, profile.core_half_width, 201))
        wy0 = mode_weights(profile, 0.0)[1]
        betas = np.linspace(0.0, 1.0, 101)
        num = betas * np.abs(wy - wx)[:, None]
        den = betas * (wy + wx)[:, None] + 2.0 * wy0 * (1.0 - betas)
        for r in np.linspace(0.0, 1.0, 101):
            for nu_gamma in (0.0, 0.27, 1.0):
                dev = (num * r) / den - nu_gamma
                assert (np.diff(dev, axis=1) >= 0.0).all()

    def test_to_dict_round_trip_keys(self, default_profile):
        d = estimate_parameters(0.48, 0.27, default_profile).to_dict()
        for key in (
            "nu_I",
            "nu_gamma",
            "r_T_lower_bound",
            "r_T_lower_bound_point",
            "r_T_range",
            "beta_y0_range",
            "y0_range",
            "n_feasible",
            "feasible_set",
        ):
            assert key in d


def _oracle_estimate(nu_I, nu_gamma, profile, sigma_I, sigma_gamma, max_stored,
                     n_sigma=2.0, r_points=101, y0_points=201, beta_points=101):
    """Reference feasible-set scan over the dense (r_T, y0, beta_y0) grid."""
    half = profile.core_half_width
    y0s = np.linspace(0.0, half, y0_points)
    wx = np.interp(y0s, profile.grid, profile.e_x) ** 2
    wy = np.interp(y0s, profile.grid, profile.e_y) ** 2
    wy0 = float(np.interp(0.0, profile.grid, profile.e_y)) ** 2

    rr = np.linspace(0.0, 1.0, r_points)[:, None, None]
    bb = np.linspace(0.0, 1.0, beta_points)[None, None, :]
    f_mode = (np.abs(wy - wx) / (wy + wx))[None, :, None]
    nu_i_pred = 2.0 * rr / (1.0 + rr**2) * f_mode
    num = bb * np.abs(wy - wx)[None, :, None]
    den = bb * (wy + wx)[None, :, None] + 2.0 * wy0 * (1.0 - bb)
    nu_g_pred = rr * num / den

    mask = (np.abs(nu_i_pred - nu_I) <= n_sigma * sigma_I) & (
        np.abs(nu_g_pred - nu_gamma) <= n_sigma * sigma_gamma
    )
    idx = np.argwhere(mask)
    if len(idx) == 0:
        raise EmptyFeasibleSet(
            f"no (r_T, beta_y0, y0) reproduces nu_I={nu_I} and nu_gamma={nu_gamma} "
            f"within {n_sigma} sigma"
        )
    r_vals = np.linspace(0.0, 1.0, r_points)[idx[:, 0]]
    y_vals = y0s[idx[:, 1]]
    b_vals = np.linspace(0.0, 1.0, beta_points)[idx[:, 2]]
    stride = max(1, math.ceil(len(idx) / max_stored))
    triples = tuple(
        (float(r), float(b), float(y))
        for r, b, y in zip(r_vals[::stride], b_vals[::stride], y_vals[::stride])
    )
    return VisibilityEstimate(
        nu_I=nu_I,
        nu_I_sigma=sigma_I,
        nu_gamma=nu_gamma,
        nu_gamma_sigma=sigma_gamma,
        theta_offset=math.nan,
        r_T_lower_bound=r_lower_bound(max(nu_I - n_sigma * sigma_I, 0.0)),
        r_T_lower_bound_point=r_lower_bound(nu_I),
        r_T_range=(float(r_vals.min()), float(r_vals.max())),
        beta_y0_range=(float(b_vals.min()), float(b_vals.max())),
        y0_range=(float(y_vals.min()), float(y_vals.max())),
        feasible_set=triples,
        n_feasible=int(len(idx)),
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).to_dict()
    except EmptyFeasibleSet as exc:
        return ("empty", str(exc))


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEstimateParametersOracle:
    """The two-stage scan reproduces the dense 3-D grid scan exactly."""

    @settings(max_examples=40)
    @given(
        nu_I=st.floats(0.0, 1.0),
        nu_gamma=st.floats(0.0, 1.0),
        sigma_I=st.floats(1e-3, 0.3),
        sigma_gamma=st.floats(1e-3, 0.3),
        which=st.sampled_from(["default", "qd1"]),
        max_stored=st.sampled_from([2000, 100, 7]),
    )
    @example(0.48, 0.27, 0.03, 0.05, "default", 2000)
    @example(0.05, 0.9, 0.01, 0.01, "default", 2000)  # empty after the rate stage
    @example(0.5, 0.5, 0.3, 0.3, "qd1", 7)
    # one grid point lies exactly tol above nu_gamma, one exactly tol below:
    # both bounds are inclusive
    @example(0.48, 0.07896226415094343, 0.03, 0.0625, "default", 2000)
    @example(0.48, 0.32896226415094343, 0.03, 0.0625, "default", 2000)
    @example(0.01, 0.05, 0.03, 0.05, "default", 2000)  # r_T = 0 cells pass
    @example(0.5, 0.5, 0.5, 0.5, "default", 2000)  # every cell passes
    def test_matches_dense_scan(
        self, default_profile, qd1_profile,
        nu_I, nu_gamma, sigma_I, sigma_gamma, which, max_stored,
    ):
        profile = default_profile if which == "default" else qd1_profile
        args = (nu_I, nu_gamma, profile, sigma_I, sigma_gamma)
        got = _outcome(estimate_parameters, *args, max_stored=max_stored)
        want = _outcome(_oracle_estimate, *args, max_stored=max_stored)
        assert got == want

    @pytest.mark.parametrize("nu_I", [0.3, 0.8, 1.0])
    def test_matches_dense_scan_on_coarse_grids(self, default_profile, nu_I):
        # coarse grids leave gaps in nu_I, so the intensity stage alone can
        # empty the set; odd sizes check the index bookkeeping, and one to
        # three betas the shortest searches
        args = (nu_I, 0.2, default_profile, 1e-3, 0.3)
        for beta_points in (1, 2, 3, 5):
            grid = dict(r_points=3, y0_points=4, beta_points=beta_points, max_stored=2000)
            got = _outcome(estimate_parameters, *args, **grid)
            assert got == _outcome(_oracle_estimate, *args, **grid)

    def test_peak_memory_stays_small(self, default_profile):
        # the search holds O(cells) arrays, never cells x betas
        peak = _traced_peak(estimate_parameters, 0.48, 0.27, default_profile)
        assert peak < 4e6
        everything = _traced_peak(
            estimate_parameters, 0.48, 0.27, default_profile,
            sigma_I=0.2, sigma_gamma=0.2,
        )
        assert everything < 4e6


class TestAnalyzeSweep:
    def test_recovers_generator_truth(self, qd1_analysis):
        out = qd1_analysis
        assert out["nu_I"] == pytest.approx(0.48, abs=0.02)
        assert out["nu_gamma"] == pytest.approx(0.25, abs=0.02)
        assert out["gamma_max"] == pytest.approx(1.05, abs=0.03)
        assert out["gamma_min"] == pytest.approx(0.63, abs=0.03)
        assert out["estimate"] is not None
        assert out["estimate"]["n_feasible"] > 0

    def test_result_structure(self, qd1_analysis, qd1_sweep):
        out = qd1_analysis
        assert len(out["rate_fits"]) == len(qd1_sweep[2])
        for key in ("intensity_fit", "rate_fit", "theta_offset", "notes"):
            assert key in out
        assert out["gamma_max"] > out["gamma_min"]

    def test_estimator_is_consistent_across_seeds(self, qd1_cfg, qd1_profile):
        """The ensemble mean of the rate visibility sits on the truth."""
        cfg = qd1_cfg
        scene = cfg.scene(qd1_profile.k)
        weights = mode_weights(qd1_profile, scene.y0)
        volts = list(cfg.voltages())
        ests = []
        for seed in range(100):
            recs = generate_sweep(
                scene,
                weights,
                cfg.r_T_magnitude(),
                cfg.calibration,
                volts,
                cfg.counts_scale,
                seed=seed,
                hist_counts=cfg.hist_counts,
                bin_edges=cfg.bin_edges(),
                irf_sigma=cfg.irf_sigma,
            )
            out = analyze_sweep(*recs, profile=qd1_profile)
            ests.append(out["nu_gamma"])
        ests = np.asarray(ests)
        sem = float(ests.std(ddof=1)) / math.sqrt(len(ests))
        assert abs(float(ests.mean()) - 0.25) < 3.0 * sem


class TestTable1:
    def test_builtin_table_parses(self):
        rows = read_table1_csv(builtin_table1_path())
        assert [r["qd"] for r in rows] == [1, 2, 3, 4, 5, 6]
        assert all(r["gamma_max"] > r["gamma_min"] for r in rows)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("qd,lambda_nm,gamma_max\n1,920.0,1.0\n")
        with pytest.raises(MalformedRow, match="line 1: missing"):
            read_table1_csv(str(p))

    def test_unknown_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I,bogus\n"
            "1,920.0,1.0,0.6,0.2,0.4,9\n"
        )
        with pytest.raises(MalformedRow, match="unknown columns"):
            read_table1_csv(str(p))

    def test_bad_cell_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I\n"
            "1,920.0,1.0,0.6,0.2,0.4\n"
            "2,921.0,oops,0.6,0.2,0.4\n"
        )
        with pytest.raises(MalformedRow, match="line 3"):
            read_table1_csv(str(p))

    def test_empty_cell_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(
            "qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I\n1,920.0,,0.6,0.2,0.4\n"
        )
        with pytest.raises(MalformedRow, match="empty cell"):
            read_table1_csv(str(p))

    def test_no_rows_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I\n")
        with pytest.raises(MalformedRow, match="no data rows"):
            read_table1_csv(str(p))

    def test_report_contrasts_and_flags(self, default_profile):
        rows = read_table1_csv(builtin_table1_path())
        rep = table1_report(rows, default_profile)
        out = rep["rows"]
        assert out[0]["rate_contrast"] == pytest.approx(0.37 / 1.63, rel=1e-12)
        assert out[3]["rate_contrast"] == pytest.approx(0.23 / 1.43, rel=1e-12)
        assert [r["contrast_within_1_sigma"] for r in out] == [
            False,
            False,
            False,
            True,
            False,
            True,
        ]
        assert out[5]["r_T_lower_bound_point"] == pytest.approx(
            0.5328151919332849, rel=1e-12
        )

    def test_first_emitter_crosscheck_note(self, default_profile):
        rows = read_table1_csv(builtin_table1_path())
        rep = table1_report(rows, default_profile)
        notes = rep["rows"][0]["notes"]
        assert any("923.25" in n and "discrepancy" in n for n in notes)
        for row in rep["rows"][1:]:
            assert not any("923.25" in n for n in row["notes"])

    def test_equal_rates_give_zero_contrast(self, default_profile):
        rows = [
            {
                "qd": 9,
                "lambda_nm": 920.0,
                "gamma_max": 0.8,
                "gamma_min": 0.8,
                "nu_gamma": 0.0,
                "nu_I": 0.3,
            }
        ]
        rep = table1_report(rows, default_profile)
        assert rep["rows"][0]["rate_contrast"] == 0.0
        assert rep["rows"][0]["contrast_within_1_sigma"]

    def test_inverted_rates_rejected(self, default_profile):
        rows = [
            {
                "qd": 9,
                "lambda_nm": 920.0,
                "gamma_max": 0.5,
                "gamma_min": 0.8,
                "nu_gamma": 0.1,
                "nu_I": 0.3,
            }
        ]
        with pytest.raises(MalformedRow):
            table1_report(rows, default_profile)

    def test_non_positive_gamma_min_rejected(self, default_profile):
        # gamma_max + gamma_min > 0 and gamma_max >= gamma_min still hold
        row = {"qd": 9, "lambda_nm": 920.0, "gamma_max": 1.0, "gamma_min": -0.1,
               "nu_gamma": 0.1, "nu_I": 0.3}
        with pytest.raises(MalformedRow, match="need gamma_max >= gamma_min > 0"):
            table1_report([row], default_profile)

    def test_feasibility_with_profile(self, default_profile):
        rows = read_table1_csv(builtin_table1_path())
        rep = table1_report(rows, profile=default_profile)
        for row in rep["rows"]:
            assert row["feasible"] is True
            assert row["r_T_range"][0] <= row["r_T_range"][1]
            assert row["r_T_lower_bound"] <= row["r_T_range"][0] + 1e-12
