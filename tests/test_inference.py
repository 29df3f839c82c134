import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import builtin_table1_path
from oracles import (
    ExcitonModel,
    bin_integral,
    bin_integral_derivative,
    bin_integrals_longdouble,
    expected_histogram,
    generate_decay_histogram,
    poisson_nll_gradient,
)
from phasemirror.inference import (
    EmptyFeasibleSet,
    InsufficientPhaseSpan,
    MalformedRow,
    NonIdentifiable,
    TooFewBins,
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
    table1_report,
)
from phasemirror import inference
from phasemirror.config import RunConfig
from phasemirror.modesolver import mode_weights, solve_te0
from phasemirror.synthlab import generate_sweep, histogram_header

EDGES = np.linspace(0.0, 25.0, 501)
PLAIN = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05)
FLOOR = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)


def quad_fringe():
    # quadratic phase map crossing three interior turning points
    v = np.linspace(0.0, 10.0, 201)
    phi = 0.05 * v**2
    inten = 120.0 * (1.0 + 0.8 * np.cos(2.0 * phi + 0.3))
    return v, phi, inten


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
        amp_ratio=cfg.raw["sweep"]["amp_ratio"],
        background=cfg.raw["sweep"]["background"],
        hist_counts=cfg.hist_counts,
        bin_edges=cfg.bin_edges(),
        irf_sigma=cfg.irf_sigma,
    )


@pytest.fixture(scope="module")
def qd1_analysis(qd1_cfg, qd1_profile, qd1_sweep):
    phis, counts, hists = qd1_sweep
    names = histogram_header(len(hists))[1:]
    return analyze_sweep(
        phis, counts, qd1_cfg.bin_edges(), hists, profile=qd1_profile, histogram_names=names
    )


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


def _oracle_biexp_model(x, edges, fit_background):
    """Reference bi-exponential model: one exp call per bin end and term."""
    af, gf, as_, gs = np.exp(x[:4])
    a, b = edges[:-1], edges[1:]
    Ef, dEf = bin_integral(gf, a, b), bin_integral_derivative(gf, a, b)
    Es, dEs = bin_integral(gs, a, b), bin_integral_derivative(gs, a, b)
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


class TestForwardEqualsInverse:
    @given(
        gamma_f=st.floats(1e-3, 20.0),
        slow=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        amp_ratio=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        background=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    )
    @example(gamma_f=1.2, slow=0.0, amp_ratio=0.05, background=0.0)
    @example(gamma_f=1.2, slow=1e-7, amp_ratio=0.05, background=1.0)
    @example(gamma_f=20.0, slow=1e-3, amp_ratio=0.0, background=0.0)
    # slow rates between the flat limit and 1e-12 /ns keep E's expm1 form
    @example(gamma_f=1.0, slow=1e-13, amp_ratio=1.0, background=0.0)
    @example(gamma_f=1.0, slow=9.9e-13, amp_ratio=1.0, background=0.0)
    def test_biexp_model_reproduces_the_simulator(self, gamma_f, slow, amp_ratio, background):
        # the fit's model at a simulated ExcitonModel's own parameters is the
        # simulator's expectation, down to a slow rate of 0 (a flat component)
        model = ExcitonModel(gamma_f, slow * gamma_f, amp_ratio, background)
        total = 1e5
        mu = expected_histogram(model, total, EDGES).counts
        shape = (
            bin_integrals_longdouble(model.gamma_f, EDGES)[0]
            + model.amp_ratio * bin_integrals_longdouble(model.gamma_s, EDGES)[0]
        )
        a_f = float((total - background * (len(EDGES) - 1)) / shape.sum())
        params = (a_f, model.gamma_f, model.amp_ratio * a_f, model.gamma_s, background)
        x = np.array([math.log(v) if v > 0 else -math.inf for v in params])
        mu_fit, J = biexp_model(x, EDGES, True)
        assert np.all(np.isfinite(J))
        assert np.all(np.abs(mu_fit - mu) <= 1e-12 * mu)


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
        res = fit_biexponential(hist.bin_edges, hist.counts, fit_background)
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
            irf_sigma=None,
        )
        for i, n_iter in ((1, 9), (7, 8)):
            res = fit_biexponential(cfg.bin_edges(), histograms[i], fit_background=True)
            assert res.n_iter == n_iter
            assert res.params["background"] == 0.0
            assert res.uncertainties["background"] is None
            assert res.flags == ["singular_information"]


class TestBiexponentialFit:
    def test_noiseless_histogram_recovered_exactly(self):
        # the model integrates bins exactly, so noiseless data is a fixed point
        hist = expected_histogram(PLAIN, 1e5, bin_edges=EDGES)
        res = fit_biexponential(hist.bin_edges, hist.counts)
        assert res.converged
        assert res.params["gamma_f"] == pytest.approx(1.1, rel=1e-8)
        assert res.params["gamma_s"] == pytest.approx(0.1, rel=1e-8)
        assert res.derived["gamma_rad"] == pytest.approx(1.0, rel=1e-7)
        assert res.n_iter <= 10
        assert res.flags == []

    def test_noisy_fit_within_tolerance_and_errors_honest(self):
        hist = generate_decay_histogram(PLAIN, 1e5, bin_edges=EDGES, seed=7)
        res = fit_biexponential(hist.bin_edges, hist.counts)
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
            fit_biexponential(hist.bin_edges, hist.counts)

    def test_background_noiseless_exact(self):
        model = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)
        hist = expected_histogram(model, 2e5, bin_edges=EDGES)
        res = fit_biexponential(hist.bin_edges, hist.counts, fit_background=True)
        assert res.params["gamma_f"] == pytest.approx(1.1, rel=1e-6)
        assert res.params["background"] == pytest.approx(2.0, abs=1e-6)

    def test_background_noisy_covered_by_errors(self):
        model = ExcitonModel(gamma_f=1.1, gamma_s=0.1, amp_ratio=0.05, background=2.0)
        hist = generate_decay_histogram(model, 2e5, bin_edges=EDGES, seed=11)
        res = fit_biexponential(hist.bin_edges, hist.counts, fit_background=True)
        assert "background" in res.params
        bg, sbg = res.params["background"], res.uncertainties["background"]
        assert abs(bg - 2.0) < 2.0 * sbg
        assert abs(res.params["gamma_s"] - 0.1) / 0.1 < 0.05

    def test_low_statistics_flag(self):
        hist = generate_decay_histogram(PLAIN, 500, bin_edges=EDGES, seed=2)
        assert hist.total_counts < 1000
        res = fit_biexponential(hist.bin_edges, hist.counts)
        assert "low_statistics" in res.flags

    def test_too_few_bins_rejected(self):
        edges = np.linspace(0.0, 1.0, 6)
        hist = expected_histogram(PLAIN, 1e4, bin_edges=edges)
        with pytest.raises(TooFewBins, match="too few bins"):
            fit_biexponential(hist.bin_edges, hist.counts)

    def test_fast_decay_within_the_first_bin_is_non_identifiable(self):
        # one exponential plus a spike in the first bin: the fast rate has
        # no count after that bin to fix it, and runs off
        edges = np.linspace(0.0, 25.0, 501)
        counts = np.round(1e3 * np.exp(-0.1 * 0.5 * (edges[:-1] + edges[1:])))
        counts[0] += 1e3
        with pytest.raises(NonIdentifiable, match="decays within the first bin"):
            fit_biexponential(edges, counts)


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

    def test_singular_normal_matrix_rejected(self):
        # every 2*phi at 0 or pi, as a flat table calibration gives: no
        # sine term, and LAPACK finds the normal matrix singular
        phi = np.array([0.0, 0.0, 0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi])
        with pytest.raises(InsufficientPhaseSpan, match="undetermined"):
            fit_sinusoid(phi, np.full(6, 100.0), np.full(6, 10.0))

    @pytest.mark.parametrize(
        "start, n_points, sigmas", [(0.0, 6, (1.0, 1.0)), (0.1, 8, (3.0, 2.0))]
    )
    def test_two_distinct_angles_rejected(self, start, n_points, sigmas):
        # two values of 2*phi mod 2*pi leave three coefficients undetermined,
        # however the rounded normal matrix comes out: LAPACK inverted these
        # to visibilities 1.03e16 +- 1.07e23 and 4.30 +- 0.0
        reps = n_points // 2
        phi = np.tile([start, start + 0.5 * math.pi], reps)
        with pytest.raises(InsufficientPhaseSpan, match="3 distinct"):
            fit_sinusoid(phi, np.tile([10.0, 5.0], reps), np.tile(sigmas, reps))

    def test_three_distinct_angles_fit(self):
        phi = np.tile([0.0, 0.25 * math.pi, 0.5 * math.pi], 2)
        vals = 10.0 * (1.0 + 0.5 * np.cos(2.0 * phi + 0.3))
        res = fit_sinusoid(phi, vals, np.ones_like(vals))
        assert res.derived["visibility"] == pytest.approx(0.5, rel=1e-12)
        assert res.params["theta"] == pytest.approx(0.3, rel=1e-12)

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

    def test_visibility_is_gauge_invariant(self):
        # a sign flip plus offset on the phases must not move the visibility
        _, phi, inten = quad_fringe()
        f1 = fit_sinusoid(phi, inten, np.ones_like(inten))
        f2 = fit_sinusoid(-phi + 0.7, inten, np.ones_like(inten))
        assert abs(f1.derived["visibility"] - f2.derived["visibility"]) < 1e-9

    @pytest.mark.parametrize("theta", [0.3, 2.35, 4.0, 5.5])
    def test_fringe_offset_is_immaterial(self, theta):
        # the fringe may start on a rising or falling edge, or at a turn
        v, phi, _ = quad_fringe()
        inten = 1.0 + 0.5 * np.cos(2.0 * phi + theta)
        res = fit_sinusoid(phi, inten, np.ones_like(inten))
        assert res.derived["visibility"] == pytest.approx(0.5, abs=1e-10)
        dtheta = (res.params["theta"] - theta + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(dtheta) < 1e-9

    def test_shot_noise_fringe_fits_well(self):
        # desk-scale counts on a fringe analyzed with its own phases
        _, phi, _ = quad_fringe()
        rng = np.random.default_rng(21)
        lam = 5e4 * (1.0 + 0.55 * np.cos(2.0 * phi + 1.9)) / 2.0 + 1e3
        counts = rng.poisson(lam).astype(float)
        res = fit_sinusoid(phi, counts, np.sqrt(counts))
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


def _forward(profile, y0, r, b):
    """Intensity and rate visibilities at (|r_T|, beta_y0, y0), written
    out; arrays broadcast."""
    wx = np.interp(y0, profile.grid, profile.e_x) ** 2
    wy = np.interp(y0, profile.grid, profile.e_y) ** 2
    wy0 = float(np.interp(0.0, profile.grid, profile.e_y)) ** 2
    nu_i = 2.0 * r / (1.0 + r**2) * (np.abs(wy - wx) / (wy + wx))
    nu_g = r * (b * np.abs(wy - wx)) / (b * (wy + wx) + 2.0 * wy0 * (1.0 - b))
    return nu_i, nu_g


def _assert_corners_pass(est, profile, slack=1e-12):
    # (r_lo, beta_hi) and (r_hi, beta_lo) are feasible points of each slice,
    # the ones that set its beta_y0 range
    y0, r_lo, r_hi, b_lo, b_hi = np.array(est.feasible_slices).T
    tol_i, tol_g = 2.0 * est.nu_I_sigma, 2.0 * est.nu_gamma_sigma
    for r, b in ((r_lo, b_hi), (r_hi, b_lo)):
        nu_i, nu_g = _forward(profile, y0, r, b)
        assert (np.abs(nu_i - est.nu_I) <= tol_i + slack).all()
        assert (np.abs(nu_g - est.nu_gamma) <= tol_g + slack).all()


class TestEstimateParameters:
    def test_frozen_feasible_summary(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        assert len(est.feasible_slices) == 150
        assert est.r_T_range == pytest.approx((0.22018070389744238, 1.0), rel=1e-12)
        assert est.beta_y0_range == pytest.approx((0.5808137188207864, 1.0), rel=1e-12)
        assert est.y0_range == pytest.approx((0.0, 150.0))
        assert est.r_T_lower_bound == pytest.approx(0.22018070389744243, rel=1e-12)
        assert est.r_T_lower_bound_point == pytest.approx(0.25569065004489094, rel=1e-12)

    @pytest.mark.parametrize("which", ["default", "qd1"])
    def test_slice_corners_meet_both_visibilities(
        self, default_profile, qd1_profile, which
    ):
        """The points that set each slice reproduce the measurements."""
        profile = default_profile if which == "default" else qd1_profile
        _assert_corners_pass(estimate_parameters(0.48, 0.27, profile), profile)

    def test_slices_are_ordered_boxes(self, default_profile):
        slices = np.array(estimate_parameters(0.48, 0.27, default_profile).feasible_slices)
        y0, r_lo, r_hi, b_lo, b_hi = slices.T
        assert (np.diff(y0) > 0).all()
        assert ((0.0 <= r_lo) & (r_lo <= r_hi) & (r_hi <= 1.0)).all()
        assert ((0.0 <= b_lo) & (b_lo <= b_hi) & (b_hi <= 1.0)).all()

    def test_bound_below_every_feasible_r(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        assert est.r_T_lower_bound <= min(s[1] for s in est.feasible_slices)

    def test_center_slice_starts_at_the_bound(self, default_profile):
        # the center offset has no x weight, so its interval starts where
        # the centered-emitter inversion at nu_I - 2 sigma does
        est = estimate_parameters(0.48, 0.27, default_profile)
        assert est.feasible_slices[0][:2] == (0.0, est.r_T_lower_bound)

    def test_moderate_reflectivity_offset_region_reachable(self, default_profile):
        est = estimate_parameters(0.48, 0.27, default_profile)
        box = [
            s
            for s in est.feasible_slices
            if 40.0 <= s[0] <= 80.0 and s[1] <= 0.65 and s[2] >= 0.55
        ]
        assert [s[0] for s in box] == pytest.approx(np.arange(69.0, 79.6, 0.75))

    def test_without_fringe_only_vanishing_visibilities_pass(self, default_profile):
        # wx = wy at some offset: both models give 0 there for every r_T and beta_y0
        prof = copy.copy(default_profile)
        prof.e_x = prof.e_y.copy()
        with pytest.raises(EmptyFeasibleSet):
            estimate_parameters(0.1, 0.0, prof, sigma_I=0.01, sigma_gamma=0.01)
        est = estimate_parameters(0.01, 0.01, prof, sigma_I=0.01, sigma_gamma=0.01)
        assert len(est.feasible_slices) == inference.Y0_POINTS
        assert {tuple(s[1:]) for s in est.feasible_slices} == {(0.0, 1.0, 0.0, 1.0)}

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

    @pytest.mark.parametrize("which", ["default", "qd1"])
    def test_rate_deviation_never_falls_along_beta(
        self, default_profile, qd1_profile, which
    ):
        # the closed-form beta_y0 range rests on this: in every (r_T, y0)
        # cell of a dense grid the rate deviation, rounded as the model
        # rounds it, is nondecreasing in beta_y0
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
            "feasible_slices",
        ):
            assert key in d
        assert all(len(s) == 5 for s in d["feasible_slices"])


def _oracle_estimate(nu_I, nu_gamma, profile, sigma_I, sigma_gamma,
                     n_sigma=2.0, r_points=101, y0_points=201, beta_points=101):
    """Reference scan of the dense (r_T, y0, beta_y0) grid: the (r_T,
    beta_y0, y0) triples that reproduce both visibilities, one per row."""
    y0s = np.linspace(0.0, profile.core_half_width, y0_points)
    rs = np.linspace(0.0, 1.0, r_points)
    bs = np.linspace(0.0, 1.0, beta_points)
    nu_i, nu_g = _forward(profile, y0s[:, None], rs[:, None, None], bs)
    mask = (np.abs(nu_i - nu_I) <= n_sigma * sigma_I) & (
        np.abs(nu_g - nu_gamma) <= n_sigma * sigma_gamma
    )
    ri, yi, bi = np.nonzero(mask)
    return np.column_stack((rs[ri], bs[bi], y0s[yi]))


def _assert_contains(est, triples):
    """Every scanned triple lies in the slice of its offset, and each of
    the three ranges holds the scan's."""
    slices = np.array(est.feasible_slices)
    r, b, y0 = triples.T
    row = np.searchsorted(slices[:, 0], y0)
    assert (row < len(slices)).all()
    y_s, r_lo, r_hi, b_lo, b_hi = slices[row].T
    assert (y_s == y0).all()
    assert ((r_lo <= r) & (r <= r_hi) & (b_lo <= b) & (b <= b_hi)).all()
    for (lo, hi), col in zip((est.r_T_range, est.beta_y0_range, est.y0_range), (r, b, y0)):
        assert lo <= col.min() and col.max() <= hi


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEstimateParametersOracle:
    """The closed-form slices contain every point of the dense 3-D grid scan."""

    @settings(max_examples=40)
    @given(
        nu_I=st.floats(0.0, 1.0),
        nu_gamma=st.floats(0.0, 1.0),
        sigma_I=st.floats(1e-3, 0.3),
        sigma_gamma=st.floats(1e-3, 0.3),
        which=st.sampled_from(["default", "qd1"]),
    )
    @example(0.48, 0.27, 0.03, 0.05, "default")
    @example(0.05, 0.9, 0.01, 0.01, "default")  # empty after the rate constraint
    @example(0.5, 0.5, 0.3, 0.3, "qd1")
    # one grid point lies exactly tol above nu_gamma, one exactly tol below:
    # both bounds are inclusive
    @example(0.48, 0.07896226415094343, 0.03, 0.0625, "default")
    @example(0.48, 0.32896226415094343, 0.03, 0.0625, "default")
    @example(0.01, 0.05, 0.03, 0.05, "default")  # r_T = 0 cells pass
    @example(0.5, 0.5, 0.5, 0.5, "default")  # every cell passes
    def test_contains_dense_scan(
        self, default_profile, qd1_profile,
        nu_I, nu_gamma, sigma_I, sigma_gamma, which,
    ):
        profile = default_profile if which == "default" else qd1_profile
        args = (nu_I, nu_gamma, profile, sigma_I, sigma_gamma)
        triples = _oracle_estimate(*args)
        try:
            est = estimate_parameters(*args)
        except EmptyFeasibleSet:
            assert len(triples) == 0
            return
        _assert_corners_pass(est, profile)
        if len(triples):
            _assert_contains(est, triples)

    @pytest.mark.parametrize("nu_I", [0.3, 0.8, 1.0])
    def test_contains_coarse_and_odd_grids(self, default_profile, nu_I):
        # grids whose |r_T| and beta_y0 values are not those of the dense
        # scan, down to one to three betas, on the estimator's offsets
        args = (nu_I, 0.2, default_profile, 1e-3, 0.3)
        est = estimate_parameters(*args)
        for r_points, beta_points in ((3, 1), (3, 2), (3, 3), (5, 5), (37, 53)):
            triples = _oracle_estimate(*args, r_points=r_points, beta_points=beta_points)
            if len(triples):
                _assert_contains(est, triples)

    def test_peak_memory_stays_small(self, default_profile):
        # the estimate holds O(offsets) arrays
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
        assert out["estimate"]["feasible_slices"]

    def test_fits_every_row_of_the_counts_matrix(self, qd1_cfg, qd1_analysis, qd1_sweep):
        # the sweep's rate fits are fit_biexponential's, row by row
        edges, hists = qd1_cfg.bin_edges(), qd1_sweep[2]
        assert hists.shape == (len(qd1_sweep[0]), len(edges) - 1)
        fits = [fit_biexponential(edges, row).to_dict() for row in hists]
        assert qd1_analysis["rate_fits"] == fits

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
                amp_ratio=cfg.raw["sweep"]["amp_ratio"],
                background=cfg.raw["sweep"]["background"],
                hist_counts=cfg.hist_counts,
                bin_edges=cfg.bin_edges(),
                irf_sigma=cfg.irf_sigma,
            )
            phis, counts, hists = recs
            out = analyze_sweep(
                phis, counts, cfg.bin_edges(), hists, profile=qd1_profile,
                histogram_names=histogram_header(len(hists))[1:],
            )
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

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I\n1,920.0,1.0,0.6,0.2\n")
        with pytest.raises(MalformedRow, match="line 2: expected 6 columns, got 5"):
            read_table1_csv(str(p))

    def test_blank_lines_are_skipped(self, tmp_path):
        header = "qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I\n"
        rows = "1,920.0,1.0,0.6,0.2,0.4\n", "2,921.0,1.2,0.5,0.3,0.5\n"
        dense, sparse = tmp_path / "dense.csv", tmp_path / "sparse.csv"
        dense.write_text(header + "".join(rows))
        sparse.write_text(header + "\n" + "\n".join(rows) + "\n")
        assert read_table1_csv(str(sparse)) == read_table1_csv(str(dense))

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
