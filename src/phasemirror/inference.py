"""Inverse pipeline: from counts and histograms back to physics.

Four stages mirror the measurement chain in reverse: Poisson-MLE
bi-exponential lifetime fits (damped Gauss-Newton on the analytic
gradient, uncertainties from the exact observed information), weighted
sinusoid fits for fringe visibilities, phase-map reconstruction from a
reference fringe by a variable-projection fit of a monotone quadratic
phase, and joint estimation of (|r_T|, beta_y0, y0) from the visibility
pair, including the centered-emitter lower bound on |r_T|.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .modesolver import ModeProfile, mode_weights
from .synthlab import CalibrationModel, DecayHistogram, PhaseCalibration


class NonIdentifiable(RuntimeError):
    """Fitted fast and slow rates too close to separate (ratio < 1.5)."""


class NotConverged(RuntimeError):
    """Fit exceeded the iteration budget without meeting tolerance."""


class InsufficientPhaseSpan(ValueError):
    """Too few points or too narrow a 2*phi range for a fringe fit."""


class InsufficientFringes(ValueError):
    """Reference sweep covers less than one full intensity fringe."""


class EmptyFeasibleSet(RuntimeError):
    """No (r_T, beta_y0, y0) triple reproduces both visibilities."""


class TooFewBins(ValueError):
    """A decay histogram has fewer than 8 bins from its peak to its end."""


class NonFiniteRate(RuntimeError):
    """A lifetime fit left its radiative rate or that rate's sigma non-finite."""


class MalformedRow(ValueError):
    """A tabulated-results CSV row failed to parse."""


@dataclass
class FitResult:
    """Fitted parameters with 1-sigma uncertainties and diagnostics."""

    params: dict[str, float]
    uncertainties: dict[str, float]
    goodness: float
    converged: bool
    n_iter: int
    derived: dict[str, float] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "uncertainties": dict(self.uncertainties),
            "goodness": self.goodness,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "derived": dict(self.derived),
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# bi-exponential Poisson MLE


def biexp_model(x: np.ndarray, edges: np.ndarray, fit_background: bool) -> tuple[np.ndarray, np.ndarray]:
    """Expected bin counts and Jacobian for log-parameters.

    x holds (ln A_f, ln gamma_f, ln A_s, ln gamma_s[, ln bg]); the
    model per bin is A_f Ef + A_s Es + bg with E the exact exponential
    bin integral, so a histogram built from the same family is
    representable exactly.  The Jacobian is one (m, p) buffer filled
    column by column.
    """
    af, gf, as_, gs = np.exp(x[:4])
    a, b = edges[:-1], edges[1:]
    width = b - a
    J = np.empty((len(a), len(x)))
    for col, amp, gamma in ((0, af, gf), (2, as_, gs)):
        # one exponential per edge serves the integral and its gamma-derivative
        e = np.exp(-gamma * edges)
        E = e[:-1] * (-np.expm1(-gamma * width)) / gamma
        dE = ((b * e[1:] - a * e[:-1]) - E) / gamma
        np.multiply(amp, E, out=J[:, col])
        np.multiply(amp * gamma, dE, out=J[:, col + 1])
    mu = J[:, 0] + J[:, 2]
    if fit_background:
        bg = math.exp(x[4])
        J[:, 4] = bg
        mu += bg
    return np.maximum(mu, 1e-300, out=mu), J


def poisson_nll(mu: np.ndarray, counts: np.ndarray) -> float:
    """Negative Poisson log-likelihood up to the data-only term."""
    return float((mu - counts * np.log(mu)).sum())


def _fisher(J: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return (J / mu[:, None]).T @ J


def _line_fit(t: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against t, in closed form."""
    t_mean, y_mean = float(t.sum()) / len(t), float(y.sum()) / len(y)
    dt = t - t_mean
    slope = float(dt @ (y - y_mean)) / float(dt @ dt)
    return slope, y_mean - slope * t_mean


def _initial_guess(
    edges: np.ndarray, counts: np.ndarray, fit_background: bool
) -> np.ndarray:
    """Log-linear slope fits on tail and head give starting rates."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    width = float(np.mean(np.diff(edges)))
    n = len(counts)
    y = np.log(np.maximum(counts, 0.5))
    tail = slice(max(int(0.6 * n), 2), n)
    slope_s, icept_s = _line_fit(mids[tail], y[tail])
    gs0 = max(-slope_s, 1e-3)
    as0 = max(math.exp(icept_s) / width, 1e-6)
    head = slice(0, max(5, int(0.15 * n)))
    corrected = np.maximum(counts[head] - as0 * width * np.exp(-gs0 * mids[head]), 0.25)
    slope_f, icept_f = _line_fit(mids[head], np.log(corrected))
    gf0 = max(-slope_f, 1.6 * gs0, 1e-3)
    af0 = max(math.exp(icept_f) / width, as0 * 1e-3, 1e-6)
    x0 = [math.log(af0), math.log(gf0), math.log(as0), math.log(gs0)]
    if fit_background:
        bg0 = max(float(np.mean(counts[-10:])) * 0.5, 1e-4)
        x0.append(math.log(bg0))
    return np.array(x0)


def _minimize_poisson(
    x0: np.ndarray, edges: np.ndarray, counts: np.ndarray, fit_background: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Levenberg-damped Gauss-Newton on the Poisson deviance surface.

    Returns (x, mu, J, n_iter, converged) with mu and J the model and
    its Jacobian at x.
    """
    x = x0.copy()
    mu, J = biexp_model(x, edges, fit_background)
    nll = poisson_nll(mu, counts)
    lam = 1e-3
    converged = False
    n_iter = 0
    for n_iter in range(1, 201):
        g = J.T @ (1.0 - counts / mu)
        g_max = float(np.abs(g).max())
        if not math.isfinite(g_max):
            raise NotConverged("model diverged to non-finite values")
        if g_max < 1e-10 * (1.0 + abs(nll)):
            converged = True
            break
        F = _fisher(J, mu)
        # only lam changes between damping retries
        scale = np.diag(np.maximum(F.diagonal(), 1e-12))
        neg_g = -g
        step_max = None
        for _ in range(60):
            try:
                delta = np.linalg.solve(F + lam * scale, neg_g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_try = x + delta
            mu_try, J_try = biexp_model(x_try, edges, fit_background)
            nll_try = poisson_nll(mu_try, counts)
            delta_max = float(np.abs(delta).max())
            # tiny steps are trusted outright: so close to the optimum
            # the NLL itself can no longer resolve the improvement
            if nll_try <= nll or delta_max < 1e-6:
                x, mu, J, nll = x_try, mu_try, J_try, nll_try
                lam = max(lam / 3.0, 1e-12)
                step_max = delta_max
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if step_max is None:
            break
        if step_max < 1e-13:
            converged = True
            break
    return x, mu, J, n_iter, converged


def _observed_information(
    x: np.ndarray, mu: np.ndarray, J: np.ndarray, edges: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Exact Hessian of the NLL in log-parameters at x.

    mu and J are the model and its Jacobian at x, as biexp_model gives
    them, so the model is not evaluated again.  The Hessian is
    J^T diag(c / mu^2) J + sum_i (1 - c_i / mu_i) d2mu_i.  Of the second
    derivatives of a term A E(gamma), d2/dlnA2 = A E and
    d2/dlnA dlngamma = A gamma E' are its own Jacobian columns, as is the
    floor's d2/dlnbg2 = bg, so their sums are gradient entries.  Only
    d2/dlngamma2 = A gamma (E' + gamma E'') needs more: with
    gamma E'' = -(b^2 e_b - a^2 e_a) - 2 E' it is
    -A gamma (b^2 e_b - a^2 e_a) - A gamma E'.
    """
    resid = 1.0 - counts / mu
    g = J.T @ resid
    H = (J * (counts / mu**2)[:, None]).T @ J
    values = np.exp(x)
    a, b = edges[:-1], edges[1:]
    for k in (0, 2):
        amp, gamma = values[k], values[k + 1]
        e = np.exp(-gamma * edges)
        curv = float(resid @ (b * b * e[1:] - a * a * e[:-1]))
        H[k, k] += g[k]
        H[k, k + 1] += g[k + 1]
        H[k + 1, k] += g[k + 1]
        H[k + 1, k + 1] -= amp * gamma * curv + g[k + 1]
    if len(x) == 5:
        H[4, 4] += g[4]
    return 0.5 * (H + H.T)


def _deviance(mu: np.ndarray, counts: np.ndarray) -> float:
    c = counts
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(c > 0, c * np.log(np.where(c > 0, c, 1.0) / mu), 0.0)
    return float(2.0 * np.sum(term - (c - mu)))


def fit_biexponential(hist: DecayHistogram, fit_background: bool = False) -> FitResult:
    """Poisson maximum-likelihood fit of a bi-exponential decay.

    Fits (A_f, gamma_f, A_s, gamma_s) and, with fit_background, a flat
    floor, starting from slope fits to the data; the window starts at
    the histogram peak so the rising edge is never modeled.  Returns derived
    gamma_rad = gamma_f - gamma_s and gamma_nrad ~= gamma_s with
    propagated uncertainties.
    """
    edges = np.asarray(hist.bin_edges, dtype=float)
    counts = np.asarray(hist.counts, dtype=float)
    i0 = int(np.argmax(counts))
    edges_w, counts_w = edges[i0:], counts[i0:]
    if len(counts_w) < 8:
        raise TooFewBins("too few bins after the peak to fit")
    x0 = _initial_guess(edges_w, counts_w, fit_background)
    x, mu, J, n_iter, converged = _minimize_poisson(x0, edges_w, counts_w, fit_background)
    gf, gs = float(np.exp(x[1])), float(np.exp(x[3]))
    # identifiability outranks convergence: a degenerate rate pair is
    # the usual reason the damped iteration stalls
    if gs > 0 and gf / gs < 1.5:
        raise NonIdentifiable(
            f"fast/slow rate ratio {gf / gs:.3f} < 1.5; rates are degenerate"
        )
    if not converged:
        raise NotConverged("no convergence within 200 iterations")
    H = _observed_information(x, mu, J, edges_w, counts_w)
    flags: list[str] = []
    try:
        cov = np.linalg.inv(H)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(H)
        flags.append("singular_information")
    names = ["A_f", "gamma_f", "A_s", "gamma_s"] + (
        ["background"] if fit_background else []
    )
    values = np.exp(x)
    diag = np.diag(cov)
    # a non-positive variance marks a flat (unconstrained) direction
    sig_log = np.where(diag > 0, np.sqrt(np.abs(diag)), np.inf)
    params = {n: float(v) for n, v in zip(names, values)}
    uncertainties = {
        n: float(v * s) if math.isfinite(s) else math.inf
        for n, v, s in zip(names, values, sig_log)
    }
    var_rad = (
        values[1] ** 2 * cov[1, 1]
        + values[3] ** 2 * cov[3, 3]
        - 2.0 * values[1] * values[3] * cov[1, 3]
    )
    derived = {
        "gamma_rad": gf - gs,
        "gamma_rad_sigma": float(math.sqrt(max(var_rad, 0.0))),
        "gamma_nrad": gs,
        "amp_ratio": float(values[2] / values[0]),
        "window_start_bin": float(i0),
    }
    if hist.total_counts < 1000:
        flags.append("low_statistics")
    dof = max(len(counts_w) - len(x), 1)
    return FitResult(
        params=params,
        uncertainties=uncertainties,
        goodness=_deviance(mu, counts_w) / dof,
        converged=converged,
        n_iter=n_iter,
        derived=derived,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# sinusoid fits


def fit_sinusoid(phases: np.ndarray, values: np.ndarray, sigmas: np.ndarray) -> FitResult:
    """Weighted least squares of v = m (1 + nu cos(2 phi + theta)).

    Linear in the basis (1, cos 2phi, sin 2phi), hence exact; the
    visibility nu = amplitude/mean is non-negative by construction
    with the sign absorbed into theta (wrapped to [0, 2 pi)).  sigmas
    are the values' standard deviations, all positive; the covariance
    is the inverse of the weighted normal matrix, and the goodness the
    chi-squared per degree of freedom.
    """
    phi = np.asarray(phases, dtype=float)
    val = np.asarray(values, dtype=float)
    if len(phi) < 6:
        raise InsufficientPhaseSpan("need at least 6 phase points")
    if float(np.ptp(2.0 * phi)) < math.pi - 1e-9:
        raise InsufficientPhaseSpan("need a 2*phi span of at least pi")
    s = np.asarray(sigmas, dtype=float)
    if np.any(s <= 0):
        raise ValueError("sigmas must be positive")
    w = 1.0 / s**2
    X = np.stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)], axis=1)
    A = (X * w[:, None]).T @ X
    b = (X * w[:, None]).T @ val
    coef = np.linalg.solve(A, b)
    cov = np.linalg.inv(A)
    resid = val - X @ coef
    chi2 = float(np.sum(w * resid**2))
    dof = max(len(val) - 3, 1)
    m, ca, cb = (float(v) for v in coef)
    amp = math.hypot(ca, cb)
    flags: list[str] = []
    if amp < 1e-12 * max(abs(m), 1.0):
        theta = 0.0
        flags.append("theta_undefined")
    else:
        theta = math.atan2(-cb, ca) % (2.0 * math.pi)
    nu = amp / m if m != 0 else math.inf
    # delta method for nu and theta from the linear-parameter covariance
    if amp > 0 and m != 0:
        j_nu = np.array([-amp / m**2, ca / (amp * m), cb / (amp * m)])
        var_nu = float(j_nu @ cov @ j_nu)
        j_th = np.array([0.0, cb / amp**2, -ca / amp**2])
        var_th = float(j_th @ cov @ j_th)
    else:
        var_nu = float(cov[1, 1] + cov[2, 2]) / max(m**2, 1e-300)
        var_th = math.inf
    params = {"mean": m, "amplitude": amp, "theta": theta}
    uncertainties = {
        "mean": float(math.sqrt(max(cov[0, 0], 0.0))),
        "amplitude": float(math.sqrt(max(var_nu, 0.0))) * abs(m),
        "theta": float(math.sqrt(max(var_th, 0.0))) if math.isfinite(var_th) else math.inf,
    }
    derived = {
        "visibility": nu,
        "visibility_sigma": float(math.sqrt(max(var_nu, 0.0))),
    }
    return FitResult(
        params=params,
        uncertainties=uncertainties,
        goodness=chi2 / dof,
        converged=True,
        n_iter=1,
        derived=derived,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# phase-map reconstruction


def reconstruct_phase_map(
    voltages: np.ndarray, intensities: np.ndarray
) -> PhaseCalibration:
    """Recover phi(V) from a reference line's intensity fringe.

    Fits I = A + C cos 2phi + S sin 2phi with phi = P ((1 - kappa) x +
    kappa x^2), x = (V - V_0) / (V_end - V_0), P > 0 and kappa in
    [-1, 1]: exactly the monotone maps of degree <= 2 with phi(V_0) = 0,
    which include linear and electrostatic (V^2) actuation.  By
    variable projection (Golub & Pereyra 1973) (A, C, S) are solved
    linearly for every (P, kappa); a grid over (P, kappa), bounded by
    the number of mean crossings, picks the start and damped
    Gauss-Newton on the projected residual refines it, with Poisson
    weights 1/max(I, 1).  The output is gauged to phi = 0 at the first
    sample, with the global sign and offset left undetermined
    (documented in gauge_note).  A sweep must cover at least one full
    fringe.
    """
    v = np.asarray(voltages, dtype=float)
    inten = np.asarray(intensities, dtype=float)
    if len(v) < 8:
        raise InsufficientFringes("need at least 8 samples along the sweep")
    if np.any(np.diff(v) <= 0):
        raise ValueError("voltages must be strictly increasing")
    mid = 0.5 * (inten.max() + inten.min())
    amp = 0.5 * (inten.max() - inten.min())
    if amp <= 1e-12 * max(abs(mid), 1.0):
        raise InsufficientFringes("no fringe modulation detected")
    x = (v - v[0]) / (v[-1] - v[0])
    sw = 1.0 / np.sqrt(np.maximum(inten, 1.0))
    y = sw * inten

    def basis(two_phi: np.ndarray) -> np.ndarray:
        return np.stack(
            np.broadcast_arrays(sw, sw * np.cos(two_phi), sw * np.sin(two_phi)),
            axis=-1,
        )

    # start: 2 phi advances by about pi between mean crossings, and grid
    # steps that move 2 phi by at most pi/4 keep a node in the basin
    crossings = int(np.count_nonzero(np.diff(np.signbit(inten - inten.mean()))))
    p_max = 0.5 * math.pi * (crossings + 2)
    ps = np.arange(1, math.ceil(8.0 * p_max / math.pi) + 1) * (math.pi / 8.0)
    start = (-math.inf, 0.0, 0.0)
    for kappa in np.linspace(-1.0, 1.0, 2 * math.ceil(2.0 * p_max / math.pi) + 1):
        X = basis(2.0 * ps[:, None] * ((1.0 - kappa) * x + kappa * x**2))
        Xt = np.swapaxes(X, -1, -2)
        b = (Xt @ y)[..., None]
        # y.y minus the residual sum of squares of each linear solve
        explained = np.sum(b * np.linalg.solve(Xt @ X, b), axis=(-2, -1))
        i = int(np.argmax(explained))
        start = max(start, (float(explained[i]), float(ps[i]), float(kappa)))

    def project(P: float, kappa: float):
        shape = (1.0 - kappa) * x + kappa * x**2
        two_phi = 2.0 * P * shape
        Q, R = np.linalg.qr(basis(two_phi))
        qy = Q.T @ y
        resid = y - Q @ qy
        return float(resid @ resid), resid, Q, np.linalg.solve(R, qy), shape, two_phi

    _, P, kappa = start
    fit = project(P, kappa)
    lam = 1e-3
    for _ in range(100):
        rss, resid, Q, coef, shape, two_phi = fit
        dmodel = 2.0 * sw * (coef[2] * np.cos(two_phi) - coef[1] * np.sin(two_phi))
        J = dmodel[:, None] * np.stack([shape, P * (x**2 - x)], axis=1)
        J -= Q @ (Q.T @ J)
        JtJ, Jtr = J.T @ J, J.T @ resid
        step = None
        while lam < 1e14:
            damped = JtJ + lam * np.diag(np.diag(JtJ))
            delta = np.linalg.lstsq(damped, Jtr, rcond=None)[0]
            if abs(kappa) == 1.0 and abs(kappa + delta[1]) > 1.0:
                # pinned on a bound of kappa: step in P alone
                delta = np.array([Jtr[0] / damped[0, 0], 0.0])
            P_try = max(P + float(delta[0]), 0.5 * P)
            kappa_try = min(max(kappa + float(delta[1]), -1.0), 1.0)
            trial = project(P_try, kappa_try)
            if trial[0] <= rss:
                step = abs(P_try - P) + abs(kappa_try - kappa)
                P, kappa, fit = P_try, kappa_try, trial
                lam = max(lam / 3.0, 1e-12)
                break
            lam *= 10.0
        if step is None or step <= 1e-14 * (1.0 + P):
            break

    if P < 0.95 * math.pi:
        raise InsufficientFringes(
            f"sweep spans {P / math.pi:.2f} fringes; need at least one"
        )
    rss, shape = fit[0], fit[4]
    note = (
        "gauge: phi(first sample) = 0; global sign and offset unresolved; "
        f"chi2/dof = {rss / max(len(v) - 5, 1):.3g}"
    )
    table = tuple(zip(v.tolist(), (P * shape).tolist()))
    return PhaseCalibration(
        model=CalibrationModel.TABLE,
        table=table,
        quad_coeff=None,
        v_range=(float(v[0]), float(v[-1])),
        gauge_note=note,
    )


# ---------------------------------------------------------------------------
# visibility-based parameter estimation


@dataclass(frozen=True)
class VisibilityEstimate:
    """Joint (|r_T|, beta_y0, y0) information from a visibility pair.

    r_T_lower_bound_point inverts the intensity visibility for a
    centered emitter; r_T_lower_bound applies the same inversion at
    nu_I minus N_SIGMA uncertainties so it lower-bounds every member
    of the feasible set.  feasible_set holds sampled (r_T, beta_y0,
    y0) triples consistent with both measured visibilities.
    """

    nu_I: float
    nu_I_sigma: float
    nu_gamma: float
    nu_gamma_sigma: float
    theta_offset: float
    r_T_lower_bound: float
    r_T_lower_bound_point: float
    r_T_range: tuple[float, float]
    beta_y0_range: tuple[float, float]
    y0_range: tuple[float, float]
    feasible_set: tuple[tuple[float, float, float], ...]
    n_feasible: int

    def to_dict(self) -> dict:
        return {
            "nu_I": self.nu_I,
            "nu_I_sigma": self.nu_I_sigma,
            "nu_gamma": self.nu_gamma,
            "nu_gamma_sigma": self.nu_gamma_sigma,
            "theta_offset": self.theta_offset,
            "r_T_lower_bound": self.r_T_lower_bound,
            "r_T_lower_bound_point": self.r_T_lower_bound_point,
            "r_T_range": list(self.r_T_range),
            "beta_y0_range": list(self.beta_y0_range),
            "y0_range": list(self.y0_range),
            "n_feasible": self.n_feasible,
            "feasible_set": [list(t) for t in self.feasible_set],
        }


def r_lower_bound(nu_I: float) -> float:
    """Invert nu = 2r/(1+r^2) for the smallest consistent |r_T|.

    A lateral offset only reduces the intensity visibility, so the
    centered-emitter inversion (1 - sqrt(1 - nu^2)) / nu bounds |r_T|
    from below.  Strictly increasing on (0, 1).  Evaluated in the
    equivalent form nu / (1 + sqrt(1 - nu^2)), which avoids cancellation
    at small nu and stays monotone in floating point.
    """
    if not 0.0 <= nu_I <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {nu_I}")
    return nu_I / (1.0 + math.sqrt(max(1.0 - nu_I**2, 0.0)))


# a feasible point lies within N_SIGMA sigmas of both visibilities; the
# desk-scale sigmas are the defaults and the floors of a sweep's fitted ones
N_SIGMA = 2.0
SIGMA_FLOOR_I = 0.03
SIGMA_FLOOR_GAMMA = 0.05
# sigmas of a tabulated row without its nu_I_err or nu_gamma_err column
TABLE1_SIGMA_I = 0.05
TABLE1_SIGMA_GAMMA = 0.04


def estimate_parameters(
    nu_I: float,
    nu_gamma: float,
    profile: ModeProfile,
    sigma_I: float = SIGMA_FLOOR_I,
    sigma_gamma: float = SIGMA_FLOOR_GAMMA,
    r_points: int = 101,
    y0_points: int = 201,
    beta_points: int = 101,
    theta_offset: float = math.nan,
    max_stored: int = 2000,
) -> VisibilityEstimate:
    """Bound (r_T, beta_y0, y0) on a grid by a measured visibility pair.

    Keeps every grid point whose predicted intensity and rate
    visibilities both fall within N_SIGMA sigmas of the measurement; the
    intensity model is the mode-weight-reduced fringe visibility and
    the rate model the rate-weighted two-dipole average with both
    dipole rates scaled by the local mode weights (beta_y0 is the
    center value).  The set is bounded on a grid rather than by a local
    fit because the surface is multimodal near the weight-crossing
    offset.  The intensity constraint does not involve beta_y0, so it
    is checked on the (r_T, y0) plane first.  At a fixed (r_T, y0) the
    predicted rate visibility never falls as beta_y0 rises, so the
    betas that pass form one run per cell, and two bisections find its
    ends; the grid points kept are those a scan of the full grid would
    keep, in the same order.
    """
    for name, val in (("nu_I", nu_I), ("nu_gamma", nu_gamma)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    for name, val in (("sigma_I", sigma_I), ("sigma_gamma", sigma_gamma)):
        if not (math.isfinite(val) and val > 0):
            raise ValueError(f"{name} must be positive and finite, got {val}")

    half = profile.core_half_width
    y0s = np.linspace(0.0, half, y0_points)
    wx, wy = mode_weights(profile, y0s)
    wy0 = mode_weights(profile, 0.0)[1]
    rs = np.linspace(0.0, 1.0, r_points)
    betas = np.linspace(0.0, 1.0, beta_points)
    empty = EmptyFeasibleSet(
        f"no (r_T, beta_y0, y0) reproduces nu_I={nu_I} and nu_gamma={nu_gamma} "
        f"within {N_SIGMA} sigma"
    )

    # stage 1: the intensity constraint on the (r_T, y0) plane
    f_mode = np.abs(wy - wx) / (wy + wx)
    nu_i_pred = 2.0 * rs[:, None] / (1.0 + rs[:, None] ** 2) * f_mode
    ri, yi = np.nonzero(np.abs(nu_i_pred - nu_I) <= N_SIGMA * sigma_I)
    if len(ri) == 0:
        raise empty
    # stage 2: the rate constraint, one run of betas per passing cell.
    # Along beta the numerator grows by a factor (b + 1)/b per step while
    # rounding moves the denominator by ulps, so the deviation
    # (num * r)/den - nu_gamma never falls, and |deviation| <= tol holds
    # exactly on the betas [start, stop): the first start betas lie below
    # -tol (at or below the float under it), the first stop at or below tol
    num = (betas * np.abs(wy - wx)[:, None]).ravel()
    den = (betas * (wy + wx)[:, None] + 2.0 * wy0 * (1.0 - betas)).ravel()
    last, r_cell = yi * beta_points - 1, rs[ri]
    tol = N_SIGMA * sigma_gamma
    bound = np.array([[math.nextafter(-tol, -math.inf)], [tol]])
    # binary lifting: both prefixes of every cell at once, each grown by
    # the halving powers of two that keep its betas within the bound; a
    # prefix grown past the last beta, which passes, stands for all betas
    edge = np.zeros((2, len(ri)), dtype=np.intp)
    step = (1 << int(beta_points).bit_length()) >> 1  # 0 for no betas
    while step:
        grow = edge + step
        at = last + np.minimum(grow, beta_points)
        dev = np.take(num, at) * r_cell / np.take(den, at) - nu_gamma
        edge = np.where(dev <= bound, grow, edge)
        step >>= 1
    start, stop = np.minimum(edge, beta_points)
    length = stop - start
    ends = np.cumsum(length)
    n_feasible = int(ends[-1])
    if n_feasible == 0:
        raise empty
    # the runs laid end to end, cell by cell, are the C order of the full
    # (r_T, y0, beta_y0) grid, because the cells are
    stride = max(1, math.ceil(n_feasible / max_stored))
    kept = np.arange(0, n_feasible, stride)
    cell = np.searchsorted(ends, kept, side="right")
    bi = start[cell] + kept - (ends[cell] - length[cell])
    triples = tuple(
        zip(rs[ri[cell]].tolist(), betas[bi].tolist(), y0s[yi[cell]].tolist())
    )
    cells = length > 0
    r_vals, y_vals = rs[ri[cells]], y0s[yi[cells]]
    b_lo, b_hi = start[cells].min(), stop[cells].max() - 1
    return VisibilityEstimate(
        nu_I=nu_I,
        nu_I_sigma=sigma_I,
        nu_gamma=nu_gamma,
        nu_gamma_sigma=sigma_gamma,
        theta_offset=theta_offset,
        r_T_lower_bound=r_lower_bound(max(nu_I - N_SIGMA * sigma_I, 0.0)),
        r_T_lower_bound_point=r_lower_bound(nu_I),
        r_T_range=(float(r_vals.min()), float(r_vals.max())),
        beta_y0_range=(float(betas[b_lo]), float(betas[b_hi])),
        y0_range=(float(y_vals.min()), float(y_vals.max())),
        feasible_set=triples,
        n_feasible=n_feasible,
    )


# ---------------------------------------------------------------------------
# sweep-level analysis


def analyze_sweep(
    phases: np.ndarray,
    intensity_counts: np.ndarray,
    histograms: list[DecayHistogram],
    profile: ModeProfile,
    fit_background: bool = False,
    histogram_names: list[str] | None = None,
) -> dict:
    """Full inverse chain on one sweep: fits, visibilities, estimate.

    Fits the intensity fringe (Poisson sigmas, sqrt of the counts
    floored at 1), fits every histogram for its radiative rate, fits
    the rate fringe weighted by the rate sigmas, and scans the
    profile's feasible parameter set using the fitted visibilities
    with the desk-scale floors SIGMA_FLOOR_I and SIGMA_FLOOR_GAMMA on
    the uncertainties; an empty feasible set leaves "estimate" None
    and says why in "notes".  fit_background adds a flat floor to every
    lifetime fit, for histograms recorded with one.
    A failing lifetime fit, or one whose rate or rate sigma is not finite
    (NonFiniteRate), raises an error prefixed with the histogram's name
    from histogram_names, or else its position.
    """
    phases = np.asarray(phases, dtype=float)
    counts = np.asarray(intensity_counts, dtype=float)
    intensity_fit = fit_sinusoid(phases, counts, np.sqrt(np.maximum(counts, 1.0)))

    rate_fits = []
    for i, hist in enumerate(histograms):
        name = histogram_names[i] if histogram_names else f"histogram {i}"
        try:
            fit = fit_biexponential(hist, fit_background)
        except (TooFewBins, NonIdentifiable, NotConverged) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        rate, sigma = fit.derived["gamma_rad"], fit.derived["gamma_rad_sigma"]
        if not (math.isfinite(rate) and math.isfinite(sigma)):
            # max(nan, 1e-9) below is nan, and so would be nu_gamma
            raise NonFiniteRate(f"{name}: gamma_rad = {rate} +/- {sigma}")
        rate_fits.append(fit)

    gamma_rad = np.array([f.derived["gamma_rad"] for f in rate_fits])
    gamma_sig = np.array([max(f.derived["gamma_rad_sigma"], 1e-9) for f in rate_fits])
    rate_fit = fit_sinusoid(phases, gamma_rad, gamma_sig)

    m, nu_g = rate_fit.params["mean"], rate_fit.derived["visibility"]
    nu_i = intensity_fit.derived["visibility"]
    result = {
        "intensity_fit": intensity_fit.to_dict(),
        "rate_fits": [f.to_dict() for f in rate_fits],
        "rate_fit": rate_fit.to_dict(),
        "nu_I": nu_i,
        "nu_gamma": nu_g,
        "gamma_max": m * (1.0 + nu_g),
        "gamma_min": m * (1.0 - nu_g),
        "theta_offset": intensity_fit.params["theta"],
        "estimate": None,
        "notes": [],
    }
    sig_i = max(intensity_fit.derived["visibility_sigma"], SIGMA_FLOOR_I)
    sig_g = max(rate_fit.derived["visibility_sigma"], SIGMA_FLOOR_GAMMA)
    try:
        estimate = estimate_parameters(
            min(max(nu_i, 0.0), 1.0),
            min(max(nu_g, 0.0), 1.0),
            profile,
            sigma_I=sig_i,
            sigma_gamma=sig_g,
            theta_offset=intensity_fit.params["theta"],
        )
        result["estimate"] = estimate.to_dict()
    except EmptyFeasibleSet as exc:
        result["notes"].append(str(exc))
    return result


# ---------------------------------------------------------------------------
# tabulated-results report


_TABLE1_REQUIRED = ["qd", "lambda_nm", "gamma_max", "gamma_min", "nu_gamma", "nu_I"]
_TABLE1_OPTIONAL = ["gamma_max_err", "gamma_min_err", "nu_gamma_err", "nu_I_err"]

# sweep-derived values for the first emitter, quoted alongside its
# tabulated row because the two differ (wavelength and nu_I); the
# report surfaces the discrepancy instead of resolving it
QD1_SWEEP_CROSSCHECK = {"qd": 1, "lambda_nm": 923.25, "nu_I": 0.48, "nu_I_sigma": 0.01}


def read_table1_csv(path: str) -> list[dict]:
    """Parse per-emitter results (qd,lambda_nm,gamma_max,gamma_min,nu_gamma,nu_I).

    Every cell must be finite, the visibilities must lie in [0, 1],
    gamma_max >= gamma_min > 0 and the optional *_err columns must be
    positive; a row that breaks this raises MalformedRow naming the file
    and line.
    """
    rows = []
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(f"{path} line {lineno}: {exc}") from None
    with io.StringIO(text, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _TABLE1_REQUIRED if c not in header]
        if missing:
            raise MalformedRow(f"{path} line 1: missing columns {missing}")
        unknown = [c for c in header if c not in _TABLE1_REQUIRED + _TABLE1_OPTIONAL]
        if unknown:
            raise MalformedRow(f"{path} line 1: unknown columns {unknown}")
        for lineno, raw in enumerate(reader, start=2):
            row = {}
            for col in header:
                cell = raw.get(col)
                if cell is None or cell == "":
                    raise MalformedRow(f"{path} line {lineno}: empty cell in {col}")
                try:
                    row[col] = int(cell) if col == "qd" else float(cell)
                except ValueError:
                    raise MalformedRow(
                        f"{path} line {lineno}: cannot parse {col}={cell!r}"
                    ) from None
                if not math.isfinite(row[col]):
                    raise MalformedRow(f"{path} line {lineno}: {col}={cell!r} is not finite")
            for col in ("nu_I", "nu_gamma"):
                if not 0.0 <= row[col] <= 1.0:
                    raise MalformedRow(
                        f"{path} line {lineno}: {col}={row[col]} must lie in [0, 1]"
                    )
            for col in ["gamma_min", *_TABLE1_OPTIONAL]:
                if col in row and not row[col] > 0.0:
                    raise MalformedRow(
                        f"{path} line {lineno}: {col}={row[col]} must be positive"
                    )
            if not row["gamma_max"] >= row["gamma_min"]:
                raise MalformedRow(
                    f"{path} line {lineno}: gamma_max={row['gamma_max']} is below gamma_min"
                )
            rows.append(row)
    if not rows:
        raise MalformedRow(f"{path}: no data rows")
    return rows


def table1_report(rows: list[dict], profile: ModeProfile) -> dict:
    """Per-emitter contrast, bound, and feasibility report.

    For each row: the rate contrast (gamma_max - gamma_min) /
    (gamma_max + gamma_min) next to the tabulated nu_gamma with a
    1-sigma consistency flag, the centered-emitter |r_T| bound from
    nu_I, and the profile's feasible (r_T, beta_y0, y0) ranges, or
    "feasible" False with the reason in the row's notes.  The row of
    the first emitter (QD1_SWEEP_CROSSCHECK's qd) also notes how the
    sweep-derived line differs from it.
    """
    out_rows = []
    notes = []
    for row in rows:
        gmax, gmin = row["gamma_max"], row["gamma_min"]
        if not gmax >= gmin > 0:
            raise MalformedRow(f"qd {row['qd']}: need gamma_max >= gamma_min > 0")
        contrast = (gmax - gmin) / (gmax + gmin)
        err_g = row.get("nu_gamma_err", TABLE1_SIGMA_GAMMA)
        diff = contrast - row["nu_gamma"]
        entry = {
            "qd": row["qd"],
            "lambda_nm": row["lambda_nm"],
            "gamma_max": gmax,
            "gamma_min": gmin,
            "nu_gamma": row["nu_gamma"],
            "nu_gamma_err": err_g,
            "nu_I": row["nu_I"],
            "rate_contrast": contrast,
            "contrast_minus_nu_gamma": diff,
            "contrast_within_1_sigma": bool(abs(diff) <= err_g),
            "r_T_lower_bound_point": r_lower_bound(row["nu_I"]),
            "notes": [],
        }
        try:
            est = estimate_parameters(
                row["nu_I"],
                row["nu_gamma"],
                profile,
                sigma_I=row.get("nu_I_err", TABLE1_SIGMA_I),
                sigma_gamma=err_g,
            )
            entry["feasible"] = True
            entry["r_T_lower_bound"] = est.r_T_lower_bound
            entry["r_T_range"] = list(est.r_T_range)
            entry["beta_y0_range"] = list(est.beta_y0_range)
            entry["y0_range"] = list(est.y0_range)
        except EmptyFeasibleSet as exc:
            entry["feasible"] = False
            entry["notes"].append(str(exc))
        if not entry["contrast_within_1_sigma"]:
            entry["notes"].append(
                f"rate contrast {contrast:.3f} outside 1 sigma of tabulated "
                f"nu_gamma {row['nu_gamma']} +/- {err_g}"
            )
        if row["qd"] == QD1_SWEEP_CROSSCHECK["qd"]:
            entry["notes"].append(
                f"sweep-derived line at {QD1_SWEEP_CROSSCHECK['lambda_nm']} nm gives "
                f"nu_I = {QD1_SWEEP_CROSSCHECK['nu_I']} while this row tabulates "
                f"{row['nu_I']} at {row['lambda_nm']} nm; treated as the same "
                "emitter, discrepancy left unresolved"
            )
        out_rows.append(entry)
    notes.append(
        "rate contrasts are recomputed from the tabulated extremal rates; "
        "differences from the tabulated nu_gamma are flagged, not corrected"
    )
    return {"rows": out_rows, "notes": notes}
