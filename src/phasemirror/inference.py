"""Inverse pipeline: from counts and histograms back to physics.

Three stages mirror the measurement chain in reverse: Poisson-MLE
bi-exponential lifetime fits (damped Gauss-Newton on the analytic
gradient, uncertainties from the exact observed information), one per
row of a sweep's (points x bins) counts matrix on its shared bin edges,
weighted sinusoid fits for fringe visibilities, and joint estimation of
(|r_T|, beta_y0, y0) from the visibility pair, including the
centered-emitter lower bound on |r_T|.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .emission import visibility_intensity_mixed
from .errors import InputError, NumericalError
from .modesolver import ModeProfile, mode_weights
from .synthlab import bin_midpoints, exp_bin_integrals


class NonIdentifiable(NumericalError):
    """Fitted fast and slow rates too close to separate (ratio < 1.5)."""


class NotConverged(NumericalError):
    """Fit exceeded the iteration budget without meeting tolerance."""


class InsufficientPhaseSpan(NumericalError):
    """Too few points, too narrow a 2*phi range, phases that leave the
    fringe undetermined, or a fringe whose mean is 0."""


class EmptyFeasibleSet(NumericalError):
    """No (r_T, beta_y0, y0) triple reproduces both visibilities."""


class TooFewBins(NumericalError):
    """A decay histogram has fewer than 8 bins from its peak to its end."""


class NonFiniteRate(NumericalError):
    """A lifetime fit left its radiative rate or that rate's sigma non-finite."""


class MalformedRow(InputError):
    """A tabulated-results CSV row failed to parse."""


@dataclass
class FitResult:
    """Fitted parameters with 1-sigma uncertainties and diagnostics.

    The uncertainty of a parameter along a flat (unconstrained) direction
    is None.
    """

    params: dict[str, float]
    uncertainties: dict[str, float | None]
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
    bin integral of synthlab.exp_bin_integrals, the simulator's own, so
    a histogram built from the same family is representable exactly.
    The Jacobian is one (m, p) buffer.
    """
    values = np.exp(x[:4])
    amps, gammas = values[0::2, None], values[1::2]
    E, dE = exp_bin_integrals(gammas, edges, derivative=1)
    J = np.empty((len(edges) - 1, len(x)))
    # row k of E and dE fills the columns (ln A, ln gamma) of rate k
    np.multiply(amps, E, out=J[:, 0:4:2].T)
    np.multiply(amps * gammas[:, None], dE, out=J[:, 1:4:2].T)
    mu = J[:, 0] + J[:, 2]
    if fit_background:
        try:
            bg = math.exp(x[4])
        except OverflowError:  # a trial step's floor: an infinite model, rejected
            bg = math.inf
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
    mids = bin_midpoints(edges)
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
    its Jacobian at x.  A trial step whose NLL is not finite (an
    exponential that overflows, a rate that underflows) is rejected
    like a worse one and raises the damping; the caller silences the
    floating-point warnings such trials raise.
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
            if math.isfinite(nll_try) and (nll_try <= nll or delta_max < 1e-6):
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
    d2/dlngamma2 = A gamma (E' + gamma E'') needs more: E' and E'' of
    both rates from exp_bin_integrals.
    """
    resid = 1.0 - counts / mu
    g = J.T @ resid
    H = (J * (counts / mu**2)[:, None]).T @ J
    values = np.exp(x)
    amps, gammas = values[0:4:2], values[1:4:2]
    _, dE, d2E = exp_bin_integrals(gammas, edges, derivative=2)
    curv = amps * gammas * ((dE + gammas[:, None] * d2E) @ resid)
    for k in (0, 2):
        H[k, k] += g[k]
        H[k, k + 1] += g[k + 1]
        H[k + 1, k] += g[k + 1]
        H[k + 1, k + 1] += curv[k // 2]
    if len(x) == 5:
        H[4, 4] += g[4]
    return 0.5 * (H + H.T)


def _deviance(mu: np.ndarray, counts: np.ndarray) -> float:
    c = counts
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(c > 0, c * np.log(np.where(c > 0, c, 1.0) / mu), 0.0)
    return float(2.0 * np.sum(term - (c - mu)))


@np.errstate(all="ignore")
def fit_biexponential(
    bin_edges: np.ndarray, counts: np.ndarray, fit_background: bool = False
) -> FitResult:
    """Poisson maximum-likelihood fit of a bi-exponential decay histogram.

    The histogram is its counts on bin_edges, one more edge than counts.
    Fits (A_f, gamma_f, A_s, gamma_s) and, with fit_background, a flat
    floor, starting from slope fits to the data; the window starts at
    the histogram peak so the rising edge is never modeled.  Returns derived
    gamma_rad = gamma_f - gamma_s and gamma_nrad ~= gamma_s with
    propagated uncertainties.

    The fit raises no floating-point warning: rejected trial steps may
    overflow, and a parameter at an end of the float range (a rate that
    underflowed to 0 along a flat direction, a gamma_f whose square
    overflows, an A_f at 0) makes a derived value inf or nan, which the
    caller checks; analyze_sweep reports a non-finite rate or rate sigma
    as NonFiniteRate.
    """
    edges = np.asarray(bin_edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
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
    # a fast decay that has ended by the window's first inner edge leaves
    # only its count in the first bin to fit, and gamma_f runs off
    if math.exp(-gf * edges_w[1]) == 0.0:
        raise NonIdentifiable(f"fast rate {gf:.3g} /ns decays within the first bin")
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
    params = {n: float(v) for n, v in zip(names, values)}
    # a variance that is not positive marks a flat (unconstrained) direction
    uncertainties = {
        n: float(v) * math.sqrt(var) if var > 0 else None
        for n, v, var in zip(names, values, np.diag(cov).tolist())
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
    if counts.sum() < 1000:
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
    if len(set(np.mod(2.0 * phi, 2.0 * math.pi).tolist())) < 3:
        raise InsufficientPhaseSpan("fewer than 3 distinct 2*phi mod 2*pi: fringe undetermined")
    s = np.asarray(sigmas, dtype=float)
    if np.any(s <= 0):
        raise InputError("sigmas must be positive")
    w = 1.0 / s**2
    X = np.stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)], axis=1)
    A = (X * w[:, None]).T @ X
    b = (X * w[:, None]).T @ val
    try:
        coef = np.linalg.solve(A, b)
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError:  # distinct angles so close that A rounds to singular
        raise InsufficientPhaseSpan("the phases leave the fringe undetermined") from None
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
    if m == 0.0:  # every value 0, as in a fringe of no counts
        raise InsufficientPhaseSpan("the fringe's mean is 0: its visibility is undefined")
    nu = amp / m
    # delta method for nu and theta from the linear-parameter covariance;
    # with no amplitude theta is unconstrained, and its sigma None
    sigma_theta = None
    if amp > 0:
        j_nu = np.array([-amp / m**2, ca / (amp * m), cb / (amp * m)])
        var_nu = float(j_nu @ cov @ j_nu)
        j_th = np.array([0.0, cb / amp**2, -ca / amp**2])
        sigma_theta = math.sqrt(max(float(j_th @ cov @ j_th), 0.0))
    else:
        var_nu = float(cov[1, 1] + cov[2, 2]) / m**2
    params = {"mean": m, "amplitude": amp, "theta": theta}
    uncertainties = {
        "mean": float(math.sqrt(max(cov[0, 0], 0.0))),
        "amplitude": float(math.sqrt(max(var_nu, 0.0))) * abs(m),
        "theta": sigma_theta,
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
# visibility-based parameter estimation


@dataclass(frozen=True)
class VisibilityEstimate:
    """Joint (|r_T|, beta_y0, y0) information from a visibility pair.

    r_T_lower_bound_point inverts the intensity visibility for a
    centered emitter; r_T_lower_bound applies the same inversion at
    nu_I minus N_SIGMA uncertainties so it lower-bounds every member
    of the feasible set.  feasible_slices holds one row
    (y0, r_lo, r_hi, beta_lo, beta_hi) per offset with a feasible
    point: the |r_T| interval and beta_y0 range of the (r_T, beta_y0)
    pairs there consistent with both measured visibilities.
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
    feasible_slices: tuple[tuple[float, float, float, float, float], ...]

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
            "feasible_slices": [list(s) for s in self.feasible_slices],
        }


def _invert_intensity(u):
    # the r in [0, 1] with 2r/(1 + r^2) = u, for a float or an array u in
    # [0, 1], in the form that avoids cancellation at small u
    return u / (1.0 + np.sqrt(np.maximum(1.0 - u * u, 0.0)))


def r_lower_bound(nu_I: float) -> float:
    """Invert nu = 2r/(1+r^2) for the smallest consistent |r_T|.

    A lateral offset only reduces the intensity visibility, so the
    centered-emitter inversion (1 - sqrt(1 - nu^2)) / nu bounds |r_T|
    from below.  Strictly increasing on (0, 1).  Evaluated in the
    equivalent form nu / (1 + sqrt(1 - nu^2)), which avoids cancellation
    at small nu and stays monotone in floating point.
    """
    if not 0.0 <= nu_I <= 1.0:
        raise InputError(f"visibility must lie in [0, 1], got {nu_I}")
    return float(_invert_intensity(nu_I))


# a feasible point lies within N_SIGMA sigmas of both visibilities; the
# desk-scale sigmas are the defaults and the floors of a sweep's fitted ones
N_SIGMA = 2.0
SIGMA_FLOOR_I = 0.03
SIGMA_FLOOR_GAMMA = 0.05
# sigmas of a tabulated row without its nu_I_err or nu_gamma_err column
TABLE1_SIGMA_I = 0.05
TABLE1_SIGMA_GAMMA = 0.04
# the offsets of the feasible slices, from the center to the core edge
Y0_POINTS = 201


def estimate_parameters(
    nu_I: float,
    nu_gamma: float,
    profile: ModeProfile,
    sigma_I: float = SIGMA_FLOOR_I,
    sigma_gamma: float = SIGMA_FLOOR_GAMMA,
    theta_offset: float = math.nan,
) -> VisibilityEstimate:
    """Bound (r_T, beta_y0, y0) by a measured visibility pair, offset by offset.

    A point is feasible when its predicted intensity and rate
    visibilities both lie within N_SIGMA sigmas of the measurement.  The
    intensity model (emission.visibility_intensity_mixed) rises along r_T
    to f = |wy - wx| / (wy + wx), so it passes on one |r_T| interval per
    offset.  The rate model, the rate-weighted two-dipole average with
    both dipole rates scaled by the local mode weights (beta_y0 is the
    center value), rises along beta_y0 from 0 to r_T f, so some beta_y0
    passes where r_T f >= nu_gamma - tol; the smallest passing beta_y0
    lies at the interval's top and the largest at its bottom.  Both
    models invert in closed form, at each of Y0_POINTS offsets.
    """
    for name, val in (("nu_I", nu_I), ("nu_gamma", nu_gamma)):
        if not 0.0 <= val <= 1.0:
            raise InputError(f"{name} must lie in [0, 1], got {val}")
    for name, val in (("sigma_I", sigma_I), ("sigma_gamma", sigma_gamma)):
        if not (math.isfinite(val) and val > 0):
            raise InputError(f"{name} must be positive and finite, got {val}")

    y0s = np.linspace(0.0, profile.core_half_width, Y0_POINTS)
    wx, wy = mode_weights(profile, y0s)
    d, s = np.abs(wy - wx), wy + wx
    c = 2.0 * mode_weights(profile, 0.0)[1]
    lo_i, hi_i = max(nu_I - N_SIGMA * sigma_I, 0.0), nu_I + N_SIGMA * sigma_I
    lo_g, hi_g = nu_gamma - N_SIGMA * sigma_gamma, nu_gamma + N_SIGMA * sigma_gamma

    # f is the intensity model at r_T = 1; where f = 0 both models give 0
    # for every r_T and beta_y0, so all of them pass there or none does
    f = visibility_intensity_mixed(1.0, (wx, wy))
    fringe = f > 0.0
    f_safe = np.where(fringe, f, 1.0)
    r_lo = np.where(fringe, _invert_intensity(np.minimum(lo_i / f_safe, 1.0)), 0.0)
    r_hi = np.where(fringe, _invert_intensity(np.minimum(hi_i / f_safe, 1.0)), 1.0)
    r_lo = np.maximum(r_lo, lo_g / f_safe)
    keep = (lo_i <= f) & (fringe | (lo_g <= 0.0)) & (r_lo <= r_hi)
    if not keep.any():
        raise EmptyFeasibleSet(
            f"no (r_T, beta_y0, y0) reproduces nu_I={nu_I} and nu_gamma={nu_gamma} "
            f"within {N_SIGMA} sigma"
        )
    y0s, d, s, r_lo, r_hi = y0s[keep], d[keep], s[keep], r_lo[keep], r_hi[keep]
    # with c twice the center y weight, r b d / (b s + c (1 - b)) = t at
    # b = t c / (r d - t (s - c)); beta_y0 reaches 1 below nu_gamma + tol
    # where r d <= t s, as at r_T = 0 or f = 0
    beta_lo = np.zeros_like(r_hi)
    if lo_g > 0.0:
        beta_lo = np.minimum(lo_g * c / (r_hi * d - lo_g * (s - c)), 1.0)
    top = r_lo * d
    beta_hi = np.ones_like(top)
    np.divide(hi_g * c, top - hi_g * (s - c), out=beta_hi, where=top > hi_g * s)
    slices = np.column_stack((y0s, r_lo, r_hi, beta_lo, beta_hi))
    return VisibilityEstimate(
        nu_I=nu_I,
        nu_I_sigma=sigma_I,
        nu_gamma=nu_gamma,
        nu_gamma_sigma=sigma_gamma,
        theta_offset=theta_offset,
        r_T_lower_bound=r_lower_bound(lo_i),
        r_T_lower_bound_point=r_lower_bound(nu_I),
        r_T_range=(float(r_lo.min()), float(r_hi.max())),
        beta_y0_range=(float(beta_lo.min()), float(beta_hi.max())),
        y0_range=(float(y0s[0]), float(y0s[-1])),
        feasible_slices=tuple(map(tuple, slices.tolist())),
    )


# ---------------------------------------------------------------------------
# sweep-level analysis


def analyze_sweep(
    phases: np.ndarray,
    intensity_counts: np.ndarray,
    bin_edges: np.ndarray,
    hist_counts: np.ndarray,
    profile: ModeProfile,
    histogram_names: list[str],
    fit_background: bool = False,
) -> dict:
    """Full inverse chain on one sweep: fits, visibilities, estimate.

    Fits the intensity fringe (Poisson sigmas, sqrt of the counts
    floored at 1), fits every histogram (a row of hist_counts on
    bin_edges) for its radiative rate, fits the rate fringe weighted by
    the rate sigmas, and bounds the
    profile's feasible parameter set using the fitted visibilities
    with the desk-scale floors SIGMA_FLOOR_I and SIGMA_FLOOR_GAMMA on
    the uncertainties; an empty feasible set leaves "estimate" None
    and says why in "notes".  fit_background adds a flat floor to every
    lifetime fit, for histograms recorded with one.
    A failing lifetime fit, or one whose rate or rate sigma is not finite
    (NonFiniteRate), raises an error prefixed with the histogram's name
    from histogram_names.
    """
    phases = np.asarray(phases, dtype=float)
    counts = np.asarray(intensity_counts, dtype=float)
    intensity_fit = fit_sinusoid(phases, counts, np.sqrt(np.maximum(counts, 1.0)))

    rate_fits = []
    for name, row in zip(histogram_names, hist_counts, strict=True):
        try:
            fit = fit_biexponential(bin_edges, row, fit_background)
        except NumericalError as exc:
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
    positive.  Each column appears once and every row has one cell per
    column.  A table that breaks this raises MalformedRow naming the
    file and line.
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
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _TABLE1_REQUIRED if c not in header]
        if missing:
            raise MalformedRow(f"{path} line 1: missing columns {missing}")
        unknown = [c for c in header if c not in _TABLE1_REQUIRED + _TABLE1_OPTIONAL]
        if unknown:
            raise MalformedRow(f"{path} line 1: unknown columns {unknown}")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            raise MalformedRow(f"{path} line 1: repeated columns {repeated}")
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue  # a blank line
            if len(cells) != len(header):
                raise MalformedRow(
                    f"{path} line {lineno}: expected {len(header)} columns, got {len(cells)}"
                )
            row = {}
            for col, cell in zip(header, cells):
                if cell == "":
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
                f"nu_I = {QD1_SWEEP_CROSSCHECK['nu_I']} +/- "
                f"{QD1_SWEEP_CROSSCHECK['nu_I_sigma']} while this row tabulates "
                f"{row['nu_I']} at {row['lambda_nm']} nm; treated as the same "
                "emitter, discrepancy left unresolved"
            )
        out_rows.append(entry)
    notes.append(
        "rate contrasts are recomputed from the tabulated extremal rates; "
        "differences from the tabulated nu_gamma are flagged, not corrected"
    )
    return {"rows": out_rows, "notes": notes}
