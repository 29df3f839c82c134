"""Reference implementations that the tests check the package against.

Each function here is a second, plainer route to a quantity that
`phasemirror` computes once, kept out of the package because no command
uses it:

- the lumped reflection r_T = |r_T| e^{2 i phi} of a mirror chain at a
  shifter phase;
- the per-layer transfer-matrix product of a mirror stack (one 2x2 `@`
  per layer and wavelength) and the (r, t) it gives, against which the
  sweep's repeated squaring of the period matrix is checked;
- the analytic gradient of the Poisson negative log-likelihood, checked
  against finite differences and used to build a reference Hessian;
- the bulk residual of the discrete Helmholtz operator on a solved mode;
- the closed-form rate factor 1 +/- |r_T| cos(2 phi + theta), against
  which the Green's-function ratio is checked;
- the exponential bin integral and its rate derivative, one rate at a
  time in the package's float arithmetic (checked bit for bit) and in
  long double by series and closed forms the package does not use
  (checked for accuracy);
- a decay model's parameters, and one histogram's bin edges and counts,
  as validated bundles that the tests build their inputs from;
- the expected counts of one decay histogram, one rate at a time and
  math.erfc at every bin, against which the sweep's blocks of rates are
  checked bit for bit;
- one sweep point's histogram, expected or Poisson-sampled, from the
  simulator's own expectation of that point alone: `generate_sweep`
  must give each point this histogram bit for bit, whichever block of
  points it computes it in;
- the centered-emitter approximation of the rate visibility, and the
  two visibilities of `fig1d` at one offset, one float at a time:
  `figure1d_curves` must give every offset these bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from phasemirror.config import DEFAULT_CONFIG, RunConfig
from phasemirror.emission import DipoleOrientation
from phasemirror.inference import biexp_model
from phasemirror.modesolver import ModeProfile, WaveguideGeometry, _solve_width, mode_weights
from phasemirror.opticalstack import MirrorChain, PhotonicCrystalSpec
from phasemirror.synthlab import _expectation, _rng

# the default config's sweep; its acquisition window gives the bins of a
# histogram built without its own
DEFAULT_SWEEP = RunConfig.from_dict(DEFAULT_CONFIG).sweep
DEFAULT_EDGES = DEFAULT_SWEEP.bin_edges()

# ---------------------------------------------------------------------------
# transfer matrices


def lumped_reflection(chain: MirrorChain, phi: float) -> complex:
    """Complex lumped reflection r_T = |r_T| exp(i 2 phi) at one-way phase phi."""
    return chain.magnitude * np.exp(2j * phi)


def segment_layout(spec: PhotonicCrystalSpec) -> tuple[np.ndarray, np.ndarray]:
    """(indices, lengths) of the stack, one period = [u/2, hole, u/2]."""
    hole = 2.0 * spec.hole_radius_nm
    u_half = (spec.pitch_nm - hole) / 2.0
    indices = np.array([spec.n_unetched, spec.n_hole, spec.n_unetched], dtype=float)
    lengths = np.array([u_half, hole, u_half], dtype=float)
    return np.tile(indices, spec.n_holes), np.tile(lengths, spec.n_holes)


def layer_matrix(n: float, d_nm: float, wavelength_nm: float) -> np.ndarray:
    """Characteristic matrix of one homogeneous layer (normal incidence)."""
    delta = 2.0 * np.pi / wavelength_nm * n * d_nm
    c, s = np.cos(delta), np.sin(delta)
    return np.array([[c, 1j * s / n], [1j * n * s, c]], dtype=complex)


def stack_matrix(indices: np.ndarray, lengths: np.ndarray, wavelength_nm: float) -> np.ndarray:
    """Product of the layer matrices, first layer on the left."""
    M = np.eye(2, dtype=complex)
    for n, d in zip(indices, lengths):
        M = M @ layer_matrix(float(n), float(d), wavelength_nm)
    return M


def stack_coefficients(
    indices: np.ndarray,
    lengths: np.ndarray,
    n_in: float,
    n_out: float,
    wavelength_nm: float,
) -> tuple[complex, complex]:
    """Amplitude (r, t) of a lossless layer sequence between two media.

    Power conservation reads |r|^2 + (n_out/n_in) |t|^2 = 1.
    """
    (m11, m12), (m21, m22) = stack_matrix(indices, lengths, wavelength_nm)
    b, c = m11 + m12 * n_out, m21 + m22 * n_out
    denom = n_in * b + c
    return complex((n_in * b - c) / denom), complex(2.0 * n_in / denom)


# ---------------------------------------------------------------------------
# lifetime fits


def poisson_nll_gradient(x: np.ndarray, edges: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Analytic gradient of the negative log-likelihood in log-params."""
    mu, J = biexp_model(x, edges)
    return J.T @ (1.0 - counts / mu)


# ---------------------------------------------------------------------------
# mode solver


def helmholtz_residual(profile: ModeProfile, geom: WaveguideGeometry) -> float:
    """Relative residual of the discrete Helmholtz operator on the mode.

    The solver's discretization is exact for piecewise-constant index:
    within each homogeneous run the auxiliary field obeys the
    three-point relation H[i-1] + H[i+1] = 2 cos(kappa h) H[i] (cosh for
    evanescent segments).  The residual of that operator, normalized by
    the eigenvalue term beta^2 h^2 H, measures how well the returned
    profile solves the discrete problem.  Nodes whose stencil straddles
    a sidewall are excluded because the interface matching belongs to
    the jump conditions, not the bulk operator.
    """
    y = profile.grid
    h = y[1] - y[0]
    beta = profile.k

    inside = np.abs(y) <= profile.core_half_width
    n_slab = _solve_width(geom).n_slab
    n_sq = np.where(inside, n_slab**2, geom.clad_index**2)
    H = n_sq * profile.e_y

    kappa_sq = geom.k0**2 * n_sq - beta**2
    root = np.sqrt(np.abs(kappa_sq)) * h
    c = np.where(kappa_sq >= 0, np.cos(root), np.cosh(root))

    same_region = (inside[:-2] == inside[2:]) & (inside[:-2] == inside[1:-1])
    idx = np.where(same_region)[0] + 1
    r = H[idx - 1] + H[idx + 1] - 2.0 * c[idx] * H[idx]
    eig_term = (beta * h) ** 2 * H[idx]
    return float(np.linalg.norm(r) / np.linalg.norm(eig_term))


# ---------------------------------------------------------------------------
# emission


def rate_modulation(r_T_mag: float, phi: float, theta: float, dip: DipoleOrientation) -> float:
    """Closed-form rate factor 1 +/- |r_T| cos(2 phi + theta), + for X, - for Y."""
    sign = {DipoleOrientation.X: 1.0, DipoleOrientation.Y: -1.0}[dip]
    return 1.0 + sign * r_T_mag * math.cos(2.0 * phi + theta)


# ---------------------------------------------------------------------------
# decay histograms


@dataclass(frozen=True)
class ExcitonModel:
    """Bi-exponential decay: fast bright transition plus slow dark tail.

    amp_ratio is A_s/A_f in density units; background is a flat
    counts-per-bin floor.  gamma_f == gamma_s is allowed (a degenerate
    single exponential); identifiability is the fitter's concern.
    """

    gamma_f: float
    gamma_s: float
    amp_ratio: float = 0.05
    background: float = 0.0

    def __post_init__(self) -> None:
        if not self.gamma_f >= self.gamma_s >= 0.0:
            raise ValueError("rates must satisfy gamma_f >= gamma_s >= 0")
        if self.amp_ratio < 0 or self.background < 0:
            raise ValueError("amp_ratio and background must be non-negative")


@dataclass(frozen=True)
class DecayHistogram:
    """One histogram: bin edges, and counts (integers or expectation floats)."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.ndim != 1 or counts.ndim != 1 or len(edges) != len(counts) + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total_counts(self) -> float:
        return float(np.sum(self.counts))


def bin_integral(gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of e^{-gamma t} over each [a, b], one exp call per bin end.

    A rate below 1e-12 /ns whose gamma b stays below 2^-53 at the last
    bin gives the bin widths, the gamma -> 0 limit rounded.
    """
    if gamma < 1e-12 and gamma * b[-1] < 2.0**-53:
        return b - a
    return np.exp(-gamma * a) * (-np.expm1(-gamma * (b - a))) / gamma


def bin_integral_derivative(gamma: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d/dgamma of bin_integral; -(b^2 - a^2) / 2 below 1e-12 /ns."""
    if gamma < 1e-12:
        return -0.5 * (b - a) * (a + b)
    E = bin_integral(gamma, a, b)
    return ((b * np.exp(-gamma * b) - a * np.exp(-gamma * a)) - E) / gamma


def bin_integrals_longdouble(
    gamma: float, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, dE, d2E) of one rate over each bin, in long double.

    With z = gamma w for a bin [a, a + w],
    E = e^{-gamma a} w phi1(z), dE = -e^{-gamma a} (a w phi1(z) + w^2 phi2(z))
    and d2E = e^{-gamma a} (a^2 w phi1(z) + 2 a w^2 phi2(z) + w^3 phi3(z)),
    where phi1 = (1 - e^{-z}) / z, phi2 = (1 - (1 + z) e^{-z}) / z^2 and
    phi3 = (2 - (2 + 2z + z^2) e^{-z}) / z^3.  All three come from their
    Taylor series below z = 0.5, where the closed forms cancel, so
    gamma = 0 and gamma = 1e-300 need no special case.
    """
    t = np.asarray(edges, dtype=np.longdouble)
    g = np.longdouble(gamma)
    a, w = t[:-1], np.diff(t)
    z = g * w
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = -np.expm1(-z) / z
        phi2 = (-np.expm1(-z) - z * np.exp(-z)) / (z * z)
        phi3 = (-2 * np.expm1(-z) - (2 + z) * z * np.exp(-z)) / (z * z * z)
    near = z < 0.5
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    s3 = np.zeros_like(z)
    term = np.ones_like(z)  # (-z)^k / k!
    for k in range(40):
        s1 += term / (k + 1)
        s2 += term / (k + 2)
        s3 += term / (k + 3)
        term = term * (-z) / (k + 1)
    phi1 = np.where(near, s1, phi1)
    phi2 = np.where(near, s2, phi2)
    phi3 = np.where(near, s3, phi3)
    e_a = np.exp(-g * a)
    return (
        e_a * w * phi1,
        -e_a * (a * w * phi1 + w * w * phi2),
        e_a * (a * a * w * phi1 + 2 * a * w * w * phi2 + w * w * w * phi3),
    )


def expected_bin_counts(model, total_counts: float, edges: np.ndarray, irf_sigma=None) -> np.ndarray:
    """Expected counts of one ExcitonModel, scaled to sum to total_counts.

    Without an IRF each exponential is integrated over each bin; with
    one, the blurred density at the midpoints times the bin widths.
    """
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])

    def component(gamma: float) -> np.ndarray:
        if irf_sigma is None:
            return bin_integral(gamma, edges[:-1], edges[1:])
        arg = (irf_sigma**2 * gamma - mids) / (math.sqrt(2.0) * irf_sigma)
        erfc = np.array([math.erfc(a) for a in arg])
        return 0.5 * np.exp(irf_sigma**2 * gamma**2 / 2.0 - gamma * mids) * erfc

    shape = component(model.gamma_f) + model.amp_ratio * component(model.gamma_s)
    if irf_sigma is not None:
        shape = shape * widths
    signal_total = total_counts - model.background * len(widths)
    return shape * (signal_total / shape.sum()) + model.background


def expected_histogram(
    model: ExcitonModel,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
) -> DecayHistogram:
    """One point's noiseless expectation curve (float counts), DEFAULT_EDGES if no bins.

    The bins must be a sweep's, n_bins uniform bins from 0 to t_max_ns.
    """
    edges = np.asarray(DEFAULT_EDGES if bin_edges is None else bin_edges, dtype=float)
    sweep = replace(
        DEFAULT_SWEEP,
        hist_counts=total_counts,
        t_max_ns=float(edges[-1]),
        n_bins=len(edges) - 1,
        irf_sigma_ns=irf_sigma,
        amp_ratio=model.amp_ratio,
        background=model.background,
    )
    if sweep.bin_edges().tobytes() != edges.tobytes():
        raise ValueError("a sweep's bins are uniform from 0")
    expected = _expectation(model.gamma_s, sweep)
    return DecayHistogram(edges, expected([model.gamma_f])[0])


def generate_decay_histogram(
    model: ExcitonModel,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
    seed: int | np.random.SeedSequence = 0,
) -> DecayHistogram:
    """One point's Poisson-sampled histogram; the same seed gives the same bits."""
    mu = expected_histogram(model, total_counts, bin_edges, irf_sigma)
    return DecayHistogram(mu.bin_edges, _rng(seed).poisson(mu.counts))


# ---------------------------------------------------------------------------
# visibilities


def visibility_rate_centered(beta_y0: float, r_T_mag: float) -> float:
    """Centered-emitter approximation nu_gamma ~= beta_y0 r / 2."""
    return 0.5 * beta_y0 * r_T_mag


def figure1d_row(profile: ModeProfile, scene, r_T_mag: float, y0: float) -> tuple[float, float]:
    """(nu_I, nu_gamma) of fig1d at one offset y0.

    Both dipole rates follow the local mode weights, scaled so that the
    y-dipole rate at the centre is scene.gamma_y0; beta = G / (G +
    gamma_b) is 0 where the rate G is 0.  nu_gamma is the rate-weighted
    two-dipole average |beta_x G_x - beta_y G_y| / (G_x + G_y) r at
    equal unit rate weights, nu_I is 2r / (1 + r^2) times the weight
    factor |wy - wx| / (wy + wx).
    """
    wx, wy = mode_weights(profile, y0)
    scale = scene.gamma_y0 / mode_weights(profile, 0.0)[1]
    beta_x, beta_y = (
        g / (g + scene.gamma_b) if g != 0.0 else 0.0 for g in (scale * wx, scale * wy)
    )
    g_x = g_y = 1.0
    nu_gamma = abs(beta_x * g_x - beta_y * g_y) / (g_x + g_y) * r_T_mag
    nu_i = 2.0 * r_T_mag / (1.0 + r_T_mag * r_T_mag) * (abs(wy - wx) / (wy + wx))
    return nu_i, nu_gamma
