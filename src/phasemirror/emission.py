"""Phase-controlled spontaneous emission in a one-sided waveguide.

The emitter at distance L from a mirror of lumped reflectivity
r_T = |r_T| e^{i 2 phi} sees its own field reflected back, which is
equivalent to an image dipole at distance 2L.  The 1D scalar Green's
function G0(x, x') = (i/2k) e^{ik|x-x'|} gives the decay-rate
modulation

    Gamma(phi) = gamma_d0 (1 +/- |r_T| Im{e^{i 2 phi} G0(0, 2L)}
                                   / Im G0(0, 0)) + gamma_b
               = gamma_d0 (1 +/- |r_T| cos(2 phi + theta)) + gamma_b

with theta = 2kL, sign + for a dipole along the waveguide axis (X)
and - for the transverse dipole (Y).  `fringe` evaluates that ratio
for the rates and the collected intensity alike; the visibilities and
the offset-dependent two-dipole averages follow from the same factor.

Units are fixed: rates in 1/ns, lengths in nm, phases in rad.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .modesolver import ModeProfile, mode_weights


class ReflectivityOutOfRange(InputError):
    """|r_T| outside [0, 1]."""


class DipoleOrientation(enum.Enum):
    """Dipole axis; X couples with + sign, Y with - in every formula."""

    X = "x"
    Y = "y"
    AVERAGED_BOTH = "averaged_both"


_SIGN = {DipoleOrientation.X: +1.0, DipoleOrientation.Y: -1.0}


@dataclass(frozen=True)
class EmitterScene:
    """Emitter position, intrinsic rates, and mirror distance.

    gamma_x0 / gamma_y0 are the one-dimensional guided-mode decay
    rates of the two dipoles without a mirror, gamma_b the leaky-mode
    rate shared by both, gamma_nrad the non-radiative rate (excluded
    from rate visibilities, optional in total rates).  theta = 2 k L
    is always derived, never stored.
    """

    y0: float
    L: float
    k: float
    gamma_x0: float
    gamma_y0: float
    gamma_b: float
    gamma_nrad: float

    def __post_init__(self) -> None:
        if self.L < 0:
            raise InputError("mirror distance must be non-negative")
        if self.k <= 0:
            raise InputError("propagation constant must be positive")
        for name in ("gamma_x0", "gamma_y0", "gamma_b", "gamma_nrad"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative")

    @property
    def theta(self) -> float:
        return 2.0 * self.k * self.L


def scalar_green(x: float, x_src: float, k: float) -> complex:
    """1D scalar Green's function (i/2k) e^{ik|x - x_src|}."""
    if k <= 0:
        raise InputError("propagation constant must be positive")
    return 1j / (2.0 * k) * np.exp(1j * k * abs(x - x_src))


def _check_reflectivity(r_T_mag: float | np.ndarray) -> None:
    r = np.asarray(r_T_mag)
    bad = ~((0.0 <= r) & (r <= 1.0))
    if bad.any():
        raise ReflectivityOutOfRange(f"|r_T| must lie in [0, 1], got {r[bad].flat[0]}")


def fringe(phi: float, k: float, L: float) -> float:
    """The image-dipole fringe cos(2 phi + theta), theta = 2kL.

    Evaluated as the Green's-function ratio Im{e^{i 2 phi} G0(0, 2L)} /
    Im G0(0, 0), which never forms 2 phi + theta: that sum rounds at its
    own ulp (~2.3e-13 at theta ~ 1e3), the ratio only at theta's.  phi
    may be an array of phases, each giving the bits of a scalar call.
    """
    g_image = scalar_green(0.0, 2.0 * L, k)
    g_self = scalar_green(0.0, 0.0, k)
    # Im{e g} in real arithmetic: numpy's complex multiply rounds an array
    # differently from one number, these products round the same for both
    e = np.exp(2j * phi)
    return (e.real * g_image.imag + e.imag * g_image.real) / g_self.imag


def decay_rate(
    scene: EmitterScene,
    r_T_mag: float,
    phi: float,
    dip: DipoleOrientation,
    include_nonradiative: bool = False,
) -> float:
    """Total decay rate Gamma(phi) in 1/ns.

    Single dipoles follow gamma_d0 * (1 +/- |r_T| cos(2 phi + theta))
    + gamma_b, with one `fringe` evaluation per call.  The averaged
    orientation returns the mean of the two single-dipole rates, the
    effective rate under non-resonant excitation that populates both
    transitions equally.
    """
    _check_reflectivity(r_T_mag)
    c = fringe(phi, scene.k, scene.L)
    extra = scene.gamma_nrad if include_nonradiative else 0.0

    def single(axis: DipoleOrientation):
        gamma_d0 = scene.gamma_x0 if axis is DipoleOrientation.X else scene.gamma_y0
        return gamma_d0 * (1.0 + _SIGN[axis] * r_T_mag * c) + scene.gamma_b

    if dip is DipoleOrientation.AVERAGED_BOTH:
        return 0.5 * (single(DipoleOrientation.X) + single(DipoleOrientation.Y)) + extra
    return single(dip) + extra


def intensity(
    scene: EmitterScene,
    weights: tuple[float, float],
    r_T_mag: float,
    phi: float,
    dip: DipoleOrientation,
) -> float:
    """Collected intensity relative to the no-mirror emitter.

    Single dipole: I/I0 = (1 + r^2 +/- 2 r cos(2 phi + theta)) / 2.
    Averaged: the mode weights (wx, wy) at the emitter offset mix the
    two single-dipole intensities, whose fringes, one `fringe`
    evaluation per call, carry opposite signs.
    """
    _check_reflectivity(r_T_mag)
    c = fringe(phi, scene.k, scene.L)

    def single(axis: DipoleOrientation):
        return 0.5 * (1.0 + r_T_mag**2 + _SIGN[axis] * 2.0 * r_T_mag * c)

    if dip is DipoleOrientation.AVERAGED_BOTH:
        wx, wy = weights
        return wx * single(DipoleOrientation.X) + wy * single(DipoleOrientation.Y)
    return single(dip)


def visibility_intensity(r_T_mag: float | np.ndarray) -> float | np.ndarray:
    """Single-dipole intensity fringe visibility 2r / (1 + r^2).

    r may be an array of reflectivities, each giving the bits of a
    scalar call.
    """
    _check_reflectivity(r_T_mag)
    return 2.0 * r_T_mag / (1.0 + r_T_mag * r_T_mag)


def visibility_intensity_mixed(
    r_T_mag: float | np.ndarray, weights: tuple[float, float]
) -> float | np.ndarray:
    """Two-dipole intensity visibility reduced by the mode-weight factor.

    Multiplies 2r/(1+r^2) by |wy - wx| / (wy + wx) where (wx, wy) are
    the squared mode amplitudes at the emitter offset, two floats or two
    arrays over offsets; a column of reflectivities against arrays of
    weights gives the (r, offset) plane.
    """
    wx, wy = weights
    return visibility_intensity(r_T_mag) * (abs(wy - wx) / (wy + wx))


def _extremal_phases(theta: float) -> tuple[float, float]:
    # cos(2 phi + theta) = +1 at phi = -theta/2 (mod pi), = -1 half a
    # fringe later; wrapped into [0, pi).
    phi_plus = (-theta / 2.0) % math.pi
    phi_minus = (phi_plus + math.pi / 2.0) % math.pi
    return phi_plus, phi_minus


N_PHI = 201  # phases of figure1c_curves over one fringe period
N_OFFSETS = 201  # lateral offsets of figure1d_curves across the core


def figure1c_curves(
    scene: EmitterScene,
    weights: tuple[float, float],
    r_T_mag: float,
    dip: DipoleOrientation = DipoleOrientation.Y,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase sweep as columns (phi, total rate, relative intensity).

    The grid covers one fringe period [0, pi) and always includes the
    two phases where cos(2 phi + theta) = +/-1, so the tabulated curve
    attains the analytic extrema exactly.  Each value has the bits of
    the scalar decay_rate or intensity call at its phase.
    """
    phis = set(np.linspace(0.0, math.pi, N_PHI, endpoint=False).tolist())
    phis.update(_extremal_phases(scene.theta))
    phis = np.array(sorted(phis))
    gammas = decay_rate(scene, r_T_mag, phis, dip)
    return phis, gammas, intensity(scene, weights, r_T_mag, phis, dip)


def figure1d_curves(
    profile: ModeProfile,
    scene: EmitterScene,
    r_T_mag: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offset sweep as columns (y0, nu_I, nu_gamma) across the waveguide width.

    Intensity visibility uses the mode-weight reduction.  Rate
    visibility is the averaged-dipole beta difference with equal rate
    weights (the two total rates differ only slightly with offset),
    |beta_x - beta_y| r / 2, with beta factors built from the shared
    gamma_b and offset-scaled rates: both dipole rates follow the local
    mode weights, with one constant anchoring the y-dipole rate at the
    waveguide centre to scene.gamma_y0.  At the centre this reduces to
    beta_y0 r / 2.
    """
    half = profile.core_half_width
    y0 = np.linspace(-half, half, N_OFFSETS)
    wx, wy = mode_weights(profile, y0)
    nu_i = visibility_intensity_mixed(r_T_mag, (wx, wy))
    scale = scene.gamma_y0 / mode_weights(profile, 0.0)[1]
    # beta is 0 where the rate is 0: with gamma_b = 0 the quotient would
    # be 0/0 at the centre, where e_x vanishes
    beta_x, beta_y = (
        np.divide(g, g + scene.gamma_b, out=np.zeros_like(g), where=g != 0.0)
        for g in (scale * wx, scale * wy)
    )
    return y0, nu_i, abs(beta_x - beta_y) / 2.0 * r_T_mag
