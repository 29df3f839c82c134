"""Effective-index mode solver for a rectangular dielectric wire.

The 2D cross-section (width x thickness) is reduced to two 1D slab
problems.  The thickness direction is solved first with the in-plane
polarized slab equation, collapsing the membrane to a slab index.  The
width direction is then solved for the fundamental even mode of the
dominant transverse field, which is polarized normal to the sidewalls,
so the reduced 1D problem carries the 1/n^2 flux continuity of that
polarization.  Both steps reduce to the same transcendental equation

    u * tan(u) = R * sqrt(V^2 - u^2)

with R = 1 for the thickness step and R = (n_slab/n_clad)^2 for the
width step.

Internally the width problem is solved for the auxiliary field H(y)
(continuous across the sidewalls, equal to n^2 * e_y up to a constant).
The transverse profile returned is

    e_y(y) = H(y) / n(y)^2       (dominant transverse component)
    e_x(y) = H'(y) / (k n(y)^2)  (longitudinal component, from the
                                  divergence condition k e_x = d e_y/dy
                                  applied in flux form; central
                                  differences on the grid)

Lengths are nm, wavenumbers rad/nm.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError


class ModeSolverError(NumericalError):
    """Base class for mode-solver failures."""


class NoBoundMode(ModeSolverError):
    """The reduced slab supports no guided solution on the window."""


class GridTooCoarse(ModeSolverError):
    """The requested grid cannot represent the mode consistently."""


class OutOfRange(ModeSolverError):
    """A queried position lies outside the computed grid."""


# Lateral window extends this far beyond each sidewall (nm).
WINDOW_MARGIN_NM = 300.0
# The evanescent tail must decay by at least e^-2 inside the margin.
MIN_DECAY_LENGTHS = 2.0
DEFAULT_GRID_POINTS = 513


@dataclass(frozen=True)
class WaveguideGeometry:
    """Rectangular wire cross-section and the operating wavelength."""

    width_nm: float
    thickness_nm: float
    core_index: float
    clad_index: float
    wavelength_nm: float

    def __post_init__(self) -> None:
        if self.width_nm <= 0 or self.thickness_nm <= 0:
            raise InputError("waveguide dimensions must be positive")
        if self.clad_index < 1.0:
            raise InputError("clad_index must be >= 1")
        if self.core_index <= self.clad_index:
            raise InputError("core_index must exceed clad_index")
        if self.wavelength_nm <= 0:
            raise InputError("wavelength_nm must be positive")

    @property
    def k0(self) -> float:
        return 2.0 * np.pi / self.wavelength_nm


@dataclass
class ModeProfile:
    """Sampled fundamental mode of one geometry.

    grid : lateral positions y (nm), symmetric about 0
    e_x, e_y : real field amplitudes; the physical mode field is
        (i*e_x(y), e_y(y), 0) with max |e_y| = 1
    n_eff : effective index of the guided mode
    k : propagation constant (rad/nm)
    core_half_width : half the wire width (nm), the physical range for
        emitter offsets
    """

    grid: np.ndarray
    e_x: np.ndarray
    e_y: np.ndarray
    n_eff: float
    k: float
    core_half_width: float


def bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection down to adjacent floats.

    f(lo) and f(hi) must differ in sign (InputError otherwise).  Returns
    an exact zero if one is hit, else whichever of the two final
    neighbouring floats, between which f changes sign, has the smaller
    |f| (the upper one on a tie).
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise InputError("f does not change sign on the bracket")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo if abs(f_lo) < abs(f_hi) else hi
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def _solve_even_slab(V: float, R: float) -> float:
    """Root u of u*tan(u) = R*sqrt(V^2 - u^2) on (0, min(V, pi/2)).

    The left side grows monotonically from 0, the right side falls to 0
    at u = V, so the fundamental even mode always has exactly one root.
    """
    if V <= 0:
        raise NoBoundMode("slab V-number is not positive")

    def g(u: float) -> float:
        return u * math.tan(u) - R * math.sqrt(max(V * V - u * u, 0.0))

    lo = 1e-12
    hi = min(V, math.pi / 2.0) - 1e-12
    if hi <= lo:
        raise NoBoundMode("slab V-number too small to bracket a mode")
    try:
        return bisect_root(g, lo, hi)
    except InputError as exc:  # no sign change on the bracket
        raise NoBoundMode("no guided slab solution in bracket") from exc


@dataclass(frozen=True)
class _WidthSolution:
    n_slab: float
    n_eff: float
    beta: float
    h_t: float  # transverse wavenumber in the core
    q: float  # evanescent decay rate in the cladding
    u: float  # h_t * width/2


def _solve_width(geom: WaveguideGeometry) -> _WidthSolution:
    k0 = geom.k0
    half_t = geom.thickness_nm / 2.0
    V_t = k0 * half_t * np.sqrt(geom.core_index**2 - geom.clad_index**2)
    u_t = _solve_even_slab(V_t, 1.0)
    kappa_t = u_t / half_t
    n_slab = float(np.sqrt(geom.core_index**2 - (kappa_t / k0) ** 2))
    if n_slab <= geom.clad_index:
        raise NoBoundMode("membrane too thin to confine the mode")

    half_w = geom.width_nm / 2.0
    V_w = k0 * half_w * np.sqrt(n_slab**2 - geom.clad_index**2)
    R = (n_slab / geom.clad_index) ** 2
    u_w = _solve_even_slab(V_w, R)
    h_t = u_w / half_w
    n_eff = float(np.sqrt(n_slab**2 - (h_t / k0) ** 2))
    beta = k0 * n_eff
    q = float(np.sqrt(max(beta**2 - (k0 * geom.clad_index) ** 2, 0.0)))
    if q * WINDOW_MARGIN_NM < MIN_DECAY_LENGTHS:
        raise NoBoundMode(
            "mode too weakly confined: evanescent tail does not decay "
            "within the lateral window"
        )
    return _WidthSolution(n_slab=n_slab, n_eff=n_eff, beta=beta, h_t=h_t, q=q, u=u_w)


def _sample_auxiliary(sol: _WidthSolution, half_w: float, y: np.ndarray) -> np.ndarray:
    """Continuous auxiliary field H(y): cosine core, exponential tails."""
    inside = np.abs(y) <= half_w
    H = np.empty_like(y)
    H[inside] = np.cos(sol.h_t * y[inside])
    edge = np.cos(sol.u)
    H[~inside] = edge * np.exp(-sol.q * (np.abs(y[~inside]) - half_w))
    return H


def solve_te0(geom: WaveguideGeometry, n_points: int = DEFAULT_GRID_POINTS) -> ModeProfile:
    """Solve the fundamental even quasi-TE mode of the wire.

    Raises NoBoundMode if the geometry cannot confine the mode within
    the lateral window and GridTooCoarse if the grid undersamples the
    transverse oscillation or the evanescent decay.
    """
    if n_points < 64:
        raise InputError("n_points must be at least 64")
    sol = _solve_width(geom)

    half_w = geom.width_nm / 2.0
    y_max = half_w + WINDOW_MARGIN_NM
    y = np.linspace(-y_max, y_max, n_points)
    h = y[1] - y[0]
    if sol.h_t * h > np.pi / 4.0 or sol.q * h > 2.0:
        raise GridTooCoarse(
            "grid spacing too coarse to sample the transverse profile"
        )

    n_sq = np.where(np.abs(y) <= half_w, sol.n_slab**2, geom.clad_index**2)
    H = _sample_auxiliary(sol, half_w, y)
    e_y = H / n_sq
    e_x = np.gradient(H, h, edge_order=2) / (sol.beta * n_sq)
    scale = np.max(np.abs(e_y))
    e_y = e_y / scale
    e_x = e_x / scale
    return ModeProfile(
        grid=y,
        e_x=e_x,
        e_y=e_y,
        n_eff=sol.n_eff,
        k=sol.beta,
        core_half_width=half_w,
    )


def mode_weights(profile: ModeProfile, y0_nm: float | np.ndarray) -> tuple:
    """(wx, wy) = (|e_x(y0)|^2, |e_y(y0)|^2), linearly interpolated.

    y0_nm is one offset, giving two floats, or an array of offsets,
    giving two arrays of its shape.
    """
    y0 = np.asarray(y0_nm, dtype=float)
    outside = np.abs(y0) > profile.grid[-1]
    if np.any(outside):
        raise OutOfRange(
            f"y0 = {y0[outside].flat[0]} nm lies outside the solved window "
            f"(+-{profile.grid[-1]:.1f} nm)"
        )
    ex = np.interp(y0, profile.grid, profile.e_x)
    ey = np.interp(y0, profile.grid, profile.e_y)
    if y0.ndim == 0:
        return float(ex * ex), float(ey * ey)
    return ex * ex, ey * ey
