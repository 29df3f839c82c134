"""Mirror reflectivity: lumped loss chain and 1D transfer-matrix stack.

The emitter sees a single lumped complex reflection

    r_T = |t_phi|^2 |t_wg|^2 |r_M| exp(i 2 phi)

where |t_phi|^2 is the phase-shifter power transmittivity, |t_wg|^2 the
waveguide power transmittivity over the emitter-mirror-emitter path,
|r_M| the mirror modal reflectivity magnitude, and phi the one-way
tunable phase.  The photonic-crystal mirror itself is modeled at normal
incidence with 2x2 characteristic matrices, one period being
[unetched/2, hole, unetched/2] so the stack is symmetric; the
N-period mirror is the period matrix raised to the N-th power (Abeles;
Yeh, Optical Waves in Layered Media, 1988), for all wavelengths at once.
A sweep holds each matrix as its four entries, four arrays over
wavelength, multiplied entry by entry.  The tests check it against a
per-layer 2x2 `@` product in `tests/oracles.py`.

The power reflectivity R = |r|^2 is exact only to about 1e-15 absolute:
deep in the stopband of a long mirror rounding can put it just above 1
(1.0000000000000009 at 48 holes).  It is reported as computed, not
clamped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class MirrorChain:
    """Lumped one-sided termination seen by the emitter.

    t_phi_sq and t_wg_sq are power transmittivities in [0, 1]; r_M_mag
    is the mirror reflectivity magnitude in [0, 1].  The shifter's phase
    phi turns r_T but leaves its magnitude.
    """

    t_phi_sq: float
    t_wg_sq: float
    r_M_mag: float

    def __post_init__(self) -> None:
        for name in ("t_phi_sq", "t_wg_sq", "r_M_mag"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {val}")

    @property
    def magnitude(self) -> float:
        """|r_T|, independent of phi."""
        return self.t_phi_sq * self.t_wg_sq * self.r_M_mag


@dataclass(frozen=True)
class PhotonicCrystalSpec:
    """Periodically etched waveguide section acting as the mirror."""

    n_holes: int
    pitch_nm: float
    hole_radius_nm: float
    n_unetched: float
    n_hole: float
    termination_index: float

    def __post_init__(self) -> None:
        if self.n_holes < 0:
            raise InputError("n_holes must be non-negative")
        if self.pitch_nm <= 0 or self.hole_radius_nm < 0:
            raise InputError("pitch and hole radius must be positive")
        if 2.0 * self.hole_radius_nm >= self.pitch_nm:
            raise InputError("hole diameter must be smaller than the pitch")
        for name in ("n_unetched", "n_hole", "termination_index"):
            if getattr(self, name) < 1.0:
                raise InputError(f"{name} must be >= 1")

    @property
    def bragg_wavelength_nm(self) -> float:
        """First-order Bragg center 2 * n_avg * pitch."""
        return 2.0 * self.average_index * self.pitch_nm

    @property
    def average_index(self) -> float:
        hole = 2.0 * self.hole_radius_nm
        return (hole * self.n_hole + (self.pitch_nm - hole) * self.n_unetched) / self.pitch_nm


# A 2x2 matrix as its entries (m11, m12, m21, m22); in a sweep each is an
# array over wavelength.
_Entries = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _layer_entries(n: float, d_nm: float, wavelengths_nm: np.ndarray) -> _Entries:
    """Entries of the characteristic matrix of one homogeneous layer."""
    delta = 2.0 * np.pi / wavelengths_nm * n * d_nm
    c, s = np.cos(delta).astype(complex), np.sin(delta)
    return c, 1j * s / n, 1j * n * s, c


def _product(a: _Entries, b: _Entries) -> _Entries:
    """The 2x2 matrix product a @ b at every wavelength, entry by entry."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (
        a11 * b11 + a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a21 * b12 + a22 * b22,
    )


def _power(m: _Entries, power: int) -> _Entries:
    """m**power at every wavelength, by repeated squaring."""
    result = None
    while power:
        if power & 1:
            result = m if result is None else _product(result, m)
        power >>= 1
        if power:
            m = _product(m, m)
    if result is None:
        one, zero = np.ones_like(m[0]), np.zeros_like(m[0])
        return one, zero, zero, one
    return result


def _coefficients(m: _Entries, n: float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude (r, t) at every wavelength from the entries of the
    characteristic matrix of a stack with index n on both sides."""
    m11, m12, m21, m22 = m
    denom = (m11 + m12 * n) * n + (m21 + m22 * n)
    r = ((m11 + m12 * n) * n - (m21 + m22 * n)) / denom
    t = 2.0 * n / denom
    return r, t


def _crystal_reflectivity(spec: PhotonicCrystalSpec, wavelengths_nm: np.ndarray) -> np.ndarray:
    """r_M at each wavelength: the period matrices raised to n_holes (Abeles)."""
    # the period [u/2, hole, u/2] begins and ends with the same layer
    hole_len = 2.0 * spec.hole_radius_nm
    u_half = (spec.pitch_nm - hole_len) / 2.0
    half = _layer_entries(spec.n_unetched, u_half, wavelengths_nm)
    hole = _layer_entries(spec.n_hole, hole_len, wavelengths_nm)
    period = _product(_product(half, hole), half)
    r, _ = _coefficients(_power(period, spec.n_holes), spec.termination_index)
    return r


def tmm_reflectivity(spec: PhotonicCrystalSpec, wavelength_nm: float) -> complex:
    """Complex modal reflection r_M of the etched mirror section."""
    if wavelength_nm <= 0:
        raise InputError("wavelength must be positive")
    return complex(_crystal_reflectivity(spec, np.array([wavelength_nm], dtype=float))[0])


def reflectivity_sweep(
    spec: PhotonicCrystalSpec, wavelengths_nm: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (lambda, r, |r|^2) over a wavelength grid."""
    lams = np.asarray(wavelengths_nm, dtype=float)
    r = _crystal_reflectivity(spec, lams)
    # Python's float ** 2 (C pow) of np.hypot, which is Python's abs():
    # numpy's x * x differs from pow in the last bit on some values
    power = np.array([m**2 for m in np.hypot(r.real, r.imag).tolist()], dtype=float)
    return lams, r, power


def waveguide_transmission(loss_db_per_mm: float, length_nm: float) -> float:
    """One-way power transmittivity of a lossy waveguide stretch."""
    if loss_db_per_mm < 0 or length_nm < 0:
        raise InputError("loss and length must be non-negative")
    loss_db = loss_db_per_mm * length_nm * 1e-6
    return 10.0 ** (-loss_db / 10.0)
