"""Synthetic measurement generator for phase-sweep experiments.

Reproduces the lab pipeline: a voltage-to-phase calibration, per-point
collected-intensity samples with shot noise, and time-resolved decay
histograms drawn from a bright/dark bi-exponential model whose fast
rate follows the phase-dependent radiative rate.  Every histogram of a
sweep shares the caller's bin edges, so a sweep's histograms are one
float64 counts matrix, a row per point and a column per bin, and
histograms.csv is that matrix transposed under a t_ns column of bin
midpoints.

Randomness uses counter-based Philox streams keyed by (seed, point
index), so sweep points can be generated in any order while producing
bit-identical results.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import emission
from .csvio import MalformedCSV, read_csv, read_header, write_csv
from .emission import DipoleOrientation, EmitterScene
from .errors import InputError, NumericalError


class OutOfCalibration(InputError):
    """Requested voltage outside the calibrated range."""


class CalibrationModel(enum.Enum):
    TABLE = "table"
    QUADRATIC = "quadratic"


@dataclass(frozen=True)
class PhaseCalibration:
    """Voltage-to-phase map of the actuated shifter.

    Table form interpolates linearly between strictly increasing
    voltage knots; quadratic form models electrostatic actuation as
    phi = quad_coeff * v^2 + quad_offset.
    """

    model: CalibrationModel
    table: tuple[tuple[float, float], ...] | None
    quad_coeff: float | None
    quad_offset: float
    v_range: tuple[float, float] | None

    def __post_init__(self) -> None:
        if self.model is CalibrationModel.TABLE:
            if not self.table or len(self.table) < 2:
                raise InputError("table calibration needs at least two knots")
            volts = [v for v, _ in self.table]
            phases = [p for _, p in self.table]
            if any(b <= a for a, b in zip(volts, volts[1:])):
                raise InputError("table voltages must be strictly increasing")
            diffs = [b - a for a, b in zip(phases, phases[1:])]
            if not (all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)):
                raise InputError("table phase must be monotone in voltage")
        elif self.quad_coeff is None:
            raise InputError("quadratic calibration needs quad_coeff")

    def span(self) -> tuple[float, float]:
        if self.model is CalibrationModel.TABLE:
            return self.table[0][0], self.table[-1][0]
        if self.v_range is not None:
            return self.v_range
        return -math.inf, math.inf


def phase_of_voltage(cal: PhaseCalibration, v: float) -> float:
    """Phase (rad) at a drive voltage; raises OutOfCalibration outside."""
    lo, hi = cal.span()
    if not lo <= v <= hi:
        raise OutOfCalibration(f"voltage {v} outside calibrated range [{lo}, {hi}]")
    if cal.model is CalibrationModel.TABLE:
        volts = np.array([p[0] for p in cal.table])
        phases = np.array([p[1] for p in cal.table])
        return float(np.interp(v, volts, phases))
    return cal.quad_coeff * v**2 + cal.quad_offset


def bin_midpoints(bin_edges: np.ndarray) -> np.ndarray:
    """The midpoint of each bin: the t_ns the histogram table holds."""
    edges = np.asarray(bin_edges, dtype=float)
    return 0.5 * (edges[:-1] + edges[1:])


def default_bin_edges(t_max_ns: float, n_bins: int) -> np.ndarray:
    """Uniform acquisition window, 0 to t_max in n_bins bins."""
    if t_max_ns <= 0 or n_bins < 1:
        raise InputError("need positive window and at least one bin")
    return np.linspace(0.0, t_max_ns, n_bins + 1)


def _rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    # Philox takes an int through SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def _poisson(seed: np.random.SeedSequence, lam, key: str, value: float):
    """Poisson counts of mean lam drawn from seed's stream.

    A finite mean too large for numpy is an InputError naming the config
    key that scales it; a mean that is not finite is a NumericalError.
    """
    try:
        return _rng(seed).poisson(lam)
    except ValueError as exc:  # numpy's "lam value too large", or a nan mean
        if not np.isfinite(lam).all():
            raise NumericalError(
                f"the expected counts scaled by sweep.{key} are not finite"
            ) from None
        raise InputError(
            f"sweep.{key} = {value:g}: cannot draw Poisson counts: {exc}"
        ) from None


def exp_bin_integrals(
    gammas: Sequence[float], edges: np.ndarray, derivative: int = 0
) -> np.ndarray | tuple[np.ndarray, ...]:
    """Integrals E of e^{-gamma t} over each bin, and up to two gamma-derivatives.

    derivative is the highest order returned: 0 gives E, 1 (E, dE/dgamma)
    for the lifetime fit's model and 2 (E, dE/dgamma, d2E/dgamma2) for its
    curvature.  One row per rate, one column per bin [a, b] of width
    w = b - a, all from the same exponentials e_a, e_b = e^{-gamma a},
    e^{-gamma b}:
    E = e_a (1 - e^{-gamma w}) / gamma, through expm1 so that a slow rate
    keeps its digits; dE = ((b e_b - a e_a) - E) / gamma; and, by the
    identity gamma E'' = (a^2 e_a - b^2 e_b) - 2 E',
    d2E = ((a^2 e_a - b^2 e_b) - 2 dE) / gamma.  A rate below 1e-12 /ns
    takes the gamma -> 0 limits of dE and d2E, -(b^2 - a^2) / 2 and
    (b^3 - a^3) / 3, where their differences cancel; E keeps its expm1
    form down to gamma t < 2^-53 at the last edge, below which w is E
    correctly rounded.  The simulator and the lifetime fit both
    integrate through this function.
    """
    g = np.asarray(gammas, dtype=float)
    a, b = edges[:-1], edges[1:]
    width = b - a
    small = g < 1e-12
    limit = True in small.tolist()  # cheaper than small.any() for the fit's two rates
    if limit:
        flat = small & (g * edges[-1] < 2.0**-53)
        # any positive stand-in keeps the formulas quiet; the limits replace it
        g = np.where(flat, 1.0, g)
    g = g[:, None]
    minus_g = -g
    e = np.exp(minus_g * edges)
    E = e[:, :-1] * (-np.expm1(minus_g * width)) / g
    if limit:
        E[flat] = width
    if not derivative:
        return E
    dE = ((b * e[:, 1:] - a * e[:, :-1]) - E) / g
    if limit:
        dE[small] = -0.5 * width * (a + b)
    if derivative == 1:
        return E, dE
    d2E = ((a * a * e[:, :-1] - b * b * e[:, 1:]) - 2.0 * dE) / g
    if limit:
        d2E[small] = width * (a * a + a * b + b * b) / 3.0
    return E, dE, d2E


def _exgauss_density(t: np.ndarray, gammas: Sequence[float], sigma: float) -> np.ndarray:
    # exponential decay starting at t=0 convolved with a zero-mean Gaussian,
    # one row per rate.  A density that overflows (sigma * gamma above ~37)
    # is a NumericalError, raised without a floating-point warning
    g = np.asarray(gammas, dtype=float)
    refused = NumericalError(f"sweep.irf_sigma_ns = {sigma:g}: the blurred density is not finite")
    # the exponent's constant term rate by rate in Python floats: numpy's
    # square and pow(gamma, 2) differ in the last bit for ~1 rate in 1000
    try:
        lead = np.array([sigma**2 * gamma**2 / 2.0 for gamma in g.tolist()])
    except OverflowError:  # a square beyond the float range
        raise refused from None
    with np.errstate(over="ignore", invalid="ignore"):
        arg = (sigma**2 * g[:, None] - t) / (math.sqrt(2.0) * sigma)
        # math.erfc(x) is exactly 2.0 for x <= -6: 2 - erfc(-6) ~ 2e-17 is below
        # half an ulp of 2, so only the other bins (a nan too) need the call
        erfc = np.full_like(arg, 2.0)
        call = ~(arg <= -6.0)
        erfc[call] = np.fromiter(map(math.erfc, arg[call].tolist()), float)
        density = 0.5 * np.exp(lead[:, None] - g[:, None] * t) * erfc
    if not np.isfinite(density).all():
        raise refused
    return density


def _expectation(
    gamma_s: float,
    amp_ratio: float,
    background: float,
    total_counts: float,
    bin_edges: np.ndarray,
    irf_sigma: float | None,
) -> Callable[[Sequence[float]], np.ndarray]:
    """expected(gammas_f): expected counts of decays that differ only in gamma_f.

    The slow component is computed here, once; expected(gammas_f) gives
    one row of bin counts per fast rate, each scaled so the expectation
    sums to total_counts.  Without an IRF (irf_sigma None) the
    exponentials are integrated exactly over each bin; with an IRF the
    blurred density is sampled at bin midpoints (adequate for sigma well
    below the window length).
    """
    edges = np.asarray(bin_edges, dtype=float)
    widths = np.diff(edges)
    if irf_sigma is None:
        slow = amp_ratio * exp_bin_integrals([gamma_s], edges)
    else:
        if irf_sigma <= 0:
            raise InputError("irf_sigma must be positive when given")
        mids = bin_midpoints(edges)
        slow = amp_ratio * _exgauss_density(mids, [gamma_s], irf_sigma)
    signal_total = total_counts - background * len(widths)
    if signal_total <= 0:
        raise InputError("total_counts must exceed the background budget")

    def expected(gammas_f: Sequence[float]) -> np.ndarray:
        if irf_sigma is None:
            shape = exp_bin_integrals(gammas_f, edges) + slow
        else:
            shape = (_exgauss_density(mids, gammas_f, irf_sigma) + slow) * widths
        return shape * (signal_total / shape.sum(axis=1))[:, None] + background

    return expected


_SWEEP_BLOCK = 32  # sweep points whose expected counts are computed as one array


def generate_sweep(
    scene: EmitterScene,
    weights: tuple[float, float],
    r_T_mag: float,
    cal: PhaseCalibration,
    voltages: list[float],
    counts_scale: float | None,
    seed: int,
    bin_edges: np.ndarray,
    amp_ratio: float,
    background: float,
    hist_counts: float,
    irf_sigma: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate a voltage sweep as (phis, intensity counts, histogram counts).

    Per point: the calibration gives phi, the collected intensity is
    Poisson-sampled at counts_scale times the relative intensity, and
    the histogram's fast rate is the total decay rate, radiative plus
    the slow rate gamma_s = scene.gamma_nrad (so the bright-line
    radiative rate is recoverable as gamma_f - gamma_s); amp_ratio is
    A_s/A_f and background a flat counts-per-bin floor.
    counts_scale None switches to noiseless expectation values for both
    intensity and histograms.  Point i draws from its own
    counter-based streams, SeedSequence([seed, i]).spawn(2) for the
    intensity and the histogram, so a point does not depend on which
    others are generated.  Each column is in the order of the voltages.
    The relative intensities and the fast rates of all points are one
    array call each, with the bits of a call per point.

    The histograms are one float64 matrix, a row of counts per point on
    bin_edges.  Every row is bit for bit the histogram of its point's
    rates alone: the slow component is computed once per sweep and the
    expected counts of up to _SWEEP_BLOCK points at a time as one array.
    What every point shares (hist_counts, irf_sigma, the background
    budget) is checked before the first point.
    """
    noiseless = counts_scale is None
    if not noiseless and hist_counts <= 0:
        raise InputError("total_counts must be positive")
    expected_counts = _expectation(
        scene.gamma_nrad, amp_ratio, background, hist_counts, bin_edges, irf_sigma
    )
    phis = np.array([phase_of_voltage(cal, float(v)) for v in voltages])
    dip = DipoleOrientation.AVERAGED_BOTH
    counts = emission.intensity(scene, weights, r_T_mag, phis, dip)
    gammas_f = emission.decay_rate(scene, r_T_mag, phis, dip, include_nonradiative=True)
    hist_streams = []
    for index, expected in enumerate(counts.tolist()):
        ss_intensity, ss_hist = np.random.SeedSequence([seed, index]).spawn(2)
        if not noiseless:
            counts[index] = _poisson(
                ss_intensity, counts_scale * expected, "counts_scale", counts_scale
            )
        hist_streams.append(ss_hist)
    histograms = np.empty((len(gammas_f), len(bin_edges) - 1))
    for start in range(0, len(gammas_f), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        histograms[block] = expected_counts(gammas_f[block])
        if not noiseless:
            for row, ss_hist in zip(histograms[block], hist_streams[block]):
                row[:] = _poisson(ss_hist, row, "hist_counts", hist_counts)
    return phis, counts, histograms


SWEEP_HEADER = ("voltage", "phi_rad", "intensity_counts")


def histogram_header(n_histograms: int) -> tuple[str, ...]:
    """t_ns, then one counts_000, counts_001, ... column per histogram."""
    return ("t_ns", *(f"counts_{j:03d}" for j in range(n_histograms)))


def write_sweep_csv(columns: tuple[np.ndarray, np.ndarray, np.ndarray], path: str) -> None:
    """Write the columns (voltages, phases, intensity counts) under SWEEP_HEADER."""
    write_csv(path, SWEEP_HEADER, *columns)


def write_histogram_csv(columns: tuple[np.ndarray, np.ndarray], path: str) -> None:
    """Write (bin edges, counts matrix) as one table: t_ns, then a column per row."""
    bin_edges, hist_counts = columns
    header = histogram_header(len(hist_counts))
    write_csv(path, header, bin_midpoints(bin_edges), *hist_counts)


def _refuse(
    path: str, header: Sequence[str], table: np.ndarray, bad: np.ndarray, why: str
) -> None:
    # table holds a column per row, as read_csv gives it; the first line
    # with a bad cell is named, and its first bad column
    if bad.any():
        i, j = np.argwhere(bad.T)[0]
        raise MalformedCSV(f"{path} line {i + 2}: {header[j]} is {table[j, i]}, {why}")


def _read_finite(path: str, header: tuple[str, ...]) -> np.ndarray:
    # nan passes every comparison the readers make, so a non-finite cell
    # is rejected here
    table = read_csv(path, header)
    _refuse(path, header, table, ~np.isfinite(table), "not a finite number")
    return table


def read_sweep_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read (voltages, phases, intensity counts) from a sweep CSV."""
    return tuple(_read_finite(path, SWEEP_HEADER))


def read_histogram_csv(path: str, bin_edges: np.ndarray) -> np.ndarray:
    """Read a histogram table back into its counts matrix, a row per histogram.

    The header must be t_ns, counts_000, counts_001, ... with no column
    missing or out of order, t_ns must hold the midpoints of bin_edges
    bit for bit, and every count must be non-negative.
    """
    got = read_header(path)
    header = histogram_header(len(got) - 1)
    for j, (name, want) in enumerate(zip(got, header)):
        if name != want:
            raise MalformedCSV(f"{path} line 1: column {j + 1} is {name!r}, not {want!r}")
    table = _read_finite(path, header)
    mids, counts = table[0], table[1:]
    midpoints = bin_midpoints(bin_edges)
    if len(mids) != len(midpoints):
        raise MalformedCSV(f"{path}: {len(mids)} rows for {len(midpoints)} bins")
    differ = np.flatnonzero(mids.view(np.int64) != midpoints.view(np.int64))
    if differ.size:
        i = differ[0]
        raise MalformedCSV(
            f"{path} line {i + 2}: t_ns is {float(mids[i])!r},"
            f" not the bin midpoint {float(midpoints[i])!r}"
        )
    _refuse(path, header[1:], counts, counts < 0, "a negative count")
    return counts
