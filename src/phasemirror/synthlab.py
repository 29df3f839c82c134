"""Synthetic measurement generator for phase-sweep experiments.

Reproduces the lab pipeline: a voltage-to-phase calibration, per-point
collected-intensity samples with shot noise, and time-resolved decay
histograms drawn from a bright/dark bi-exponential model whose fast
rate follows the phase-dependent radiative rate.

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


class OutOfCalibration(ValueError):
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

    model: CalibrationModel = CalibrationModel.QUADRATIC
    table: tuple[tuple[float, float], ...] | None = None
    quad_coeff: float | None = 0.05
    quad_offset: float = 0.0
    v_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.model is CalibrationModel.TABLE:
            if not self.table or len(self.table) < 2:
                raise ValueError("table calibration needs at least two knots")
            volts = [v for v, _ in self.table]
            phases = [p for _, p in self.table]
            if any(b <= a for a, b in zip(volts, volts[1:])):
                raise ValueError("table voltages must be strictly increasing")
            diffs = [b - a for a, b in zip(phases, phases[1:])]
            if not (all(d >= 0 for d in diffs) or all(d <= 0 for d in diffs)):
                raise ValueError("table phase must be monotone in voltage")
        elif self.quad_coeff is None:
            raise ValueError("quadratic calibration needs quad_coeff")

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


@dataclass(frozen=True)
class ExcitonModel:
    """Bi-exponential decay: fast bright transition plus slow dark tail.

    amp_ratio is A_s/A_f in density units; background is a flat
    counts-per-bin floor.  gamma_f == gamma_s is allowed at the type
    level (a degenerate single exponential); identifiability is the
    fitter's concern.
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
    """Binned time-resolved counts over a fixed acquisition window.

    A histogram is its bin edges and its counts, nothing else: counts
    are integers after Poisson sampling but may be floats for noiseless
    expectation curves, and total_counts is computed from them.  The
    IRF width and the seed that produced a histogram belong to the run
    configuration, not to the histogram.
    """

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

    @property
    def midpoints(self) -> np.ndarray:
        return bin_midpoints(self.bin_edges)


def bin_midpoints(bin_edges: np.ndarray) -> np.ndarray:
    """The midpoint of each bin: the t_ns the histogram table holds."""
    edges = np.asarray(bin_edges, dtype=float)
    return 0.5 * (edges[:-1] + edges[1:])


def default_bin_edges(t_max_ns: float = 25.0, n_bins: int = 500) -> np.ndarray:
    """Uniform acquisition window, 0 to t_max in n_bins bins."""
    if t_max_ns <= 0 or n_bins < 1:
        raise ValueError("need positive window and at least one bin")
    return np.linspace(0.0, t_max_ns, n_bins + 1)


def _rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    # Philox takes an int through SeedSequence(seed)
    return np.random.Generator(np.random.Philox(seed))


def exp_bin_integrals(
    gammas: Sequence[float], edges: np.ndarray, derivative: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Integrals E of e^{-gamma t} over each bin; with derivative, (E, dE/dgamma).

    One row per rate, one column per bin [a, b] of width w = b - a:
    E = e^{-gamma a} (1 - e^{-gamma w}) / gamma, through expm1 so that a
    slow rate keeps its digits, and dE = ((b e^{-gamma b} - a e^{-gamma a})
    - E) / gamma from the same exponentials.  A rate below 1e-12 /ns
    takes the gamma -> 0 limits, E = w and dE = -(b^2 - a^2) / 2.  The
    simulator and the lifetime fit both integrate through this function.
    """
    g = np.asarray(gammas, dtype=float)
    a, b = edges[:-1], edges[1:]
    width = b - a
    small = g < 1e-12
    limit = True in small.tolist()  # cheaper than small.any() for the fit's two rates
    # any positive stand-in keeps the formulas quiet; the limits replace it
    g = np.where(small, 1.0, g)[:, None] if limit else g[:, None]
    minus_g = -g
    e = np.exp(minus_g * edges)
    E = e[:, :-1] * (-np.expm1(minus_g * width)) / g
    if limit:
        E[small] = width
    if not derivative:
        return E
    dE = ((b * e[:, 1:] - a * e[:, :-1]) - E) / g
    if limit:
        dE[small] = -0.5 * width * (a + b)
    return E, dE


def _exgauss_density(t: np.ndarray, gammas: Sequence[float], sigma: float) -> np.ndarray:
    # exponential decay starting at t=0 convolved with a zero-mean Gaussian,
    # one row per rate
    g = np.asarray(gammas, dtype=float)
    arg = (sigma**2 * g[:, None] - t) / (math.sqrt(2.0) * sigma)
    # math.erfc(x) is exactly 2.0 for x <= -6: 2 - erfc(-6) ~ 2e-17 is below
    # half an ulp of 2, so only the other bins (a nan too) need the call
    erfc = np.full_like(arg, 2.0)
    call = ~(arg <= -6.0)
    erfc[call] = np.fromiter(map(math.erfc, arg[call].tolist()), float)
    # the exponent's constant term rate by rate in Python floats: numpy's
    # square and pow(gamma, 2) differ in the last bit for ~1 rate in 1000
    lead = np.array([sigma**2 * gamma**2 / 2.0 for gamma in g.tolist()])
    return 0.5 * np.exp(lead[:, None] - g[:, None] * t) * erfc


def _expectation(
    gamma_s: float,
    amp_ratio: float,
    background: float,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
) -> tuple[np.ndarray, Callable[[Sequence[float]], np.ndarray]]:
    """(bin_edges, expected): expected counts of decays that differ only in gamma_f.

    The slow component is computed here, once; expected(gammas_f) gives
    one row of bin counts per fast rate, each scaled so the expectation
    sums to total_counts.  Without an IRF the exponentials are
    integrated exactly over each bin; with an IRF the blurred density is
    sampled at bin midpoints (adequate for sigma well below the window
    length).
    """
    edges = default_bin_edges() if bin_edges is None else np.asarray(bin_edges, dtype=float)
    widths = np.diff(edges)
    if irf_sigma is None:
        slow = amp_ratio * exp_bin_integrals([gamma_s], edges)
    else:
        if irf_sigma <= 0:
            raise ValueError("irf_sigma must be positive when given")
        mids = bin_midpoints(edges)
        slow = amp_ratio * _exgauss_density(mids, [gamma_s], irf_sigma)
    signal_total = total_counts - background * len(widths)
    if signal_total <= 0:
        raise ValueError("total_counts must exceed the background budget")

    def expected(gammas_f: Sequence[float]) -> np.ndarray:
        if irf_sigma is None:
            shape = exp_bin_integrals(gammas_f, edges) + slow
        else:
            shape = (_exgauss_density(mids, gammas_f, irf_sigma) + slow) * widths
        return shape * (signal_total / shape.sum(axis=1))[:, None] + background

    return edges, expected


_SWEEP_BLOCK = 32  # sweep points whose expected counts are computed as one array


def generate_sweep(
    scene: EmitterScene,
    weights: tuple[float, float],
    r_T_mag: float,
    cal: PhaseCalibration,
    voltages: list[float],
    counts_scale: float,
    seed: int,
    amp_ratio: float = 0.05,
    background: float = 0.0,
    hist_counts: float = 100_000.0,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
) -> tuple[np.ndarray, np.ndarray, list[DecayHistogram]]:
    """Simulate a voltage sweep as columns (phi, intensity counts, histograms).

    Per point: the calibration gives phi, the collected intensity is
    Poisson-sampled at counts_scale times the relative intensity, and
    the histogram's fast rate is the total decay rate, radiative plus
    the slow rate gamma_s = scene.gamma_nrad (so the bright-line
    radiative rate is recoverable as gamma_f - gamma_s); amp_ratio is
    A_s/A_f and background a flat counts-per-bin floor.
    counts_scale=inf switches to noiseless expectation values for both
    intensity and histograms.  Point i draws from its own
    counter-based streams, SeedSequence([seed, i]).spawn(2) for the
    intensity and the histogram, so a point does not depend on which
    others are generated.  Each column is in the order of the voltages.

    Every histogram is bit for bit the one its point's ExcitonModel
    gives alone: the slow component is computed once per sweep and the
    expected counts of up to _SWEEP_BLOCK points at a time as one array.
    What every point shares (hist_counts, irf_sigma, the background
    budget) is checked before the first point.
    """
    noiseless = math.isinf(counts_scale)
    if not noiseless and hist_counts <= 0:
        raise ValueError("total_counts must be positive")
    edges, expected_counts = _expectation(
        scene.gamma_nrad, amp_ratio, background, hist_counts, bin_edges, irf_sigma
    )
    phis, counts, gammas_f, hist_streams = [], [], [], []
    for index, v in enumerate(voltages):
        phi = phase_of_voltage(cal, float(v))
        expected = emission.intensity(
            scene, weights, r_T_mag, phi, DipoleOrientation.AVERAGED_BOTH
        )
        model = ExcitonModel(
            gamma_f=emission.decay_rate(
                scene, r_T_mag, phi, DipoleOrientation.AVERAGED_BOTH,
                include_nonradiative=True,
            ),
            gamma_s=scene.gamma_nrad,
            amp_ratio=amp_ratio,
            background=background,
        )
        ss_intensity, ss_hist = np.random.SeedSequence([seed, index]).spawn(2)
        if noiseless:
            intensity_counts = expected
        else:
            intensity_counts = float(_rng(ss_intensity).poisson(counts_scale * expected))
        phis.append(phi)
        counts.append(intensity_counts)
        gammas_f.append(model.gamma_f)
        hist_streams.append(ss_hist)
    histograms = []
    for start in range(0, len(gammas_f), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        for mu, ss_hist in zip(expected_counts(gammas_f[block]), hist_streams[block]):
            histograms.append(
                DecayHistogram(edges, mu if noiseless else _rng(ss_hist).poisson(mu))
            )
    return np.array(phis), np.array(counts), histograms


SWEEP_HEADER = ("voltage", "phi_rad", "intensity_counts")


def histogram_header(n_histograms: int) -> tuple[str, ...]:
    """t_ns, then one counts_000, counts_001, ... column per histogram."""
    return ("t_ns", *(f"counts_{j:03d}" for j in range(n_histograms)))


def write_sweep_csv(columns: tuple[np.ndarray, np.ndarray, np.ndarray], path: str) -> None:
    """Write the columns (voltages, phases, intensity counts) under SWEEP_HEADER."""
    write_csv(path, SWEEP_HEADER, *columns)


def write_histogram_csv(histograms: list[DecayHistogram], path: str) -> None:
    """Write a sweep's histograms as one table, t_ns once, then in sweep order.

    A histogram binned otherwise than the first raises ValueError.
    """
    edges = histograms[0].bin_edges
    for j, hist in enumerate(histograms):
        if not np.array_equal(hist.bin_edges, edges):
            raise ValueError(f"histogram {j} has other bin edges than histogram 0")
    header = histogram_header(len(histograms))
    write_csv(path, header, histograms[0].midpoints, *(h.counts for h in histograms))


def _read_finite(path: str, header: tuple[str, ...]) -> list[np.ndarray]:
    # nan passes every comparison the readers make, so a non-finite cell
    # is rejected here, naming the first line that holds one
    columns = read_csv(path, header)
    bad = ~np.isfinite(np.column_stack(columns))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MalformedCSV(
            f"{path} line {i + 2}: {header[j]} is {columns[j][i]}, not a finite number"
        )
    return columns


def read_sweep_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read (voltages, phases, intensity counts) from a sweep CSV."""
    return tuple(_read_finite(path, SWEEP_HEADER))


def read_histogram_csv(path: str, bin_edges: np.ndarray) -> list[DecayHistogram]:
    """Read a histogram table back into its DecayHistograms, in sweep order.

    The header must be t_ns, counts_000, counts_001, ... with no column
    missing or out of order, and t_ns must hold the midpoints of
    bin_edges bit for bit; every histogram is binned on bin_edges.
    """
    got = read_header(path)
    header = histogram_header(len(got) - 1)
    for j, (name, want) in enumerate(zip(got, header)):
        if name != want:
            raise MalformedCSV(f"{path} line 1: column {j + 1} is {name!r}, not {want!r}")
    mids, *counts = _read_finite(path, header)
    edges = np.asarray(bin_edges, dtype=float)
    midpoints = bin_midpoints(edges)
    if len(mids) != len(midpoints):
        raise MalformedCSV(f"{path}: {len(mids)} rows for {len(midpoints)} bins")
    differ = np.flatnonzero(mids.view(np.int64) != midpoints.view(np.int64))
    if differ.size:
        i = differ[0]
        raise MalformedCSV(
            f"{path} line {i + 2}: t_ns is {float(mids[i])!r},"
            f" not the bin midpoint {float(midpoints[i])!r}"
        )
    histograms = []
    for name, column in zip(header[1:], counts):
        try:
            histograms.append(DecayHistogram(edges, column))
        except ValueError as exc:  # negative counts
            raise MalformedCSV(f"{path} {name}: {exc}") from None
    return histograms
