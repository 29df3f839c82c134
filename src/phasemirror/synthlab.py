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
    phi = quad_coeff * v^2 + quad_offset.  gauge_note documents the
    sign/offset gauge when the map was reconstructed from fringes.
    """

    model: CalibrationModel = CalibrationModel.QUADRATIC
    table: tuple[tuple[float, float], ...] | None = None
    quad_coeff: float | None = 0.05
    quad_offset: float = 0.0
    v_range: tuple[float, float] | None = None
    gauge_note: str = ""

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
        edges = np.asarray(self.bin_edges, dtype=float)
        return 0.5 * (edges[:-1] + edges[1:])


def default_bin_edges(t_max_ns: float = 25.0, n_bins: int = 500) -> np.ndarray:
    """Uniform acquisition window, 0 to t_max in n_bins bins."""
    if t_max_ns <= 0 or n_bins < 1:
        raise ValueError("need positive window and at least one bin")
    return np.linspace(0.0, t_max_ns, n_bins + 1)


def _rng(entropy) -> np.random.Generator:
    if not isinstance(entropy, np.random.SeedSequence):
        entropy = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(entropy))


def _exp_bin_integrals(gamma: float, edges: np.ndarray) -> np.ndarray:
    # integral of e^{-gamma t} over each bin; gamma -> 0 limit is the width
    if gamma < 1e-12:
        return np.diff(edges)
    e = np.exp(-gamma * edges)
    return (e[:-1] - e[1:]) / gamma


def _exgauss_density(t: np.ndarray, gamma: float, sigma: float) -> np.ndarray:
    # exponential decay starting at t=0 convolved with a zero-mean Gaussian
    arg = (sigma**2 * gamma - t) / (math.sqrt(2.0) * sigma)
    # math.erfc(x) is exactly 2.0 for x <= -6: 2 - erfc(-6) ~ 2e-17 is below
    # half an ulp of 2, so only the other bins (a nan too) need the call
    erfc = np.full_like(arg, 2.0)
    call = ~(arg <= -6.0)
    erfc[call] = np.fromiter(map(math.erfc, arg[call].tolist()), float)
    return 0.5 * np.exp(sigma**2 * gamma**2 / 2.0 - gamma * t) * erfc


def expected_bin_counts(
    model: ExcitonModel,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(bin_edges, expected counts) scaled so the expectation sums to total_counts.

    Without an IRF the exponentials are integrated exactly over each
    bin; with an IRF the blurred density is sampled at bin midpoints
    (adequate for sigma well below the window length).
    """
    edges = default_bin_edges() if bin_edges is None else np.asarray(bin_edges, dtype=float)
    widths = np.diff(edges)
    if irf_sigma is None:
        shape = _exp_bin_integrals(model.gamma_f, edges) + model.amp_ratio * _exp_bin_integrals(
            model.gamma_s, edges
        )
    else:
        if irf_sigma <= 0:
            raise ValueError("irf_sigma must be positive when given")
        mids = 0.5 * (edges[:-1] + edges[1:])
        shape = (
            _exgauss_density(mids, model.gamma_f, irf_sigma)
            + model.amp_ratio * _exgauss_density(mids, model.gamma_s, irf_sigma)
        ) * widths
    bg_total = model.background * len(widths)
    signal_total = total_counts - bg_total
    if signal_total <= 0:
        raise ValueError("total_counts must exceed the background budget")
    mu = shape * (signal_total / shape.sum()) + model.background
    return edges, mu


def generate_decay_histogram(
    model: ExcitonModel,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
    seed: int | np.random.SeedSequence = 0,
) -> DecayHistogram:
    """Poisson-sampled decay histogram; same seed gives identical bits."""
    if total_counts <= 0:
        raise ValueError("total_counts must be positive")
    edges, mu = expected_bin_counts(model, total_counts, bin_edges, irf_sigma)
    return DecayHistogram(edges, _rng(seed).poisson(mu))


def expected_histogram(
    model: ExcitonModel,
    total_counts: float,
    bin_edges: np.ndarray | None = None,
    irf_sigma: float | None = None,
) -> DecayHistogram:
    """Noiseless expectation curve packaged as a histogram (float counts)."""
    return DecayHistogram(*expected_bin_counts(model, total_counts, bin_edges, irf_sigma))


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
    """
    noiseless = math.isinf(counts_scale)
    phis, counts, histograms = [], [], []
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
            hist = expected_histogram(model, hist_counts, bin_edges, irf_sigma)
        else:
            intensity_counts = float(_rng(ss_intensity).poisson(counts_scale * expected))
            hist = generate_decay_histogram(
                model, hist_counts, bin_edges, irf_sigma, seed=ss_hist
            )
        phis.append(phi)
        counts.append(intensity_counts)
        histograms.append(hist)
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


def read_histogram_csv(path: str) -> list[DecayHistogram]:
    """Read a histogram table back into its DecayHistograms, in sweep order.

    The header must be t_ns, counts_000, counts_001, ... with no column
    missing or out of order; the bin edges are rebuilt once from the
    midpoints and shared by every histogram.
    """
    got = read_header(path)
    header = histogram_header(len(got) - 1)
    for j, (name, want) in enumerate(zip(got, header)):
        if name != want:
            raise MalformedCSV(f"{path} line 1: column {j + 1} is {name!r}, not {want!r}")
    mids, *counts = _read_finite(path, header)
    if len(mids) < 2:
        raise MalformedCSV(f"{path}: need at least two bins")
    widths = np.diff(mids)
    if not widths[0] > 0 or np.any(np.abs(widths - widths[0]) > 1e-9 * widths[0]):
        raise MalformedCSV(f"{path}: bins must be uniform and increasing")
    w = float(widths[0])
    edges = np.concatenate([mids - w / 2.0, [mids[-1] + w / 2.0]])
    histograms = []
    for name, column in zip(header[1:], counts):
        try:
            histograms.append(DecayHistogram(edges, column))
        except ValueError as exc:  # negative counts
            raise MalformedCSV(f"{path} {name}: {exc}") from None
    return histograms
