"""The benchmark's three workloads: inputs made from the seed, and their rounds.

A round is one operation of every slot of a workload, in a fixed order; runs
consist of whole rounds only, so each slot is sampled equally often and the
share of failed operations is the same in every run.  Each operation is one
``phasemirror`` command line plus a check of its outputs.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from phasemirror.config import DEFAULT_CONFIG, QD1_PRESET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_TABLE = os.path.join(ROOT, "src", "phasemirror", "data", "table1.csv")

STUDY_POINTS = 192
STUDY_IRF_NS = 0.2
STUDY_TABLE_ROWS = 24
DESIGN_GRID = 2049
DESIGN_WIDTHS_NM = (250.0, 280.0, 310.0, 340.0, 370.0, 400.0)
DESIGN_HOLES = (12, 24, 48)
DESIGN_WAVELENGTHS = 1001


@dataclass
class Op:
    """One command of a round.

    ``figure`` names the per-command figure the operation feeds: ``*_s`` is
    the median wall time per command, ``*_per_s`` the ``work`` done per second
    of command time.  ``known_fault`` is the start of the one problem that a
    named fault in the program makes this operation report on every run: the
    operation still counts as failed, but that problem alone does not make the
    run incorrect.
    """

    slot: str
    argv: list[str]
    check: Callable[[], list[str]]
    figure: str
    work: float = 1.0
    known_fault: str = ""


def sweep_seed(seed: int, index: int) -> int:
    """Seed of the index-th simulated sweep of a run, spread from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
    return path


class Workload:
    name = ""

    def __init__(self, seed: int, work: str) -> None:
        self.seed = seed
        self.work = work
        os.makedirs(work, exist_ok=True)

    def dir(self, name: str) -> str:
        return os.path.join(self.work, name)

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError


class Shipped(Workload):
    """The five README commands on the shipped presets and table.

    Only the simulate seed comes from the benchmark seed; everything else is
    the shipped input.
    """

    name = "shipped"

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        self.qd1 = copy.deepcopy(QD1_PRESET)
        self.default = copy.deepcopy(DEFAULT_CONFIG)
        self.table = checks.read_table(SHIPPED_TABLE)

    def round(self, k: int) -> list[Op]:
        d = self.dir
        return [
            Op("mode", ["mode", "--preset", "qd1", "--out", d("mode")],
               lambda: checks.check_mode(d("mode"), self.qd1), "mode_s"),
            Op("mirror", ["mirror", "--out", d("mirror")],
               lambda: checks.check_mirror(d("mirror"), self.default), "mirror_s"),
            Op("simulate",
               ["simulate", "--preset", "qd1", "--seed", str(sweep_seed(self.seed, k)),
                "--out", d("sim")],
               lambda: checks.check_simulate(d("sim"), self.qd1), "simulate_s"),
            Op("analyze_sweep", ["analyze", "--in", d("sim"), "--out", d("fit")],
               lambda: checks.check_analyze_sweep(d("fit"), self.qd1), "analyze_sweep_s"),
            Op("analyze_table", ["analyze", "--table1", SHIPPED_TABLE, "--out", d("table")],
               lambda: checks.check_analyze_table(d("table"), self.table),
               "analyze_table_s"),
        ]


def make_table(rng: np.random.Generator, n_rows: int) -> list[dict]:
    """Per-emitter rows drawn around the forward model, in the shipped table's columns.

    |r_T| in [0.35, 0.9] and an offset weight ratio in [0, 0.3] give nu_I;
    nu_gamma is r times a beta-like factor in [0.15, 0.45]; the extremal rates
    straddle a mean rate in [0.6, 1.3] with a contrast that misses the
    tabulated nu_gamma by N(0, 0.02), so some rows fall outside 1 sigma.
    """
    rows = []
    for qd in range(1, n_rows + 1):
        r = rng.uniform(0.35, 0.9)
        nu_i = checks.nu_intensity(r, rng.uniform(0.0, 0.3))
        nu_g = r * rng.uniform(0.15, 0.45)
        contrast = float(np.clip(nu_g + rng.normal(0.0, 0.02), 0.01, 0.9))
        mean = rng.uniform(0.6, 1.3)
        rows.append({
            "qd": qd,
            "lambda_nm": round(rng.uniform(920.0, 950.0), 2),
            "gamma_max": round(mean * (1.0 + contrast), 4),
            "gamma_min": round(mean * (1.0 - contrast), 4),
            "nu_gamma": round(nu_g, 4),
            "nu_I": round(nu_i, 4),
            "gamma_max_err": round(rng.uniform(0.01, 0.08), 3),
            "gamma_min_err": round(rng.uniform(0.01, 0.08), 3),
            "nu_gamma_err": round(rng.uniform(0.01, 0.05), 3),
        })
    return rows


def write_table(path: str, rows: list[dict]) -> None:
    cols = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


class Study(Workload):
    """192-point qd1 sweeps, plain and IRF-blurred, their analyses and a generated table."""

    name = "study"

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        self.plain = copy.deepcopy(QD1_PRESET)
        self.plain["sweep"]["n_points"] = STUDY_POINTS
        self.irf = copy.deepcopy(self.plain)
        self.irf["sweep"]["irf_sigma_ns"] = STUDY_IRF_NS
        self.plain_json = _write_json(self.dir("plain.json"), self.plain)
        self.irf_json = _write_json(self.dir("irf.json"), self.irf)
        self.table = make_table(np.random.default_rng([self.seed, 1]), STUDY_TABLE_ROWS)
        self.table_csv = self.dir("table.csv")
        write_table(self.table_csv, self.table)
        self.table = checks.read_table(self.table_csv)

    def round(self, k: int) -> list[Op]:
        d = self.dir
        ops = []
        for tag, path, cfg, index in (
            ("", self.plain_json, self.plain, 2 * k),
            ("_irf", self.irf_json, self.irf, 2 * k + 1),
        ):
            sim, fit = d("sim" + tag), d("fit" + tag)
            ops.append(Op(
                "simulate" + tag,
                ["simulate", "--config", path, "--seed", str(sweep_seed(self.seed, index)),
                 "--out", sim],
                lambda sim=sim, cfg=cfg: checks.check_simulate(sim, cfg),
                "simulate_points_per_s", work=STUDY_POINTS))
            ops.append(Op(
                "analyze_sweep" + tag, ["analyze", "--in", sim, "--out", fit],
                lambda fit=fit, cfg=cfg: checks.check_analyze_sweep(fit, cfg),
                "analyze_points_per_s", work=STUDY_POINTS,
                # inference.fit_biexponential ignores the IRF: nu_gamma is biased
                known_fault="nu_gamma" if tag else ""))
        ops.append(Op(
            "analyze_table", ["analyze", "--table1", self.table_csv, "--out", d("table")],
            lambda: checks.check_analyze_table(d("table"), self.table),
            "table_rows_per_s", work=len(self.table)))
        return ops


class Design(Workload):
    """Mode solves over waveguide widths and mirror sweeps over hole counts.

    The seed jitters each width by up to 5 nm and each end of the wavelength
    window by up to 5 nm; the amount of work does not depend on it.
    """

    name = "design"

    def __init__(self, seed: int, work: str) -> None:
        super().__init__(seed, work)
        rng = np.random.default_rng([self.seed, 2])
        self.modes = []
        for i, width in enumerate(DESIGN_WIDTHS_NM):
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            cfg["geometry"]["width_nm"] = round(width + rng.uniform(-5.0, 5.0), 3)
            cfg["geometry"]["grid_points"] = DESIGN_GRID
            self.modes.append((cfg, _write_json(self.dir(f"mode{i}.json"), cfg)))
        self.mirrors = []
        for holes in DESIGN_HOLES:
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            m = cfg["mirror"]
            m["n_holes"] = holes
            m["lambda_min_nm"] = round(850.0 + rng.uniform(-5.0, 5.0), 3)
            m["lambda_max_nm"] = round(1050.0 + rng.uniform(-5.0, 5.0), 3)
            m["sweep_points"] = DESIGN_WAVELENGTHS
            self.mirrors.append((cfg, _write_json(self.dir(f"mirror{holes}.json"), cfg)))

    def round(self, k: int) -> list[Op]:
        d = self.dir
        modes = [
            Op(f"mode{i}", ["mode", "--config", path, "--out", d("mode")],
               lambda cfg=cfg: checks.check_mode(d("mode"), cfg), "modes_per_s")
            for i, (cfg, path) in enumerate(self.modes)
        ]
        mirrors = [
            Op(f"mirror{cfg['mirror']['n_holes']}",
               ["mirror", "--config", path, "--out", d("mirror")],
               lambda cfg=cfg: checks.check_mirror(d("mirror"), cfg),
               "mirror_points_per_s", work=DESIGN_WAVELENGTHS)
            for cfg, path in self.mirrors
        ]
        # interleave so the long mirror sweeps are spread through the round
        return [modes[0], mirrors[0], modes[1], modes[2], mirrors[1],
                modes[3], modes[4], mirrors[2], modes[5]]


WORKLOADS = {w.name: w for w in (Shipped, Study, Design)}
