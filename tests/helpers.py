"""Paths and objects the tests share."""

from __future__ import annotations

import functools
import importlib.util
import pathlib
from dataclasses import dataclass
from importlib import resources

from phasemirror.config import DEFAULT_CONFIG, RunConfig
from phasemirror.emission import EmitterScene
from phasemirror.modesolver import WaveguideGeometry, solve_te0
from phasemirror.opticalstack import MirrorChain, PhotonicCrystalSpec
from phasemirror.synthlab import PhaseCalibration


def builtin_table1_path() -> str:
    """Path to the shipped per-emitter results table."""
    return str(resources.files("phasemirror.data") / "table1.csv")


def load_script(name: str):
    """The module of scripts/<name>.py, which is not part of the package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Device:
    geometry: WaveguideGeometry
    crystal: PhotonicCrystalSpec
    chain: MirrorChain
    calibration: PhaseCalibration
    scene: EmitterScene


@functools.cache
def default_device() -> Device:
    """The objects DEFAULT_CONFIG describes, as RunConfig.from_dict builds them.

    The package's dataclasses have no field defaults; a test that needs
    another device varies these with dataclasses.replace.  The scene's k
    is that of the solved default mode.
    """
    cfg = RunConfig.from_dict(DEFAULT_CONFIG)
    k = solve_te0(cfg.geometry(), n_points=cfg.grid_points).k
    return Device(cfg.geometry(), cfg.crystal(), cfg.chain, cfg.calibration, cfg.scene(k))
