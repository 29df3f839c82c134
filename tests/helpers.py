"""Paths and objects the tests share."""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from importlib import resources

from phasemirror.config import DEFAULT_CONFIG
from phasemirror.emission import EmitterScene
from phasemirror.modesolver import WaveguideGeometry, solve_te0
from phasemirror.opticalstack import MirrorChain, PhotonicCrystalSpec, waveguide_transmission
from phasemirror.synthlab import CalibrationModel, PhaseCalibration


def builtin_table1_path() -> str:
    """Path to the shipped per-emitter results table."""
    return str(resources.files("phasemirror.data") / "table1.csv")


@dataclass(frozen=True)
class Device:
    geometry: WaveguideGeometry
    crystal: PhotonicCrystalSpec
    chain: MirrorChain
    calibration: PhaseCalibration
    scene: EmitterScene


@functools.cache
def default_device() -> Device:
    """The objects DEFAULT_CONFIG describes, built from its sections.

    The package's dataclasses have no field defaults; a test that needs
    another device varies these with dataclasses.replace.  The scene's k
    is that of the solved default mode.
    """
    g, m, e, c = (
        DEFAULT_CONFIG[key] for key in ("geometry", "mirror", "emitter", "calibration")
    )
    geometry = WaveguideGeometry(**{f.name: g[f.name] for f in fields(WaveguideGeometry)})
    L = m["qd_mirror_distance_um"] * 1000.0
    one_way = waveguide_transmission(m["loss_db_per_mm"], L)
    return Device(
        geometry=geometry,
        crystal=PhotonicCrystalSpec(
            **{f.name: m[f.name] for f in fields(PhotonicCrystalSpec)}
        ),
        chain=MirrorChain(
            t_phi_sq=m["t_phi_sq"], t_wg_sq=one_way**2, r_M_mag=m["r_M_mag"]
        ),
        calibration=PhaseCalibration(
            model=CalibrationModel(c["model"]),
            table=c["table"],
            quad_coeff=c["quad_coeff"],
            quad_offset=c["quad_offset"],
            v_range=c["v_range"],
        ),
        scene=EmitterScene(
            y0=e["y0_nm"],
            L=L,
            k=solve_te0(geometry, n_points=g["grid_points"]).k,
            gamma_x0=e["gamma_x0"],
            gamma_y0=e["gamma_y0"],
            gamma_b=e["gamma_b"],
            gamma_nrad=e["gamma_nrad"],
        ),
    )
