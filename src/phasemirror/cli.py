"""Command-line front end.

Subcommands
    mode      solve the guided mode, export profile + visibility curves
    mirror    sweep the photonic-crystal mirror reflectivity
    simulate  generate a synthetic voltage sweep (intensity + histograms)
    analyze   fit a simulated sweep, or report on a tabulated results CSV

Every command writes its outputs plus a manifest.json (config hash,
seed, per-file SHA-256) into --out.  Exit codes: 0 success, 2 config or
input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import emission, inference, modesolver, opticalstack, synthlab, svgplot
from .config import (
    DEFAULT_CONFIG,
    QD1_PRESET,
    ConfigError,
    RunConfig,
    file_sha256,
    write_manifest,
)
from .emission import DipoleOrientation


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasemirror",
        description="Phase-controlled emitter-mirror simulation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--preset", choices=["qd1"], help="built-in parameter set"
        )
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; has no effect",
        )

    for name, desc in [
        ("mode", "solve the guided mode and export visibility curves"),
        ("mirror", "sweep the mirror reflectivity over wavelength"),
        ("simulate", "generate a synthetic phase-voltage sweep"),
        ("analyze", "fit a simulated sweep or report on a results table"),
    ]:
        p = sub.add_parser(name, help=desc)
        common(p)
        if name == "analyze":
            p.add_argument(
                "--in", dest="in_dir", help="directory written by `simulate`"
            )
            p.add_argument(
                "--table1", help="per-emitter results CSV instead of a sweep"
            )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.preset:
        data = copy.deepcopy(QD1_PRESET)
    elif args.config:
        data = RunConfig.from_file(args.config).raw
    else:
        data = copy.deepcopy(DEFAULT_CONFIG)
    if args.seed is not None:
        data["seed"] = args.seed
    return RunConfig.from_dict(data)


def _solve(cfg: RunConfig) -> modesolver.ModeProfile:
    return modesolver.solve_te0(cfg.geometry(), n_points=cfg.grid_points)


def cmd_mode(args: argparse.Namespace, cfg: RunConfig, out: str) -> int:
    profile = _solve(cfg)
    scene = cfg.scene(profile.k)
    r = cfg.r_T_magnitude()
    weights = modesolver.mode_weights(profile, scene.y0)

    profile_csv = os.path.join(out, "mode_profile.csv")
    modesolver.write_profile_csv(profile, profile_csv)

    fig1c = emission.figure1c_curves(scene, weights, r, DipoleOrientation.Y)
    fig1c_csv = os.path.join(out, "fig1c.csv")
    emission.write_phase_curve_csv(fig1c, fig1c_csv)

    fig1d = emission.figure1d_curves(profile, scene, r)
    fig1d_csv = os.path.join(out, "fig1d.csv")
    emission.write_offset_curve_csv(fig1d, fig1d_csv)

    y = profile.grid
    svgplot.write_line_plot(
        os.path.join(out, "mode_profile.svg"),
        [("e_y", y, profile.e_y), ("e_x", y, profile.e_x)],
        f"TE0 profile, n_eff = {profile.n_eff:.6f}",
        "y (nm)",
        "field (norm.)",
    )
    phis = np.array([row[0] for row in fig1c])
    svgplot.write_line_plot(
        os.path.join(out, "fig1c.svg"),
        [
            ("decay rate (1/ns)", phis, np.array([row[1] for row in fig1c])),
            ("rel. intensity", phis, np.array([row[2] for row in fig1c])),
        ],
        f"phase response at |r_T| = {r:g}",
        "phi (rad)",
        "modulated quantity",
    )
    offs = np.array([row[0] for row in fig1d])
    svgplot.write_line_plot(
        os.path.join(out, "fig1d.svg"),
        [
            ("nu_I", offs, np.array([row[1] for row in fig1d])),
            ("nu_gamma", offs, np.array([row[2] for row in fig1d])),
        ],
        f"visibility vs lateral offset at |r_T| = {r:g}",
        "y0 (nm)",
        "visibility",
    )

    write_manifest(
        os.path.join(out, "manifest.json"),
        "mode",
        {
            "mode_profile.csv": profile_csv,
            "fig1c.csv": fig1c_csv,
            "fig1d.csv": fig1d_csv,
            "mode_profile.svg": os.path.join(out, "mode_profile.svg"),
            "fig1c.svg": os.path.join(out, "fig1c.svg"),
            "fig1d.svg": os.path.join(out, "fig1d.svg"),
        },
        cfg.hash,
        cfg.seed,
        extra={
            "n_eff": profile.n_eff,
            "k_rad_per_nm": profile.k,
            "r_T_mag": r,
        },
    )
    return 0


def cmd_mirror(args: argparse.Namespace, cfg: RunConfig, out: str) -> int:
    spec = cfg.crystal()
    m = cfg.raw["mirror"]
    lambdas = np.linspace(m["lambda_min_nm"], m["lambda_max_nm"], m["sweep_points"])
    rows = opticalstack.reflectivity_sweep(spec, lambdas)
    sweep_csv = os.path.join(out, "mirror_sweep.csv")
    opticalstack.write_sweep_csv(rows, sweep_csv)
    svgplot.write_line_plot(
        os.path.join(out, "mirror_sweep.svg"),
        [
            (
                "|r|^2",
                np.array([row[0] for row in rows]),
                np.array([row[2] for row in rows]),
            )
        ],
        f"mirror reflectivity, {spec.n_holes} holes, pitch {spec.pitch_nm:g} nm",
        "wavelength (nm)",
        "power reflectivity",
    )
    write_manifest(
        os.path.join(out, "manifest.json"),
        "mirror",
        {
            "mirror_sweep.csv": sweep_csv,
            "mirror_sweep.svg": os.path.join(out, "mirror_sweep.svg"),
        },
        cfg.hash,
        cfg.seed,
        extra={"bragg_wavelength_nm": spec.bragg_wavelength_nm},
    )
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig, out: str) -> int:
    profile = _solve(cfg)
    scene = cfg.scene(profile.k)
    weights = modesolver.mode_weights(profile, scene.y0)
    records = synthlab.generate_sweep(
        scene,
        weights,
        cfg.r_T_magnitude(),
        cfg.calibration(),
        cfg.voltages(),
        cfg.counts_scale,
        cfg.seed,
        exciton=cfg.exciton(),
        hist_counts=cfg.hist_counts,
        bin_edges=cfg.bin_edges(),
        irf_sigma=cfg.irf_sigma,
    )
    sweep_csv = os.path.join(out, "sweep.csv")
    synthlab.write_sweep_csv(records, sweep_csv)
    files = {"sweep.csv": sweep_csv}
    hist_names = []
    for rec in records:
        name = f"hist_{rec.index:03d}.csv"
        path = os.path.join(out, name)
        synthlab.write_histogram_csv(rec.histogram, path)
        files[name] = path
        hist_names.append(name)
    svgplot.write_line_plot(
        os.path.join(out, "sweep.svg"),
        [
            (
                "intensity (counts)",
                np.array([rec.voltage for rec in records]),
                np.array([rec.intensity_counts for rec in records]),
            )
        ],
        f"simulated sweep, |r_T| = {cfg.r_T_magnitude():g}",
        "voltage (V)",
        "collected intensity",
    )
    files["sweep.svg"] = os.path.join(out, "sweep.svg")
    write_manifest(
        os.path.join(out, "manifest.json"),
        "simulate",
        files,
        cfg.hash,
        cfg.seed,
        extra={"config": cfg.raw, "histograms": hist_names},
    )
    return 0


def _verify_inputs(
    in_dir: str, manifest_path: str, manifest: dict, cfg: RunConfig, needed: list[str]
) -> None:
    """Check the manifest's config hash and the SHA-256 of every file it lists."""
    if manifest.get("config_hash") != cfg.hash:
        raise ConfigError(f"{manifest_path}: config_hash does not match its config")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ConfigError(f"{manifest_path}: 'files' must map file names to SHA-256s")
    for name in needed:
        if name not in files:
            raise ConfigError(f"{manifest_path}: {name} is not in its 'files' map")
    for name, digest in files.items():
        path = os.path.join(in_dir, name)
        try:
            matches = file_sha256(path) == digest
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"{path!r}: cannot be read: {reason}") from None
        if not matches:
            raise ConfigError(f"{path}: SHA-256 does not match the manifest")


def _analyze_sweep_dir(args: argparse.Namespace, out: str) -> int:
    manifest_path = os.path.join(args.in_dir, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{manifest_path}: not valid JSON: {exc}") from None
    if (
        not isinstance(manifest, dict)
        or manifest.get("command") != "simulate"
        or "config" not in manifest
    ):
        raise ConfigError(f"{manifest_path}: not a simulate manifest")
    hist_names = manifest.get("histograms")
    if not (
        isinstance(hist_names, list) and all(isinstance(n, str) for n in hist_names)
    ):
        raise ConfigError(f"{manifest_path}: 'histograms' must be a list of file names")
    cfg = RunConfig.from_dict(manifest["config"])
    if args.seed is not None or args.config or args.preset:
        raise ConfigError("analyze --in takes its config from the manifest")
    _verify_inputs(args.in_dir, manifest_path, manifest, cfg, ["sweep.csv", *hist_names])

    voltages, phases, counts = synthlab.read_sweep_csv(
        os.path.join(args.in_dir, "sweep.csv")
    )
    histograms = [
        synthlab.read_histogram_csv(os.path.join(args.in_dir, name))
        for name in hist_names
    ]
    profile = _solve(cfg)
    result = inference.analyze_sweep(
        voltages,
        phases,
        counts,
        histograms,
        profile=profile,
        exciton=cfg.exciton(),
    )

    report_path = os.path.join(out, "report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")

    rates_csv = os.path.join(out, "rates.csv")
    gamma = [f["derived"]["gamma_rad"] for f in result["rate_fits"]]
    sigma = [f["derived"]["gamma_rad_sigma"] for f in result["rate_fits"]]
    with open(rates_csv, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("phi_rad,gamma_rad,gamma_rad_sigma\n")
        for p, g, s in zip(phases, gamma, sigma):
            fh.write(f"{float(p)!r},{float(g)!r},{float(s)!r}\n")

    order = np.argsort(phases)
    svgplot.write_line_plot(
        os.path.join(out, "rates.svg"),
        [("gamma_rad (1/ns)", phases[order], np.asarray(gamma)[order])],
        f"fitted radiative rate, nu_gamma = {result['nu_gamma']:.3f}",
        "phi (rad)",
        "rate (1/ns)",
    )
    svgplot.write_line_plot(
        os.path.join(out, "intensity.svg"),
        [("counts", phases[order], np.asarray(counts)[order])],
        f"intensity fringe, nu_I = {result['nu_I']:.3f}",
        "phi (rad)",
        "counts",
    )

    write_manifest(
        os.path.join(out, "manifest.json"),
        "analyze",
        {
            "report.json": report_path,
            "rates.csv": rates_csv,
            "rates.svg": os.path.join(out, "rates.svg"),
            "intensity.svg": os.path.join(out, "intensity.svg"),
        },
        cfg.hash,
        cfg.seed,
        extra={"source": "sweep"},
    )
    return 0


def _analyze_table(args: argparse.Namespace, cfg: RunConfig, out: str) -> int:
    rows = inference.read_table1_csv(args.table1)
    profile = _solve(cfg)
    report = inference.table1_report(rows, profile=profile)
    report_path = os.path.join(out, "report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")
    write_manifest(
        os.path.join(out, "manifest.json"),
        "analyze",
        {"report.json": report_path},
        cfg.hash,
        cfg.seed,
        extra={"source": "table1"},
    )
    return 0


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig, out: str) -> int:
    if bool(args.in_dir) == bool(args.table1):
        raise ConfigError("analyze needs exactly one of --in or --table1")
    if args.table1:
        return _analyze_table(args, cfg, out)
    return _analyze_sweep_dir(args, out)


_DISPATCH = {
    "mode": cmd_mode,
    "mirror": cmd_mirror,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}

_INPUT_ERRORS = (
    ConfigError,
    inference.MalformedRow,
    synthlab.MalformedCSV,
    synthlab.OutOfCalibration,
    FileNotFoundError,
    NotADirectoryError,
)

_NUMERICAL_ERRORS = (
    modesolver.ModeSolverError,
    inference.NotConverged,
    inference.NonIdentifiable,
    inference.EmptyFeasibleSet,
    inference.InsufficientFringes,
    inference.InsufficientPhaseSpan,
    np.linalg.LinAlgError,
    ValueError,
    ArithmeticError,
)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = args.out
        os.makedirs(out, exist_ok=True)
        return _DISPATCH[args.command](args, cfg, out)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
