"""Command-line front end.

Subcommands
    mode      solve the guided mode, export profile + visibility curves
    mirror    sweep the photonic-crystal mirror reflectivity
    simulate  generate a synthetic voltage sweep: sweep.csv + histograms.csv
    analyze   fit a simulated sweep, or report on a tabulated results CSV

Every command writes its outputs plus a manifest.json (config hash,
seed, per-file SHA-256) into --out.  Tables go through `csvio` and JSON
through `config.write_json`; a command records each file's name as it
writes the file, and the manifest lists exactly those names.  The
config is loaded and validated once, after any --seed override;
`analyze --in` takes it from the simulate manifest instead.  Exit
codes: 0 success, 2 an `errors.InputError` or a path error, 3 an
`errors.NumericalError`; any other exception is a fault and a traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

import numpy as np

from . import emission, modesolver, opticalstack, synthlab, svgplot
from .config import (
    DEFAULT_CONFIG,
    QD1_PRESET,
    ConfigError,
    RunConfig,
    file_sha256,
    read_json,
    write_json,
    write_manifest,
)
from .csvio import MalformedCSV, write_csv
from .emission import DipoleOrientation
from .errors import InputError, NumericalError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged and returns a new namespace on every call."""
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
        data = QD1_PRESET
    elif args.config:
        data = read_json(args.config)
    else:
        data = DEFAULT_CONFIG
    if args.seed is not None:
        data = {**data, "seed": args.seed}
    return RunConfig.from_dict(data)


def _solve(cfg: RunConfig) -> modesolver.ModeProfile:
    return modesolver.solve_te0(cfg.geometry(), n_points=cfg.grid_points)


class _Outputs:
    """The --out directory and the names of the files written into it.

    A command asks for each file's path just before it writes the file,
    so the manifest lists exactly the files the command wrote.
    """

    def __init__(self, out: str) -> None:
        self.out = out
        self.files: dict[str, str] = {}

    def path(self, name: str) -> str:
        """Path of a file about to be written; records its name."""
        self.files[name] = path = os.path.join(self.out, name)
        return path

    def manifest(self, command: str, cfg: RunConfig, **extra) -> None:
        """Write manifest.json over every file recorded so far."""
        write_manifest(
            os.path.join(self.out, "manifest.json"),
            command,
            self.files,
            cfg.hash,
            cfg.seed,
            extra,
        )


def cmd_mode(args: argparse.Namespace, cfg: RunConfig, outs: _Outputs) -> None:
    profile = _solve(cfg)
    scene = cfg.scene(profile.k)
    r = cfg.r_T_mag
    weights = modesolver.mode_weights(profile, scene.y0)

    y = profile.grid
    write_csv(
        outs.path("mode_profile.csv"),
        ("y_nm", "e_x", "e_y"),
        y,
        profile.e_x,
        profile.e_y,
    )
    phis, gammas, intensities = emission.figure1c_curves(
        scene, weights, r, DipoleOrientation.Y
    )
    write_csv(
        outs.path("fig1c.csv"),
        ("phi_rad", "gamma_total", "intensity_rel"),
        phis,
        gammas,
        intensities,
    )
    offsets, nu_i, nu_g = emission.figure1d_curves(profile, scene, r)
    write_csv(outs.path("fig1d.csv"), ("y0_nm", "nu_I", "nu_gamma"), offsets, nu_i, nu_g)

    svgplot.write_line_plot(
        outs.path("mode_profile.svg"),
        [("e_y", y, profile.e_y), ("e_x", y, profile.e_x)],
        f"TE0 profile, n_eff = {profile.n_eff:.6f}",
        "y (nm)",
        "field (norm.)",
    )
    svgplot.write_line_plot(
        outs.path("fig1c.svg"),
        [("decay rate (1/ns)", phis, gammas), ("rel. intensity", phis, intensities)],
        f"phase response at |r_T| = {r:g}",
        "phi (rad)",
        "modulated quantity",
    )
    svgplot.write_line_plot(
        outs.path("fig1d.svg"),
        [("nu_I", offsets, nu_i), ("nu_gamma", offsets, nu_g)],
        f"visibility vs lateral offset at |r_T| = {r:g}",
        "y0 (nm)",
        "visibility",
    )
    outs.manifest(
        "mode", cfg, n_eff=profile.n_eff, k_rad_per_nm=profile.k, r_T_mag=r
    )


def cmd_mirror(args: argparse.Namespace, cfg: RunConfig, outs: _Outputs) -> None:
    spec = cfg.crystal()
    lams, r, power = opticalstack.reflectivity_sweep(spec, np.linspace(*cfg.mirror_sweep))
    write_csv(
        outs.path("mirror_sweep.csv"),
        ("lambda_nm", "r_re", "r_im", "R_power"),
        lams,
        r.real,
        r.imag,
        power,
    )
    svgplot.write_line_plot(
        outs.path("mirror_sweep.svg"),
        [("|r|^2", lams, power)],
        f"mirror reflectivity, {spec.n_holes} holes, pitch {spec.pitch_nm:g} nm",
        "wavelength (nm)",
        "power reflectivity",
    )
    outs.manifest("mirror", cfg, bragg_wavelength_nm=spec.bragg_wavelength_nm)


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig, outs: _Outputs) -> None:
    profile = _solve(cfg)
    scene = cfg.scene(profile.k)
    weights = modesolver.mode_weights(profile, scene.y0)
    sweep = cfg.sweep
    phis, counts, histograms = synthlab.generate_sweep(
        scene, weights, cfg.r_T_mag, cfg.calibration, sweep, cfg.seed
    )
    voltages = sweep.voltages()
    synthlab.write_sweep_csv((voltages, phis, counts), outs.path("sweep.csv"))
    synthlab.write_histogram_csv((sweep.bin_edges(), histograms), outs.path("histograms.csv"))
    svgplot.write_line_plot(
        outs.path("sweep.svg"),
        [("intensity (counts)", voltages, counts)],
        f"simulated sweep, |r_T| = {cfg.r_T_mag:g}",
        "voltage (V)",
        "collected intensity",
    )
    outs.manifest("simulate", cfg, config=cfg.raw)


def _verify_inputs(in_dir: str, manifest_path: str, manifest: dict, cfg: RunConfig) -> None:
    """Check the manifest's config hash and the SHA-256 of every file it lists.

    Each listed name must be a plain name (no separator, not . or ..)
    of a regular file in in_dir, not a link: so no name reads a file
    outside in_dir, and none reads a device or a pipe forever.
    """
    if manifest.get("config_hash") != cfg.hash:
        raise ConfigError(f"{manifest_path}: config_hash does not match its config")
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ConfigError(f"{manifest_path}: 'files' must map file names to SHA-256s")
    for name in ("sweep.csv", "histograms.csv"):
        if name not in files:
            raise ConfigError(f"{manifest_path}: {name} is not in its 'files' map")
    for name, digest in files.items():
        if os.path.basename(name) != name or name in ("", ".", ".."):
            raise ConfigError(f"{manifest_path}: {name!r} is not a plain file name")
        path = os.path.join(in_dir, name)
        try:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
            matches = regular and file_sha256(path) == digest
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"{path!r}: cannot be read: {reason}") from None
        if not regular:
            raise ConfigError(f"{manifest_path}: {name!r} is not a regular file")
        if not matches:
            raise ConfigError(f"{path}: SHA-256 does not match the manifest")


def _analyze_sweep_dir(args: argparse.Namespace, outs: _Outputs) -> None:
    # Only analyze needs the inference layer, and a fresh process without a
    # bytecode cache compiles every module it imports: the other commands
    # leave it (and csv) unloaded.
    from . import inference

    if args.seed is not None or args.config or args.preset:
        raise ConfigError("analyze --in takes its config from the manifest")
    manifest_path = os.path.join(args.in_dir, "manifest.json")
    manifest = read_json(manifest_path)
    if (
        not isinstance(manifest, dict)
        or manifest.get("command") != "simulate"
        or "config" not in manifest
    ):
        raise ConfigError(f"{manifest_path}: not a simulate manifest")
    cfg = RunConfig.from_dict(manifest["config"])
    _verify_inputs(args.in_dir, manifest_path, manifest, cfg)

    voltages, phases, counts = synthlab.read_sweep_csv(os.path.join(args.in_dir, "sweep.csv"))
    hist_path = os.path.join(args.in_dir, "histograms.csv")
    histograms = synthlab.read_histogram_csv(hist_path, cfg.sweep.bin_edges())
    if len(histograms) != len(voltages):
        raise MalformedCSV(
            f"{hist_path}: {len(histograms)} histograms for {len(voltages)} sweep rows"
        )
    names = synthlab.histogram_header(len(histograms))[1:]
    profile = _solve(cfg)
    result = inference.analyze_sweep(
        phases,
        counts,
        histograms,
        cfg.sweep,
        profile=profile,
        histogram_names=[f"{hist_path} {name}" for name in names],
    )
    write_json(outs.path("report.json"), result)
    gamma = [f["derived"]["gamma_rad"] for f in result["rate_fits"]]
    sigma = [f["derived"]["gamma_rad_sigma"] for f in result["rate_fits"]]
    write_csv(
        outs.path("rates.csv"),
        ("phi_rad", "gamma_rad", "gamma_rad_sigma"),
        phases,
        gamma,
        sigma,
    )

    order = np.argsort(phases)
    svgplot.write_line_plot(
        outs.path("rates.svg"),
        [("gamma_rad (1/ns)", phases[order], np.asarray(gamma)[order])],
        f"fitted radiative rate, nu_gamma = {result['nu_gamma']:.3f}",
        "phi (rad)",
        "rate (1/ns)",
    )
    svgplot.write_line_plot(
        outs.path("intensity.svg"),
        [("counts", phases[order], np.asarray(counts)[order])],
        f"intensity fringe, nu_I = {result['nu_I']:.3f}",
        "phi (rad)",
        "counts",
    )
    outs.manifest("analyze", cfg, source="sweep")


def _analyze_table(args: argparse.Namespace, cfg: RunConfig, outs: _Outputs) -> None:
    from . import inference  # see _analyze_sweep_dir

    rows = inference.read_table1_csv(args.table1)
    report = inference.table1_report(rows, profile=_solve(cfg))
    write_json(outs.path("report.json"), report)
    outs.manifest("analyze", cfg, source="table1")


def cmd_analyze(args: argparse.Namespace, cfg: RunConfig | None, outs: _Outputs) -> None:
    if bool(args.in_dir) == bool(args.table1):
        raise ConfigError("analyze needs exactly one of --in or --table1")
    if args.table1:
        _analyze_table(args, cfg, outs)
    else:
        _analyze_sweep_dir(args, outs)


_DISPATCH = {
    "mode": cmd_mode,
    "mirror": cmd_mirror,
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
}

# exit 2: the input is wrong, or a path cannot be used; exit 3: a value
# computed from valid input is unusable.  Any other exception is a fault.
_INPUT_ERRORS = (
    InputError,
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


def _keep_simulate_manifest(args: argparse.Namespace) -> None:
    """Refuse an --out that holds a simulate manifest, unless simulating.

    That manifest is what `analyze --in` verifies the sweep against; the
    manifest of any other command would replace it.
    """
    path = os.path.join(args.out, "manifest.json")
    if args.command == "simulate" or not os.path.isfile(path):
        return
    try:
        manifest = read_json(path)
    except ConfigError:
        return  # not JSON: not a simulate manifest either
    if not isinstance(manifest, dict) or manifest.get("command") != "simulate":
        return
    if args.command == "analyze" and args.in_dir and os.path.samefile(args.out, args.in_dir):
        raise ConfigError(f"--out {args.out!r} is the --in directory")
    raise ConfigError(f"{path}: only simulate writes over a simulate manifest")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _keep_simulate_manifest(args)
        # analyze --in takes its config from the simulate manifest
        sweep_dir = args.command == "analyze" and args.in_dir
        cfg = None if sweep_dir else _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        _DISPATCH[args.command](args, cfg, _Outputs(args.out))
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
