import codecs
import copy
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import phasemirror
from helpers import builtin_table1_path
from oracles import ExcitonModel, generate_decay_histogram
from phasemirror import config, inference
from phasemirror.cli import build_parser, main
from phasemirror.config import DEFAULT_CONFIG, QD1_PRESET
from phasemirror.csvio import read_csv, write_csv
from phasemirror.emission import visibility_intensity_mixed
from phasemirror.modesolver import mode_weights, solve_te0
from phasemirror.synthlab import histogram_header


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_manifest_json(out_dir, man):
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(man, fh, sort_keys=True, indent=2)


def rehash(out_dir, name):
    """Record the current SHA-256 of one file in the manifest."""
    man = read_manifest(out_dir)
    man["files"][name] = sha256(os.path.join(out_dir, name))
    write_manifest_json(out_dir, man)


def replace_histogram(out_dir, j, counts):
    """Put new counts into column counts_j of histograms.csv and rehash it."""
    path = os.path.join(out_dir, "histograms.csv")
    header = histogram_header(DEFAULT_CONFIG["sweep"]["n_points"])
    columns = read_csv(path, header)
    columns[j + 1] = counts
    write_csv(path, header, *columns)
    rehash(out_dir, "histograms.csv")


def fresh_env():
    """The environment of a fresh interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phasemirror.__file__)))


def sweep_counts(out_dir):
    with open(os.path.join(out_dir, "sweep.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[2]) for r in rows[1:]])


@pytest.fixture(scope="module")
def mode_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "mode")
    assert main(["mode", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "sim")
    assert main(["simulate", "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def analysis_dir(tmp_path_factory, sim_dir):
    out = str(tmp_path_factory.mktemp("cli") / "ana")
    assert main(["analyze", "--in", sim_dir, "--out", out]) == 0
    return out


class TestManifests:
    def test_mode_manifest_hashes_verify(self, mode_dir):
        """Every listed file exists and matches its recorded SHA-256."""
        man = read_manifest(mode_dir)
        assert man["command"] == "mode"
        assert len(man["config_hash"]) == 64
        assert man["seed"] == DEFAULT_CONFIG["seed"]
        assert man["files"]
        for name, digest in man["files"].items():
            assert sha256(os.path.join(mode_dir, name)) == digest

    def test_simulate_manifest_lists_all_histograms(self, sim_dir):
        # one table holds every histogram, a counts_j column per sweep row
        man = read_manifest(sim_dir)
        assert man["command"] == "simulate"
        assert "histograms" not in man
        assert set(man["files"]) == {"sweep.csv", "histograms.csv", "sweep.svg"}
        path = os.path.join(sim_dir, "histograms.csv")
        assert sha256(path) == man["files"]["histograms.csv"]
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        n = DEFAULT_CONFIG["sweep"]["n_points"]
        assert header == ["t_ns"] + [f"counts_{j:03d}" for j in range(n)]


    @pytest.mark.parametrize(
        "args",
        [
            ["mode"],
            ["mirror"],
            ["simulate"],
            ["analyze", "--in", "<sim>"],
            ["analyze", "--table1", builtin_table1_path()],
        ],
        ids=["mode", "mirror", "simulate", "analyze-in", "analyze-table1"],
    )
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, sim_dir, args):
        out = str(tmp_path / "out")
        assert main([a.replace("<sim>", sim_dir) for a in args] + ["--out", out]) == 0
        written = set(os.listdir(out)) - {"manifest.json"}
        assert set(read_manifest(out)["files"]) == written

    @pytest.mark.parametrize(
        "runs",
        [
            [["mode"]],
            [["mirror"]],
            [["simulate", "--preset", "qd1", "--seed", "7"], ["analyze", "--in", "<0>"]],
            [["simulate", "--config", "<irf>", "--seed", "7"], ["analyze", "--in", "<0>"]],
            [["simulate", "--config", "<noiseless>"], ["analyze", "--in", "<0>"]],
            [["simulate", "--config", "<floor>", "--seed", "0"], ["analyze", "--in", "<0>"]],
            [["analyze", "--table1", builtin_table1_path()]],
        ],
        ids=[
            "mode",
            "mirror",
            "simulate-analyze-qd1",
            "simulate-analyze-qd1-irf",
            "simulate-analyze-qd1-noiseless",
            "simulate-analyze-qd1-floor",
            "analyze-table1",
        ],
    )
    def test_every_json_written_reads_back(self, tmp_path, runs):
        # the floor run's reports hold the sigma of a floor fitted at 0,
        # a flat direction, which is null
        variants = {
            "irf": {"irf_sigma_ns": 0.2},
            "noiseless": {"counts_scale": None},
            "floor": {"n_points": 48, "background": 1.0},
        }
        for name, sweep in variants.items():
            doc = copy.deepcopy(QD1_PRESET)
            doc["sweep"].update(sweep)
            config.write_json(str(tmp_path / f"{name}.json"), doc)
        outs = []
        for args in runs:
            outs.append(str(tmp_path / f"out{len(outs)}"))
            paths = {"<0>": outs[0], **{f"<{n}>": str(tmp_path / f"{n}.json") for n in variants}}
            assert main([paths.get(a, a) for a in args] + ["--out", outs[-1]]) == 0
        names = [os.path.join(out, n) for out in outs for n in os.listdir(out) if n.endswith(".json")]
        assert names
        for path in names:
            with open(path, encoding="utf-8") as fh:
                assert config.read_json(path) == json.load(fh)

    @pytest.mark.parametrize(
        "args", [["analyze", "--in", "<sim>"], ["mode"]], ids=["analyze-in", "mode"]
    )
    def test_out_that_holds_a_simulate_manifest_is_input_error(
        self, tmp_path, sim_dir, capsys, args
    ):
        # only simulate may replace the manifest that analyze --in verifies
        d = str(tmp_path / "d")
        shutil.copytree(sim_dir, d)
        path = os.path.join(d, "manifest.json")
        before = sorted(os.listdir(d)), sha256(path)
        assert main([a.replace("<sim>", sim_dir) for a in args] + ["--out", d]) == 2
        assert f"{path}: only simulate writes over a simulate manifest" in capsys.readouterr().err
        assert (sorted(os.listdir(d)), sha256(path)) == before
        assert main(["analyze", "--in", d, "--out", str(tmp_path / "e")]) == 0
        assert main(["simulate", "--out", d]) == 0

    @pytest.mark.parametrize(
        "commands, as_float",
        [
            (["mode"], []),
            (["mirror"], []),
            # the schema's integer takes N.0, which runs as N
            (
                ["mode", "mirror", "simulate", "analyze"],
                ["sweep.n_points", "sweep.n_bins", "mirror.sweep_points", "mirror.n_holes"],
            ),
        ],
        ids=["mode", "mirror", "integer-valued-floats"],
    )
    def test_rerun_writes_an_identical_manifest(self, tmp_path, commands, as_float):
        # the manifest holds the SHA-256 of every file the command wrote;
        # the second run's config writes the integer keys as_float as N.0
        doc = copy.deepcopy(DEFAULT_CONFIG)
        outputs = []
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(doc))
            for command in commands:
                out = tmp_path / name / command
                source = ["--in", str(tmp_path / name / "simulate")]
                args = source if command == "analyze" else ["--config", str(cfg)]
                assert main([command, *args, "--out", str(out)]) == 0
            outputs.append({
                path.relative_to(tmp_path / name): path.read_bytes()
                for path in (tmp_path / name).rglob("*") if path.is_file()
            })
            for dotted in as_float:
                section, key = dotted.split(".")
                doc[section][key] = float(doc[section][key])
        assert outputs[0] == outputs[1]


class TestModeCommand:
    def test_outputs_present(self, mode_dir):
        for name in ("mode_profile.csv", "fig1c.csv", "fig1d.csv", "fig1d.svg"):
            assert os.path.exists(os.path.join(mode_dir, name))

    def test_centered_emitter_visibilities(self, mode_dir):
        # at y0 = 0 the y dipole sees the full fringe: nu_I = 2r/(1+r^2)
        with open(os.path.join(mode_dir, "fig1d.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y0_nm", "nu_I", "nu_gamma"]
        center = [r for r in rows[1:] if float(r[0]) == 0.0]
        assert len(center) == 1
        assert float(center[0][1]) == pytest.approx(0.8, abs=1e-9)
        assert float(center[0][2]) == pytest.approx(0.25 / 1.1, abs=1e-9)

    @pytest.mark.parametrize(
        "source, r_T_mag",
        [
            (["--preset", "qd1"], 0.6),
            # the one optional key left out: |r_T| of the default mirror
            # chain, about 0.4959
            (["--config", "<no_r_T_mag>"], None),
        ],
        ids=["qd1-preset", "config-without-r_T_mag"],
    )
    def test_manifest_records_the_r_T_mag_in_use(self, tmp_path, default_cfg, source, r_T_mag):
        cfg_path = str(tmp_path / "no_r_T_mag.json")
        config.write_json(cfg_path, {k: v for k, v in DEFAULT_CONFIG.items() if k != "r_T_mag"})
        out = str(tmp_path / "out")
        args = [a.replace("<no_r_T_mag>", cfg_path) for a in source]
        assert main(["mode", *args, "--out", out]) == 0
        expected = default_cfg.chain.magnitude if r_T_mag is None else r_T_mag
        assert read_manifest(out)["r_T_mag"] == expected

    def test_zero_background_rate_gives_finite_curves(self, tmp_path):
        # with gamma_b = 0, beta_x = gamma_x / (gamma_x + gamma_b) is 0/0
        # at the centre, where e_x vanishes; beta is 0 there
        data = copy.deepcopy(DEFAULT_CONFIG)
        data["emitter"]["gamma_b"] = 0.0
        cfg_path = tmp_path / "gb0.json"
        cfg_path.write_text(json.dumps(data))
        out = str(tmp_path / "mode")
        assert main(["mode", "--config", str(cfg_path), "--out", out]) == 0
        with open(os.path.join(out, "fig1d.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y0_nm", "nu_I", "nu_gamma"]
        values = np.array(rows[1:], dtype=float)
        assert values.shape == (201, 3)
        assert np.all(np.isfinite(values))


class TestMirrorCommand:
    def test_sweep_written(self, tmp_path):
        out = str(tmp_path / "mir")
        assert main(["mirror", "--out", out]) == 0
        man = read_manifest(out)
        assert man["bragg_wavelength_nm"] == pytest.approx(949.96)
        with open(os.path.join(out, "mirror_sweep.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == DEFAULT_CONFIG["mirror"]["sweep_points"]


class TestSimulateCommand:
    def test_rerun_is_byte_identical(self, tmp_path, sim_dir):
        out = str(tmp_path / "again")
        assert main(["simulate", "--out", out]) == 0
        a, b = read_manifest(sim_dir), read_manifest(out)
        assert a["files"] == b["files"]
        assert sha256(os.path.join(sim_dir, "sweep.csv")) == sha256(
            os.path.join(out, "sweep.csv")
        )

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "threads"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--threads", "4", "--out", str(out)])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_the_draws(self, tmp_path, sim_dir):
        out = str(tmp_path / "seeded")
        assert main(["simulate", "--seed", "1", "--out", out]) == 0
        assert not np.array_equal(sweep_counts(out), sweep_counts(sim_dir))

    def test_zero_reflectivity_gives_flat_sweep(self, tmp_path, sim_dir):
        data = copy.deepcopy(DEFAULT_CONFIG)
        data["r_T_mag"] = 0.0
        cfg_path = tmp_path / "flat.json"
        cfg_path.write_text(json.dumps(data))
        out = str(tmp_path / "flat")
        assert main(["simulate", "--config", str(cfg_path), "--out", out]) == 0
        flat = sweep_counts(out)
        modulated = sweep_counts(sim_dir)
        assert (flat.max() - flat.min()) / flat.mean() < 0.05
        assert (modulated.max() - modulated.min()) / modulated.mean() > 0.5

    def test_table_calibration_matches_quadratic(self, tmp_path):
        # knots at the sweep's own voltages reproduce the quadratic map
        # exactly, so every output but the manifest keeps its bytes
        data = copy.deepcopy(QD1_PRESET)
        s, c = data["sweep"], data["calibration"]
        volts = np.linspace(s["v_start"], s["v_stop"], s["n_points"]).tolist()
        c["table"] = [[v, c["quad_coeff"] * v**2 + c["quad_offset"]] for v in volts]
        c["model"] = "table"
        cfg_path = tmp_path / "table.json"
        cfg_path.write_text(json.dumps(data))
        quad, table = str(tmp_path / "quad"), str(tmp_path / "table")
        assert main(["simulate", "--preset", "qd1", "--seed", "7", "--out", quad]) == 0
        args = ["--config", str(cfg_path), "--seed", "7", "--out", table]
        assert main(["simulate", *args]) == 0
        for name in ("sweep.csv", "histograms.csv", "sweep.svg"):
            assert sha256(os.path.join(table, name)) == sha256(os.path.join(quad, name))
        for d in (quad, table):
            assert main(["analyze", "--in", d, "--out", d + "-fit"]) == 0
        assert sha256(os.path.join(table + "-fit", "report.json")) == sha256(
            os.path.join(quad + "-fit", "report.json")
        )


class TestAnalyzeCommand:
    def test_noiseless_sweep_gives_the_forward_visibilities(self, tmp_path):
        # expectation values in, the forward model's visibilities out: the
        # intensity model at the preset's mode weights, and the rate-weighted
        # two-dipole contrast r |gx0 - gy0| / (gx0 + gy0 + 2 gb) of the
        # local rates
        data = copy.deepcopy(QD1_PRESET)
        data["sweep"]["counts_scale"] = None
        cfg_path = str(tmp_path / "noiseless.json")
        config.write_json(cfg_path, data)
        sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
        assert main(["simulate", "--config", cfg_path, "--out", sim]) == 0
        assert main(["analyze", "--in", sim, "--out", fit]) == 0
        rep = config.read_json(os.path.join(fit, "report.json"))
        cfg = config.RunConfig.from_dict(data)
        profile = solve_te0(cfg.geometry(), n_points=cfg.grid_points)
        r, e = cfg.r_T_magnitude(), data["emitter"]
        nu_i = visibility_intensity_mixed(r, mode_weights(profile, e["y0_nm"]))
        nu_g = r * abs(e["gamma_x0"] - e["gamma_y0"]) / (
            e["gamma_x0"] + e["gamma_y0"] + 2.0 * e["gamma_b"]
        )
        assert rep["nu_I"] == pytest.approx(nu_i, rel=0.0, abs=1e-9)
        assert rep["nu_gamma"] == pytest.approx(nu_g, rel=0.0, abs=1e-9)

    def test_fringe_of_no_counts_is_numerical_failure(self, tmp_path, capsys):
        # a count scale so small that every intensity count is 0 leaves the
        # fringe's mean 0 and its visibility undefined
        data = copy.deepcopy(QD1_PRESET)
        data["sweep"]["counts_scale"] = 1e-300
        cfg_path = str(tmp_path / "dark.json")
        config.write_json(cfg_path, data)
        sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
        assert main(["simulate", "--config", cfg_path, "--out", sim]) == 0
        assert not sweep_counts(sim).any()
        assert main(["analyze", "--in", sim, "--out", fit]) == 3
        assert "the fringe's mean is 0" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(fit, "report.json"))

    def test_round_trip_report(self, analysis_dir):
        with open(os.path.join(analysis_dir, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        assert len(rep["rate_fits"]) == DEFAULT_CONFIG["sweep"]["n_points"]
        # default scene: centered pure-y emitter at |r_T| = 0.5
        assert rep["nu_I"] == pytest.approx(0.8, abs=0.05)
        assert rep["estimate"] is not None
        assert rep["estimate"]["feasible_slices"]
        man = read_manifest(analysis_dir)
        assert man["command"] == "analyze"
        assert man["source"] == "sweep"
        assert os.path.exists(os.path.join(analysis_dir, "rates.csv"))

    def test_declared_background_is_fitted(self, tmp_path):
        # the qd1 emitter toggles with nu_gamma = 0.2495; an unfitted
        # 10-count floor biases it low by about 3 sigma
        data = copy.deepcopy(QD1_PRESET)
        data["sweep"]["background"] = 10.0
        data["seed"] = 0
        cfg_path = tmp_path / "bg.json"
        cfg_path.write_text(json.dumps(data))
        sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
        assert main(["simulate", "--config", str(cfg_path), "--out", sim]) == 0
        assert main(["analyze", "--in", sim, "--out", fit]) == 0
        with open(os.path.join(fit, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        assert rep["nu_gamma"] == pytest.approx(0.2495, abs=0.006)
        # each fitted floor carries sigma ~ 2.3 counts, their mean ~ 0.7
        floors = [f["params"]["background"] for f in rep["rate_fits"]]
        assert np.mean(floors) == pytest.approx(10.0, abs=2.0)

    def test_requires_exactly_one_source(self, tmp_path, sim_dir):
        both = main(
            [
                "analyze",
                "--in",
                sim_dir,
                "--table1",
                builtin_table1_path(),
                "--out",
                str(tmp_path / "x1"),
            ]
        )
        neither = main(["analyze", "--out", str(tmp_path / "x2")])
        assert both == 2
        assert neither == 2

    def test_in_mode_rejects_config_overrides(self, tmp_path, sim_dir):
        # the manifest carries the config; overrides would desynchronize it
        rc = main(
            ["analyze", "--in", sim_dir, "--seed", "5", "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        rc = main(
            [
                "analyze",
                "--in",
                sim_dir,
                "--preset",
                "qd1",
                "--out",
                str(tmp_path / "y"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("alias", ["same", "dot", "link"])
    def test_out_that_is_the_in_directory_is_input_error(
        self, tmp_path, sim_dir, capsys, alias
    ):
        # the analyze manifest would replace the one that verifies the inputs
        d = str(tmp_path / "d")
        shutil.copytree(sim_dir, d)
        out = {"same": d, "dot": os.path.join(d, "."), "link": str(tmp_path / "l")}[alias]
        if alias == "link":
            os.symlink(d, out)
        before = sorted(os.listdir(d)), sha256(os.path.join(d, "manifest.json"))
        assert main(["analyze", "--in", d, "--out", out]) == 2
        assert "is the --in directory" in capsys.readouterr().err
        assert (sorted(os.listdir(d)), sha256(os.path.join(d, "manifest.json"))) == before
        assert main(["analyze", "--in", d, "--out", str(tmp_path / "e")]) == 0

    def test_rejects_non_simulate_directory(self, tmp_path, mode_dir):
        rc = main(["analyze", "--in", mode_dir, "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize(
        "name, text",
        [
            ("sweep.csv", "bogus,phi_rad,intensity_counts\n0.0,0.0,100\n"),
            ("sweep.csv", "voltage,phi_rad,intensity_counts\n0.0,0.0\n"),
            ("histograms.csv", "t_ns,counts_000\n0.025,10\n0.075\n"),
        ],
    )
    def test_malformed_input_csv_is_input_error(
        self, tmp_path, sim_dir, capsys, name, text
    ):
        # the manifest hash is rewritten, so the CSV reader is what rejects it
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        with open(os.path.join(broken, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        rehash(broken, name)
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "SHA-256" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, lineno, col, token",
        [
            ("histograms.csv", 5, 4, "nan"),
            ("histograms.csv", 9, 0, "nan"),
            ("histograms.csv", 7, 4, "inf"),
            ("sweep.csv", 4, 2, "nan"),
            ("sweep.csv", 6, 0, "-inf"),
        ],
    )
    def test_non_finite_input_cell_is_input_error(
        self, tmp_path, sim_dir, capsys, name, lineno, col, token
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        path = os.path.join(broken, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        cells = lines[lineno - 1].split(",")
        cells[col] = token
        lines[lineno - 1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        rehash(broken, name)
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{name} line {lineno}" in err and "not a finite number" in err
        assert f"{lines[0].split(',')[col]} is {token}," in err

    def test_non_utf8_input_csv_is_input_error(self, tmp_path, sim_dir, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        path = os.path.join(broken, "histograms.csv")
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[2] += b"\xff"
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        rehash(broken, "histograms.csv")
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        # the byte decodes as U+FFFD, which the ASCII check refuses on its line
        assert "histograms.csv line 3: not a row as written" in err and "outside ASCII" in err

    def test_histograms_are_fitted_on_the_config_bin_edges(
        self, tmp_path, sim_dir, monkeypatch
    ):
        fitted, fit = [], inference.fit_biexponential

        def fit_biexponential(bin_edges, counts, *args, **kwargs):
            fitted.append(np.asarray(bin_edges))
            return fit(bin_edges, counts, *args, **kwargs)

        monkeypatch.setattr(inference, "fit_biexponential", fit_biexponential)
        assert main(["analyze", "--in", sim_dir, "--out", str(tmp_path / "x")]) == 0
        edges = config.RunConfig.from_dict(read_manifest(sim_dir)["config"]).sweep.bin_edges()
        assert len(fitted) == DEFAULT_CONFIG["sweep"]["n_points"]
        assert all(e.tobytes() == edges.tobytes() for e in fitted)

    @pytest.mark.parametrize(
        "edit, named",
        [
            # the first t_ns cell one ulp up, every line ended in CR LF, and
            # a negative count in the first histogram's last bin
            ("t_ns", "histograms.csv line 2: t_ns is 0.025000000000000005,"),
            ("crlf", "histograms.csv line 1: column 13 is 'counts_011\\r'"),
            ("negative", "histograms.csv line 501: counts_000 is -1.0, a negative count"),
        ],
    )
    def test_edited_rehashed_histogram_table_is_input_error(
        self, tmp_path, sim_dir, capsys, edit, named
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        path = os.path.join(broken, "histograms.csv")
        if edit in ("t_ns", "negative"):
            header = histogram_header(DEFAULT_CONFIG["sweep"]["n_points"])
            columns = read_csv(path, header)
            if edit == "t_ns":
                columns[0][0] = np.nextafter(columns[0][0], np.inf)
            else:
                columns[1][-1] = -1.0
            write_csv(path, header, *columns)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b"\n", b"\r\n"))
        rehash(broken, "histograms.csv")
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
    def test_non_utf8_table_is_input_error(self, tmp_path, capsys, bom):
        table = tmp_path / "table1.csv"
        with open(builtin_table1_path(), "rb") as fh:
            data = bom + fh.read().replace(b"\n", b"\n\xff", 1)
        table.write_bytes(data)
        rc = main(["analyze", "--table1", str(table), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{table} line 2" in err and "can't decode byte 0xff" in err
        # the position is the byte's offset in the file, BOM included
        offset = data.index(b"\xff")
        assert f"in position {offset}:" in err

    @pytest.mark.parametrize(
        "damage, why",
        [
            ("repeated column", "line 1: repeated columns ['nu_I']"),
            ("extra cell", "line 3: expected 9 columns, got 10"),
            ("missing cell", "line 3: expected 9 columns, got 8"),
        ],
        ids=["repeated_column", "extra_cell", "missing_cell"],
    )
    def test_table_of_other_shape_is_input_error(self, tmp_path, capsys, damage, why):
        with open(builtin_table1_path(), encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if damage == "repeated column":
            # the second nu_I would give QD1 0.99 in place of its 0.42
            lines[0] += ",nu_I"
            lines[1:] = [line + ",0.99" if line else line for line in lines[1:]]
        elif damage == "extra cell":
            lines[2] += ",7"
        else:
            lines[2] = lines[2].rsplit(",", 1)[0]
        table = tmp_path / "table1.csv"
        table.write_text("\n".join(lines), encoding="utf-8")
        rc = main(["analyze", "--table1", str(table), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{table} {why}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "col, value, why",
        [
            ("nu_I", "1.2", "must lie in [0, 1]"),
            ("nu_I", "nan", "not finite"),
            ("nu_gamma", "-0.1", "must lie in [0, 1]"),
            ("nu_gamma_err", "0", "must be positive"),
            ("gamma_min", "-0.1", "must be positive"),
            ("gamma_max", "0.5", "is below gamma_min"),
        ],
    )
    def test_out_of_range_table_cell_is_input_error(
        self, tmp_path, capsys, col, value, why
    ):
        with open(builtin_table1_path(), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        rows[2][col] = value
        table = tmp_path / "table1.csv"
        with open(table, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        rc = main(["analyze", "--table1", str(table), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{table} line 4: {col}=" in err and why in err

    def test_tampered_input_is_input_error(self, tmp_path, sim_dir, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        with open(os.path.join(broken, "histograms.csv"), "w", encoding="utf-8") as fh:
            fh.write("t_ns,counts_000\n0.025,10\n")
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "histograms.csv" in err and "SHA-256 does not match" in err

    @pytest.mark.parametrize(
        "damage",
        ["missing", "unlisted", "nul", "config_hash", "config", "outside", "link", "device"],
    )
    def test_manifest_that_does_not_vouch_for_inputs_is_input_error(
        self, tmp_path, sim_dir, capsys, damage
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        man = read_manifest(broken)
        sweep = os.path.join(sim_dir, "sweep.csv")
        if damage == "missing":
            os.remove(os.path.join(broken, "histograms.csv"))
            named = "histograms.csv"
        elif damage == "unlisted":
            del man["files"]["histograms.csv"]
            named = "histograms.csv"
        elif damage == "nul":
            man["files"]["hist\x00.csv"] = "0" * 64
            named = "hist\\x00.csv"
        elif damage == "config_hash":
            man["config_hash"] = "0" * 64
            named = "config_hash"
        elif damage == "outside":
            # a true digest of a file beside the input directory
            os.mkdir(tmp_path / "other")
            shutil.copy(sweep, tmp_path / "other")
            named = "../other/sweep.csv"
            man["files"][named] = sha256(sweep)
        elif damage == "link":
            os.symlink(sweep, os.path.join(broken, "link.csv"))
            named = "link.csv"
            man["files"][named] = sha256(sweep)
        elif damage == "device":
            named = "/dev/zero"
            man["files"][named] = "0" * 64
        else:
            man["config"]["sweep"]["background"] = 1.0
            named = "config_hash"
        write_manifest_json(broken, man)
        args = ["analyze", "--in", broken, "--out", str(tmp_path / "x")]
        if damage == "device":
            # through python -m phasemirror, so a read that never ends
            # fails the test instead of hanging it
            proc = subprocess.run(
                [sys.executable, "-m", "phasemirror", *args],
                env=fresh_env(), capture_output=True, text=True, timeout=60,
            )
            rc, err = proc.returncode, proc.stderr
        else:
            rc, err = main(args), capsys.readouterr().err
        assert rc == 2
        assert named in err

    @pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe{}", b"[1, 2]"])
    def test_manifest_that_is_not_json_is_input_error(
        self, tmp_path, sim_dir, capsys, raw
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        with open(os.path.join(broken, "manifest.json"), "wb") as fh:
            fh.write(raw)
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_per_file_histogram_layout_is_input_error(self, tmp_path, sim_dir, capsys):
        # the earlier layout: hist_000.csv, hist_001.csv, ... each holding
        # t_ns,counts, listed under the manifest's 'histograms' key
        old = str(tmp_path / "old")
        shutil.copytree(sim_dir, old)
        path = os.path.join(old, "histograms.csv")
        t_ns, *counts = read_csv(path, histogram_header(DEFAULT_CONFIG["sweep"]["n_points"]))
        os.remove(path)
        names = [f"hist_{j:03d}.csv" for j in range(len(counts))]
        for name, column in zip(names, counts):
            write_csv(os.path.join(old, name), ("t_ns", "counts"), t_ns, column)
        man = read_manifest(old)
        del man["files"]["histograms.csv"]
        man["files"].update({name: sha256(os.path.join(old, name)) for name in names})
        man["histograms"] = names
        write_manifest_json(old, man)
        rc = main(["analyze", "--in", old, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "histograms.csv is not in its 'files' map" in capsys.readouterr().err

    def test_histogram_count_other_than_sweep_rows_is_input_error(
        self, tmp_path, sim_dir, capsys
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        n = DEFAULT_CONFIG["sweep"]["n_points"]
        path = os.path.join(broken, "histograms.csv")
        columns = read_csv(path, histogram_header(n))
        write_csv(path, histogram_header(n - 1), *columns[:-1])
        rehash(broken, "histograms.csv")
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"histograms.csv: {n - 1} histograms for {n} sweep rows" in err

    def test_degenerate_histogram_is_numerical_failure(self, tmp_path, sim_dir, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        bad = generate_decay_histogram(
            ExcitonModel(gamma_f=1.0, gamma_s=0.8, amp_ratio=1.0),
            1e5,
            bin_edges=np.linspace(
                0.0,
                DEFAULT_CONFIG["sweep"]["t_max_ns"],
                DEFAULT_CONFIG["sweep"]["n_bins"] + 1,
            ),
            seed=3,
        )
        replace_histogram(broken, 3, bad.counts)
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "histograms.csv counts_003: " in err and "degenerate" in err

    def test_histogram_peaking_at_its_end_is_numerical_failure(
        self, tmp_path, sim_dir, capsys
    ):
        broken = str(tmp_path / "broken")
        shutil.copytree(sim_dir, broken)
        replace_histogram(broken, 5, np.arange(DEFAULT_CONFIG["sweep"]["n_bins"]))
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "histograms.csv counts_005: " in err
        assert "too few bins after the peak" in err

    @pytest.mark.parametrize("n_points, seed, rc", [(12, 0, 0), (48, 23, 3)])
    def test_non_finite_rate_sigma_is_numerical_failure(
        self, tmp_path, capsys, n_points, seed, rc
    ):
        # with a 1-count floor, seed 0 leaves fits 1 and 7 singular with
        # finite rate sigmas; at 48 points, seed 23 leaves counts_019's
        # rate sigma nan, which must not reach the rate fringe fit
        data = copy.deepcopy(QD1_PRESET)
        data["sweep"]["n_points"] = n_points
        data["sweep"]["background"] = 1.0
        cfg_path = tmp_path / "floor.json"
        cfg_path.write_text(json.dumps(data))
        sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
        args = ["--config", str(cfg_path), "--seed", str(seed), "--out", sim]
        assert main(["simulate", *args]) == 0
        assert main(["analyze", "--in", sim, "--out", fit]) == rc
        if rc:
            err = capsys.readouterr().err
            assert "histograms.csv counts_019: gamma_rad = " in err
            assert err.rstrip().endswith("+/- nan")

    @pytest.mark.parametrize(
        "section, key, value, seed",
        [
            ("emitter", "gamma_nrad", 0.0, 0),  # a flat slow component
            ("sweep", "amp_ratio", 0.0, 1),  # one exponential
            ("emitter", "gamma_y0", 8.2, 0),  # trial steps whose exponentials overflow
        ],
    )
    def test_boundary_decay_configs_end_without_warning(self, tmp_path, section, key, value, seed):
        # pytest turns every RuntimeWarning into an error: the fits may
        # fail (exit 3), but none may warn
        data = copy.deepcopy(QD1_PRESET)
        data[section][key] = value
        cfg_path = tmp_path / "boundary.json"
        cfg_path.write_text(json.dumps(data))
        sim, fit = str(tmp_path / "sim"), str(tmp_path / "fit")
        assert main(["simulate", "--config", str(cfg_path), "--seed", str(seed), "--out", sim]) == 0
        assert main(["analyze", "--in", sim, "--out", fit]) in (0, 3)

    def test_table_report(self, tmp_path):
        out = str(tmp_path / "tab")
        assert main(["analyze", "--table1", builtin_table1_path(), "--out", out]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        assert len(rep["rows"]) == 6
        assert all(r["feasible"] for r in rep["rows"])
        assert read_manifest(out)["source"] == "table1"

    def test_table_that_starts_with_a_bom_gives_the_same_report(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte order mark
        table = tmp_path / "table1.csv"
        with open(builtin_table1_path(), "rb") as fh:
            table.write_bytes(codecs.BOM_UTF8 + fh.read())
        reports = []
        for name, path in [("plain", builtin_table1_path()), ("bom", str(table))]:
            out = tmp_path / name
            assert main(["analyze", "--table1", path, "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


class TestConfigErrors:
    def test_config_and_preset_conflict(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(DEFAULT_CONFIG))
        rc = main(
            [
                "mode",
                "--config",
                str(cfg_path),
                "--preset",
                "qd1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(
            ["mode", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]
        )
        assert rc == 2

    @pytest.mark.parametrize("raw", [b"{not json", b"\xff\xfe{}"])
    def test_config_that_is_not_json_is_input_error(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(raw)
        rc = main(["mode", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mode", "mirror", "simulate"])
    @pytest.mark.parametrize(
        "section, key, literal",
        [("geometry", "clad_index", "NaN"), ("mirror", "lambda_max_nm", "Infinity")],
    )
    def test_non_finite_json_is_input_error(
        self, tmp_path, capsys, command, section, key, literal
    ):
        # json.load parses these literals, but JSON has neither
        data = copy.deepcopy(DEFAULT_CONFIG)
        data[section][key] = 1.0
        text = json.dumps(data).replace(f'"{key}": 1.0', f'"{key}": {literal}')
        assert literal in text
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(text)
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mode", "mirror", "simulate"])
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("geometry", "clad_index", 3.6, "geometry: core_index must exceed clad_index"),
            (
                "mirror",
                "hole_radius_nm",
                140.0,
                "mirror: hole diameter must be smaller than the pitch",
            ),
            (
                "emitter",
                "y0_nm",
                500.0,
                "emitter.y0_nm: 500.0 nm lies outside the solved window (+-450.0 nm)",
            ),
            (
                "sweep",
                "background",
                200.0,
                "sweep.background: hist_counts must exceed the background budget"
                " background * n_bins",
            ),
            ("calibration", "v_range", [8.0, 0.0], "calibration.v_range: [8.0, 0.0] is reversed"),
        ],
    )
    def test_inconsistent_config_is_input_error(
        self, tmp_path, capsys, command, section, key, value, message
    ):
        # the schema accepts each value; together with the rest they
        # describe no device or no run (cladding above the core index,
        # holes wider than the 265 nm pitch, an emitter beyond the
        # +-450 nm solved window, a floor of 200 counts in each of 500
        # bins that leaves none of the 1e5 histogram counts for the decay,
        # a calibrated voltage range that runs backwards)
        data = copy.deepcopy(DEFAULT_CONFIG)
        data[section][key] = value
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        # named by its key, or by the section whose object refuses it
        assert capsys.readouterr().err == f"error: inconsistent config: {message}\n"
        assert not out.exists()

    def test_each_command_validates_its_config_once(
        self, tmp_path, sim_dir, monkeypatch
    ):
        calls = []
        walk = config._first_error

        def counted(data, *within):
            calls.append(within)  # () for a whole document, else a section
            return walk(data, *within)

        monkeypatch.setattr(config, "_first_error", counted)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(DEFAULT_CONFIG))
        runs = [
            ["mode", "--config", str(cfg_path), "--seed", "3"],
            ["analyze", "--in", sim_dir],
            ["analyze", "--table1", builtin_table1_path()],
        ]
        for i, args in enumerate(runs):
            calls.clear()
            assert main([*args, "--out", str(tmp_path / str(i))]) == 0
            assert calls.count(()) == 1, args

    @pytest.mark.parametrize("flag", ["--out", "--config", "--table1"])
    def test_unusable_path_is_input_error(self, tmp_path, capsys, flag):
        # an existing file as the output directory, a directory as a file
        taken = tmp_path / "taken"
        taken.write_text("")
        args = {
            "--out": ["mode", "--out", str(taken)],
            "--config": ["mode", "--config", str(tmp_path), "--out", str(tmp_path / "x")],
            "--table1": ["analyze", "--table1", str(tmp_path), "--out", str(tmp_path / "x")],
        }[flag]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_main_calls_parse_independently(tmp_path, sim_dir):
    # the parser is built once per process; every call gets a fresh
    # namespace, so no flag of one call reaches the next
    assert build_parser() is build_parser()
    runs = [
        (["analyze", "--in", sim_dir], None),
        (["mode", "--seed", "3"], 3),
        (["analyze", "--table1", builtin_table1_path()], DEFAULT_CONFIG["seed"]),
        (["mirror"], DEFAULT_CONFIG["seed"]),
    ]
    for i, (args, seed) in enumerate(runs):
        out = str(tmp_path / str(i))
        assert main([*args, "--out", out]) == 0, args
        if seed is not None:
            assert read_manifest(out)["seed"] == seed, args


def test_cli_import_leaves_heavy_modules_out():
    """`import phasemirror.cli` loads neither the heavy libraries nor the
    inference layer, which only analyze imports."""
    left_out = [
        "scipy",
        "jsonschema",
        "xml.sax",
        "urllib.request",
        "http.client",
        "email",
        "phasemirror.inference",
        "csv",
    ]
    code = f"import sys, phasemirror.cli; print([m for m in {left_out!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_only_analyze_loads_inference(tmp_path):
    """In a fresh interpreter, mode, mirror and simulate run without loading
    the inference layer; analyze --in and analyze --table1 each load it."""
    # each argv runs through cli.main in turn; prints [exit code, loaded] per run
    code = (
        "import json, sys\n"
        "from phasemirror.cli import main\n"
        "print(json.dumps([[main(argv), 'phasemirror.inference' in sys.modules]\n"
        "                  for argv in json.loads(sys.argv[1])]))"
    )

    def fresh(*runs):
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs)],
            env=fresh_env(), capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    sim = str(tmp_path / "sim")
    assert fresh(
        ["mode", "--preset", "qd1", "--out", str(tmp_path / "mode")],
        ["mirror", "--out", str(tmp_path / "mirror")],
        ["simulate", "--preset", "qd1", "--seed", "7", "--out", sim],
        ["analyze", "--in", sim, "--out", str(tmp_path / "fit")],
    ) == [[0, False], [0, False], [0, False], [0, True]]
    assert fresh(
        ["analyze", "--table1", builtin_table1_path(), "--out", str(tmp_path / "table1")],
    ) == [[0, True]]


def test_commands_run_without_jsonschema(tmp_path, capsys):
    """Each README command, run in a fresh process that cannot import
    jsonschema, writes the manifest an in-process run writes, and so the
    same bytes, as the manifest holds the SHA-256 of every file; a config
    error has the same text, naming its dotted key."""
    code = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from phasemirror.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    bad = copy.deepcopy(DEFAULT_CONFIG)
    bad["mirror"]["t_phi_sq"] = 1.5
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    runs = [
        (["mode", "--preset", "qd1"], "mode", 0),
        (["mirror"], "mirror", 0),
        (["simulate", "--preset", "qd1", "--seed", "7"], "sim", 0),
        (["analyze", "--in", "<out>/sim"], "fit", 0),
        (["analyze", "--table1", builtin_table1_path()], "table1", 0),
        (["mode", "--config", str(tmp_path / "bad.json")], "bad", 2),
    ]
    for args, name, rc in runs:
        sub, ref = str(tmp_path / "sub"), str(tmp_path / "ref")
        proc = subprocess.run(
            [sys.executable, "-c", code, *[a.replace("<out>", sub) for a in args],
             "--out", os.path.join(sub, name)],
            env=fresh_env(), capture_output=True, text=True,
        )
        capsys.readouterr()
        assert main([*[a.replace("<out>", ref) for a in args], "--out", os.path.join(ref, name)]) == rc
        assert proc.returncode == rc, proc.stderr
        if rc:
            assert proc.stderr == capsys.readouterr().err
            assert proc.stderr.startswith("error: invalid config: mirror.t_phi_sq: 1.5 ")
            continue
        with open(os.path.join(sub, name, "manifest.json"), "rb") as fh:
            got = fh.read()
        with open(os.path.join(ref, name, "manifest.json"), "rb") as fh:
            assert got == fh.read()
