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
from phasemirror import config
from phasemirror.cli import build_parser, main
from phasemirror.config import DEFAULT_CONFIG, QD1_PRESET, builtin_table1_path
from phasemirror.csvio import read_csv, write_csv
from phasemirror.synthlab import ExcitonModel, generate_decay_histogram, histogram_header


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

    @pytest.mark.parametrize("command", ["mode", "mirror"])
    def test_rerun_writes_an_identical_manifest(self, tmp_path, command):
        # the manifest holds the SHA-256 of every file the command wrote
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([command, "--out", str(out)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


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

    def test_preset_switches_parameters(self, tmp_path):
        out = str(tmp_path / "qd1")
        assert main(["mode", "--preset", "qd1", "--out", out]) == 0
        assert read_manifest(out)["r_T_mag"] == pytest.approx(0.6)

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


class TestAnalyzeCommand:
    def test_round_trip_report(self, analysis_dir):
        with open(os.path.join(analysis_dir, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        assert len(rep["rate_fits"]) == DEFAULT_CONFIG["sweep"]["n_points"]
        # default scene: centered pure-y emitter at |r_T| = 0.5
        assert rep["nu_I"] == pytest.approx(0.8, abs=0.05)
        assert rep["estimate"] is not None
        assert rep["estimate"]["n_feasible"] > 0
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
        assert "histograms.csv line 3" in err and "can't decode byte 0xff" in err

    def test_non_utf8_table_is_input_error(self, tmp_path, capsys):
        table = tmp_path / "table1.csv"
        with open(builtin_table1_path(), "rb") as fh:
            table.write_bytes(fh.read().replace(b"\n", b"\n\xff", 1))
        rc = main(["analyze", "--table1", str(table), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{table} line 2" in err and "can't decode byte 0xff" in err

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
        ["missing", "unlisted", "nul", "config_hash", "config", "outside", "link"],
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
        else:
            man["config"]["sweep"]["background"] = 1.0
            named = "config_hash"
        write_manifest_json(broken, man)
        rc = main(["analyze", "--in", broken, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert named in capsys.readouterr().err

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

    def test_table_report(self, tmp_path):
        out = str(tmp_path / "tab")
        assert main(["analyze", "--table1", builtin_table1_path(), "--out", out]) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
        assert len(rep["rows"]) == 6
        assert all(r["feasible"] for r in rep["rows"])
        assert read_manifest(out)["source"] == "table1"


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
        "section, key, value",
        [
            ("geometry", "clad_index", 3.6),
            ("mirror", "hole_radius_nm", 140.0),
            ("emitter", "y0_nm", 500.0),
            ("sweep", "background", 200.0),
        ],
    )
    def test_inconsistent_config_is_input_error(
        self, tmp_path, capsys, command, section, key, value
    ):
        # the schema accepts each value; together with the rest they
        # describe no device or no run (cladding above the core index,
        # holes wider than the 265 nm pitch, an emitter beyond the
        # +-450 nm solved window, a floor of 200 counts in each of 500
        # bins that leaves none of the 1e5 histogram counts for the decay)
        data = copy.deepcopy(DEFAULT_CONFIG)
        data[section][key] = value
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "x"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "inconsistent config" in capsys.readouterr().err
        assert not out.exists()

    def test_each_command_validates_its_config_once(
        self, tmp_path, sim_dir, monkeypatch
    ):
        calls = []
        validate = config._best_error

        def counted(data):
            calls.append(1)
            return validate(data)

        monkeypatch.setattr(config, "_best_error", counted)
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
            assert len(calls) == 1, args

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


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(phasemirror.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, phasemirror.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_jsonschema_and_xml_out():
    src = os.path.dirname(os.path.dirname(phasemirror.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ["jsonschema", "xml.sax", "urllib.request", "http.client", "email"]
    code = f"import sys, phasemirror.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_commands_run_without_jsonschema(tmp_path, capsys):
    """Outputs and error text do not depend on jsonschema being importable."""
    src = os.path.dirname(os.path.dirname(phasemirror.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from phasemirror.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    bad = copy.deepcopy(DEFAULT_CONFIG)
    bad["mirror"]["t_phi_sq"] = 1.5
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    runs = [
        (["mode", "--preset", "qd1"], "mode", 0),
        (["simulate", "--preset", "qd1", "--seed", "7"], "sim", 0),
        (["analyze", "--in", "<out>/sim"], "fit", 0),
        (["mode", "--config", str(tmp_path / "bad.json")], "bad", 2),
    ]
    for args, name, rc in runs:
        sub, ref = str(tmp_path / "sub"), str(tmp_path / "ref")
        proc = subprocess.run(
            [sys.executable, "-c", code, *[a.replace("<out>", sub) for a in args],
             "--out", os.path.join(sub, name)],
            env=env, capture_output=True, text=True,
        )
        capsys.readouterr()
        assert main([*[a.replace("<out>", ref) for a in args], "--out", os.path.join(ref, name)]) == rc
        assert proc.returncode == rc, proc.stderr
        if rc:
            assert proc.stderr == capsys.readouterr().err
            continue
        with open(os.path.join(sub, name, "manifest.json"), "rb") as fh:
            got = fh.read()
        with open(os.path.join(ref, name, "manifest.json"), "rb") as fh:
            assert got == fh.read()
