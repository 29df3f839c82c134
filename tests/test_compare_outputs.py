"""scripts/compare_outputs.py: two output trees compared file by file."""

import json
import shutil

import pytest

from helpers import load_script
from phasemirror.cli import main
from phasemirror.csvio import read_csv, read_header, write_csv

compare_outputs = load_script("compare_outputs")


@pytest.fixture(scope="module")
def mode_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("mode") / "out"
    assert main(["mode", "--preset", "qd1", "--out", str(out)]) == 0
    return out


def _report(capsys, a, b) -> tuple[int, dict[str, str]]:
    code = compare_outputs.main([str(a), str(b)])
    lines = capsys.readouterr().out.splitlines()
    return code, dict(line.split(": ", 1) for line in lines)


def test_identical_trees_report_zero(mode_tree, tmp_path, capsys):
    shutil.copytree(mode_tree, tmp_path / "b")
    code, report = _report(capsys, mode_tree, tmp_path / "b")
    assert code == 0
    assert sorted(report) == sorted(p.name for p in mode_tree.iterdir())
    assert set(report.values()) == {"identical"}


def test_perturbed_cell_and_key_are_named(mode_tree, tmp_path, capsys):
    b = tmp_path / "b"
    shutil.copytree(mode_tree, b)
    header = read_header(str(b / "fig1c.csv"))
    table = read_csv(str(b / "fig1c.csv"), header)
    table[2, 4] += 1e-3  # intensity_rel of the fifth row, on line 6
    write_csv(str(b / "fig1c.csv"), header, *table)
    manifest = json.loads((b / "manifest.json").read_text())
    manifest["n_eff"] *= 2.0
    manifest["files"]["extra.csv"] = "0" * 64
    (b / "manifest.json").write_text(json.dumps(manifest))
    (b / "extra.csv").write_text("x\n1.0\n")

    code, report = _report(capsys, mode_tree, b)
    assert code == 1
    n = table.size
    assert report["fig1c.csv"].startswith(
        f"1 of {n} numbers differ, max abs 0.001 at intensity_rel line 6,"
        " max rel"
    )
    assert report["fig1c.csv"].endswith(" at intensity_rel line 6")
    assert report["manifest.json"].startswith("1 of 4 numbers differ, max abs")
    assert report["manifest.json"].endswith(
        "max rel 0.5 at n_eff; 1 other difference(s), first files.extra.csv only in B"
    )
    assert report["extra.csv"] == f"only in {b}"
    assert report["fig1d.csv"] == "identical"
