"""scripts/calibrate_qd1_preset.py and scripts/run_qd1_experiment.py run to exit 0."""

import sys

import pytest

from helpers import load_script


@pytest.mark.parametrize(
    "name",
    [
        # 0: the qd1 preset matches its derivation from the default mode
        "calibrate_qd1_preset",
        # 0: simulate and analyze --in on the qd1 preset, into the one
        # argument, both succeed
        "run_qd1_experiment",
    ],
)
def test_script_exits_0(tmp_path, monkeypatch, name):
    script = load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", str(tmp_path)])
    assert script.main() == 0
