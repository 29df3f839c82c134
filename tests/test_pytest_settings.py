"""The suite's own pytest settings: a failing test fails alone.

`[tool.pytest.ini_options]` turns every warning into an error.  A failing
Hypothesis test must still end as one failure among the others' outcomes,
not abort the run from inside pytest's report hook.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
