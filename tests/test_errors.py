"""Exit codes from two error types.

Every exception class of the package derives from exactly one of
`errors.InputError` (exit 2) and `errors.NumericalError` (exit 3); any
other exception out of `cli.main` is a fault.  Schema-valid configs
from `configspace` run through every command end in 0, 2 or 3, with
pytest's warnings as errors, and every JSON file they write reads back.
"""

import copy
import importlib
import inspect
import json
import math
import pkgutil
import warnings

import numpy as np
import pytest

import phasemirror
from configspace import schema_valid_configs
from oracles import ExcitonModel, expected_histogram
from phasemirror import inference
from phasemirror.cli import main
from phasemirror.config import QD1_PRESET, read_json
from phasemirror.errors import InputError, NumericalError
from phasemirror.inference import TooFewBins


def _package_exceptions():
    for info in pkgutil.walk_packages(phasemirror.__path__, "phasemirror."):
        if info.name != "phasemirror.__main__":
            module = importlib.import_module(info.name)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                    yield cls


def test_every_exception_class_has_exactly_one_of_the_two_bases():
    classes = set(_package_exceptions()) - {InputError, NumericalError}
    names = {cls.__name__ for cls in classes}
    assert {"ConfigError", "MalformedCSV", "OutOfRange", "NotConverged"} <= names
    for cls in classes:
        assert issubclass(cls, InputError) != issubclass(cls, NumericalError), cls


def _write_config(path, doc) -> str:
    # json writes inf as Infinity, which JSON lacks; 1e999 loads as inf
    path.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    return str(path)


def _run_all(tmp_path, doc) -> dict:
    """Exit code of mode, mirror, simulate and, after a simulate that
    succeeds, analyze --in, on one config; every JSON file the commands
    wrote must read back."""
    cfg = _write_config(tmp_path / "c.json", doc)
    codes = {
        command: main([command, "--config", cfg, "--out", str(tmp_path / command)])
        for command in ("mode", "mirror", "simulate")
    }
    if codes["simulate"] == 0:
        sim, fit = str(tmp_path / "simulate"), str(tmp_path / "fit")
        codes["analyze"] = main(["analyze", "--in", sim, "--out", fit])
    for path in tmp_path.glob("*/*.json"):
        read_json(str(path))
    return codes


_CONFIGS = list(schema_valid_configs(seed=24, n=24))


@pytest.mark.parametrize("changes, doc", _CONFIGS, ids=[str(i) for i in range(len(_CONFIGS))])
def test_schema_valid_config_ends_in_an_exit_code(tmp_path, changes, doc):
    codes = _run_all(tmp_path, doc)
    assert set(codes.values()) <= {0, 2, 3}, (changes, codes)
    # a simulate directory is valid input for analyze --in
    assert codes.get("analyze") != 2, (changes, codes)


def _preset(**changes) -> dict:
    doc = copy.deepcopy(QD1_PRESET)
    for dotted, value in changes.items():
        section, key = dotted.split("__")
        doc[section][key] = value
    return doc


def test_floor_fit_whose_trial_floor_overflows_succeeds(tmp_path):
    # a damped trial step of the floor's log past ln(max float) is a
    # rejected step, not an OverflowError
    doc = _preset(
        emitter__gamma_y0=0.30932359311879254,
        emitter__gamma_nrad=0.26417288139990797,
        sweep__background=0.2838558969927668,
    )
    assert _run_all(tmp_path, doc) == {"mode": 0, "mirror": 0, "simulate": 0, "analyze": 0}


@pytest.mark.parametrize(
    "changes, reason",
    [
        # a slow rate that underflows to 0 along a flat direction: 0 * inf
        (
            dict(
                geometry__grid_points=64,
                geometry__thickness_nm=196.78587172817168,
                emitter__gamma_nrad=0,
                sweep__v_stop=5.743963934916232,
            ),
            " +/- nan",
        ),
        # fast decays that end within the first bin, whose gamma_f ran off
        # and overflowed gamma_f ** 2, or the rate fringe fit's m ** 2
        (
            dict(sweep__t_max_ns=62.10310456520195, emitter__gamma_y0=6.315091938818607),
            "decays within the first bin",
        ),
        # ... or divided A_s by an A_f at 0
        (
            dict(
                sweep__amp_ratio=0.40070762695097173,
                sweep__n_bins=8,
                sweep__background=0.31626141464705826,
                mirror__lambda_max_nm=289.25840325567225,
            ),
            "decays within the first bin",
        ),
    ],
)
def test_fit_at_the_end_of_the_float_range_is_numerical_error(tmp_path, capsys, changes, reason):
    codes = _run_all(tmp_path, _preset(**changes))
    assert (codes["simulate"], codes["analyze"]) == (0, 3)
    err = capsys.readouterr().err
    assert "histograms.csv counts_" in err and reason in err


@pytest.mark.parametrize("key", ["hist_counts", "counts_scale"])
def test_count_scale_too_large_to_sample_is_input_error(tmp_path, capsys, key):
    cfg = _write_config(tmp_path / "c.json", _preset(**{f"sweep__{key}": 1e300}))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err.startswith(f"error: sweep.{key} = 1e+300: ")


@pytest.mark.parametrize(
    "changes",
    [
        # sigma * gamma near 65: the exponential overflows where erfc underflows
        dict(emitter__gamma_y0=8.00963399956556, sweep__irf_sigma_ns=9.708544180555629),
        # a rate whose square is beyond the float range
        dict(emitter__gamma_y0=1e200, sweep__irf_sigma_ns=0.2),
    ],
)
def test_blurred_density_that_is_not_finite_is_numerical_error(tmp_path, capsys, changes):
    cfg = _write_config(tmp_path / "c.json", _preset(**changes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sweep.irf_sigma_ns = ") and "not finite" in err


@pytest.mark.parametrize("command", ["mode", "simulate"])
@pytest.mark.parametrize(
    "changes, named",
    [
        ({"emitter__gamma_y0": math.inf, "sweep__counts_scale": math.inf}, "emitter.gamma_y0"),
        ({"emitter__gamma_y0": math.inf}, "emitter.gamma_y0"),
        ({"sweep__t_max_ns": math.inf}, "sweep.t_max_ns"),
        # a noiseless sweep is counts_scale null, not inf
        ({"sweep__counts_scale": math.inf}, "sweep.counts_scale"),
    ],
)
def test_infinite_config_value_is_input_error(tmp_path, capsys, command, changes, named):
    cfg = _write_config(tmp_path / "c.json", _preset(**changes))
    assert "1e999" in (tmp_path / "c.json").read_text()
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: invalid config: {named} is inf\n"
    assert not out.exists()


def test_every_numerical_error_of_a_fit_names_its_histogram(default_cfg, default_profile):
    # row 0 is a fittable decay; row 1 holds the decay's first 7 bins as
    # its last, so it peaks 7 bins from its end, one too few to fit
    sweep = default_cfg.sweep
    decay = expected_histogram(ExcitonModel(1.1, 0.1, 0.05), 1e5, sweep.bin_edges()).counts
    hists = np.tile(decay, (8, 1))
    hists[1] = 0.0
    hists[1, -7:] = decay[:7]
    names = [f"h{i}" for i in range(8)]
    named = "^h1: too few bins after the peak to fit$"
    with pytest.raises(TooFewBins, match=named):
        inference.fit_decays(hists, sweep, names)
    with pytest.raises(TooFewBins, match=named):
        inference.analyze_sweep(
            np.linspace(0.0, math.pi, 8), np.full(8, 100.0), hists, sweep, default_profile, names
        )

