import copy

import jsonschema
import pytest

from phasemirror.config import DEFAULT_CONFIG, SCHEMA, ConfigError, RunConfig


def test_schema_passes_its_metaschema():
    # RunConfig.from_dict reuses one validator and no longer re-checks the
    # schema on every call, so the check lives here
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def _set(section, key, value):
    def mutate(data):
        data[section][key] = value

    return mutate


def _drop(key):
    def mutate(data):
        del data[key]

    return mutate


def _several(data):
    data["geometry"]["width_nm"] = -1.0
    data["mirror"]["t_phi_sq"] = 2.0
    data["seed"] = "seven"


@pytest.mark.parametrize(
    "mutate",
    [
        _drop("seed"),
        _set("geometry", "width_nm", "300"),
        _set("geometry", "grid_points", 10),
        _set("geometry", "typo_nm", 1.0),
        _set("mirror", "t_phi_sq", 1.5),
        _set("calibration", "model", "cubic"),
        _set("calibration", "v_range", [0.0]),
        _set("sweep", "irf_sigma_ns", 0.0),
        _several,
    ],
)
def test_error_text_matches_jsonschema_validate(mutate):
    data = copy.deepcopy(DEFAULT_CONFIG)
    mutate(data)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(data, SCHEMA)
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(data)
    assert str(got.value) == f"invalid config: {want.value.message}"

