import copy
import io
import json
import math
import sys
from dataclasses import MISSING, asdict, fields

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import default_device
from phasemirror import config
from phasemirror.config import (
    _TABLE,
    DEFAULT_CONFIG,
    QD1_PRESET,
    SCHEMA,
    ConfigError,
    RunConfig,
    config_hash,
    write_json,
)
from phasemirror.emission import EmitterScene
from phasemirror.modesolver import WINDOW_MARGIN_NM, WaveguideGeometry
from phasemirror.opticalstack import MirrorChain, PhotonicCrystalSpec, waveguide_transmission
from phasemirror.synthlab import CalibrationModel, PhaseCalibration, SweepSpec


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
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(data)
    assert str(got.value) in _oracle_messages(data)


def _ordering_cases():
    """Documents with several errors, at one path and at several."""
    def doc(**sections):
        data = copy.deepcopy(DEFAULT_CONFIG)
        for section, values in sections.items():
            data[section].update(values)
        return data

    yield doc(calibration={"table": [[1.0, "a"], [2.0, "b"]]})
    yield doc(calibration={"table": [[1.0, 2.0], [3.0]], "v_range": [0.0, "x"]})
    yield doc(geometry={"width_nm": -1.0}, mirror={"t_phi_sq": 2.0})
    yield doc(geometry={"zz": 1, "aa": 2, "grid_points": 2.0})
    yield doc(sweep={"n_bins": 8.0, "n_points": 0.5})
    data = doc(mirror={"extra": 1})
    del data["mirror"]["pitch_nm"]
    yield data
    data = doc()
    data["seed"], data["r_T_mag"] = True, 1
    yield data


@pytest.mark.parametrize("data", list(_ordering_cases()))
def test_error_text_matches_jsonschema_on_several_errors(data):
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(data)
    assert str(got.value) in _oracle_messages(data)


def test_first_error_in_key_order_is_reported():
    data = copy.deepcopy(DEFAULT_CONFIG)
    _several(data)
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(data)
    # jsonschema's best_match would pick seed, the shortest path
    assert str(got.value) == (
        "invalid config: geometry.width_nm: -1.0 is less than or equal to the minimum of 0"
    )


# jsonschema's validator without its per-call metaschema check (28 ms,
# checked once above)
_ORACLE = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)


def _oracle_messages(data):
    """Every error jsonschema finds in data, as from_dict words it: the
    message after the dotted path of the failing instance, if any."""
    return {
        "invalid config: "
        + (f"{'.'.join(map(str, e.absolute_path))}: " if e.absolute_path else "")
        + e.message
        for e in _ORACLE.iter_errors(data)
    }


def _leaves(node=_TABLE, path=()):
    """(path, leaf schema) for every key of _TABLE, in its order."""
    for key, sub in node.items():
        if isinstance(sub, dict):
            yield from _leaves(sub, path + (key,))
        else:
            yield path + (key,), sub[0]


def _fragments(schema):
    yield schema
    if "items" in schema:
        yield from _fragments(schema["items"])


def test_schema_uses_only_interpreted_keywords():
    # the keywords from_dict's walk checks; SCHEMA's objects come from
    # the sections of _TABLE, which the walk checks as objects
    walked = {"type", "enum", "items", "minItems", "maxItems", *config._BOUNDS}
    for _, leaf in _leaves():
        for sub in _fragments(leaf):
            assert set(sub) <= walked, sorted(set(sub) - walked)
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= set(config._TYPES)
            assert all(isinstance(e, str) for e in sub.get("enum", []))
    for section in [SCHEMA, *(sub for sub in SCHEMA["properties"].values() if "properties" in sub)]:
        assert set(section) == {"type", "additionalProperties", "required", "properties"}
        assert section["additionalProperties"] is False


@pytest.mark.parametrize("path", [p for p, _ in _leaves()], ids=".".join)
def test_wrong_typed_value_names_its_key(path):
    doc = copy.deepcopy(QD1_PRESET)
    _node(doc, path[:-1])[path[-1]] = True  # neither number, integer, null, array nor a model
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(doc)
    assert str(got.value).startswith(f"invalid config: {'.'.join(path)}: ")
    assert str(got.value) in _oracle_messages(doc)


def _bounded_leaves():
    """(path, keyword, bound) for every bound in SCHEMA."""
    for name, sub in SCHEMA["properties"].items():
        leaves = sub.get("properties", {"": sub})
        for key, leaf in leaves.items():
            path = (name, key) if key else (name,)
            for keyword in ("minimum", "maximum", "exclusiveMinimum"):
                if keyword in leaf:
                    yield path, keyword, leaf[keyword]


_BOUNDED = list(_bounded_leaves())
# calibration leaves are swapped often: they alone reach enum, items,
# minItems and maxItems
_ARRAY_LEAVES = [("calibration", "v_range"), ("calibration", "table")]
_CALIBRATION_LEAVES = _ARRAY_LEAVES + [("calibration", "model")]

_NUMBERS = st.one_of(st.integers(-10, 10**6), st.floats())
_ARRAYS = st.lists(
    st.one_of(st.lists(st.one_of(_NUMBERS, st.text(max_size=2)), max_size=3),
              _NUMBERS, st.text(max_size=2)),
    max_size=3,
)
# st.one_of draws its first strategies most often: containers first
_VALUES = st.one_of(
    _ARRAYS,
    st.dictionaries(st.text(max_size=3), _NUMBERS, max_size=2),
    st.none(),
    st.integers(-1000, 1000).map(float),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.text(max_size=4),
    st.floats(),
)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _node(data, path):
    for key in path:
        data = data[key]
    return data


def _mutate(draw, data):
    # Hypothesis draws the first entries of a list most often: deep paths
    # come first so that errors below a missing section stay common, and
    # non_finite first so that the finiteness rule is met alone
    kind = draw(st.sampled_from(["non_finite", "swap", "bound", "add", "drop"]))
    if kind == "bound":
        path, keyword, bound = draw(st.sampled_from(_BOUNDED))
        if path[:-1] and not isinstance(data.get(path[0]), dict):
            return  # an earlier mutation removed the section
        parent = _node(data, path[:-1])
        delta = draw(st.one_of(st.just(0), st.integers(1, 100), st.floats(1e-12, 1e3)))
        parent[path[-1]] = bound + delta if keyword == "maximum" else bound - delta
        return
    paths = sorted(_paths(data), key=len, reverse=True)  # the root () is last
    if kind == "non_finite":
        # a leaf or an array item that JSON's 1e999 or an in-process dict
        # could make non-finite
        numbers = [p for p in paths if config._is_number(_node(data, p))]
        if numbers:
            path = draw(st.sampled_from(numbers))
            _node(data, path[:-1])[path[-1]] = draw(_NON_FINITE)
        return
    if kind == "add":
        objects = [_node(data, p) for p in paths]
        parent = draw(st.sampled_from([o for o in objects if isinstance(o, dict)]))
        key = draw(st.one_of(st.sampled_from(["typo_nm", "seed", "width_nm"]),
                             st.text(max_size=4)))
        parent[key] = draw(_VALUES)
        return
    rare = [p for p in _CALIBRATION_LEAVES if p in paths]
    path = draw(st.sampled_from(draw(st.sampled_from([rare or paths[:-1], paths[:-1]]))))
    parent = _node(data, path[:-1])
    if kind == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = draw(_ARRAYS if path in _ARRAY_LEAVES else _VALUES)


def _device_error(doc):
    """'<key or section>: <text>' of building a schema-valid doc's device, or None.

    The emitter must lie in the solved window and the background must
    leave the histograms some signal; these are checked first.  The rest
    is checked in the order `RunConfig.from_dict` builds it: the
    geometry, the mirror's crystal and chain, the calibrated voltage
    range and the calibration.
    """
    g, m, c = doc["geometry"], doc["mirror"], doc["calibration"]
    y0, window = doc["emitter"]["y0_nm"], g["width_nm"] / 2.0 + WINDOW_MARGIN_NM
    if abs(y0) > window:
        return f"emitter.y0_nm: {y0} nm lies outside the solved window (+-{window:.1f} nm)"
    s = doc["sweep"]
    if s["hist_counts"] - s["background"] * s["n_bins"] <= 0:
        return "sweep.background: hist_counts must exceed the background budget background * n_bins"
    try:
        section = "geometry"
        WaveguideGeometry(*(g[f.name] for f in fields(WaveguideGeometry)))
        section = "mirror"
        PhotonicCrystalSpec(*(m[f.name] for f in fields(PhotonicCrystalSpec)))
        one_way = waveguide_transmission(m["loss_db_per_mm"], m["qd_mirror_distance_um"] * 1000.0)
        MirrorChain(m["t_phi_sq"], one_way**2, m["r_M_mag"])
        if c["v_range"] is not None and c["v_range"][0] > c["v_range"][1]:
            return f"calibration.v_range: {c['v_range']} is reversed"
        section = "calibration"
        PhaseCalibration(
            CalibrationModel(c["model"]),
            None if c["table"] is None else tuple(map(tuple, c["table"])),
            c["quad_coeff"],
            c["quad_offset"],
            None if c["v_range"] is None else tuple(c["v_range"]),
        )
    except ValueError as exc:
        return f"{section}: {exc}"
    return None


def _non_finite_messages(doc):
    """'<dotted path> is <value>' for every nan, inf or integer beyond the
    float range in doc."""
    messages = set()
    for path in _paths(doc):
        value = _node(doc, path)
        if isinstance(value, float) and not math.isfinite(value):
            messages.add(f"invalid config: {'.'.join(map(str, path))} is {value}")
        elif isinstance(value, int) and abs(value) > sys.float_info.max:
            messages.add(f"invalid config: {'.'.join(map(str, path))} is beyond the float range")
    return messages


def test_device_error_builds_the_mirror_chain():
    doc = copy.deepcopy(QD1_PRESET)
    doc["mirror"]["loss_db_per_mm"] = float("nan")
    assert _device_error(doc) == "mirror: t_wg_sq must lie in [0, 1], got nan"


@st.composite
def _mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from([DEFAULT_CONFIG, QD1_PRESET])))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3, 4]))):
        _mutate(draw, doc)
    return doc


def test_error_text_matches_jsonschema_on_random_mutations():
    finiteness_alone = []

    @settings(max_examples=500, derandomize=True, database=None)
    @given(_mutated_documents())
    def check(doc):
        # a nan passes every schema bound, and inf every lower bound, so
        # from_dict rejects them too; this is the one departure from
        # jsonschema, and it is on purpose
        schema_errors, non_finite = _oracle_messages(doc), _non_finite_messages(doc)
        finiteness_alone.append(bool(non_finite) and not schema_errors)
        want = schema_errors | non_finite
        if not want:
            # the schema accepts doc; its values must also describe a device
            reason = _device_error(doc)
            if reason is None:
                assert RunConfig.from_dict(doc).raw == doc
                return
            want = {f"inconsistent config: {reason}"}
        with pytest.raises(ConfigError) as got:
            RunConfig.from_dict(doc)
        assert str(got.value) in want

    check()
    # the non_finite mutation reaches the rule where no schema error hides it
    # non_finite is drawn first, so about one document in nine is refused
    # for a nan, an infinity or 10**400 and nothing else (59 of 500 with
    # Hypothesis 6.155)
    assert sum(finiteness_alone) >= 0.1 * len(finiteness_alone)


@pytest.mark.parametrize(
    "section, key",
    [
        ("emitter", "y0_nm"),
        ("geometry", "width_nm"),
        ("sweep", "v_stop"),
        ("emitter", "gamma_b"),
        ("sweep", "counts_scale"),
    ],
)
def test_nan_is_rejected_by_its_dotted_path(section, key):
    doc = copy.deepcopy(QD1_PRESET)
    doc[section][key] = float("nan")
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(doc)
    assert str(got.value) == f"invalid config: {section}.{key} is nan"


def test_first_nan_in_document_order_is_named():
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc["calibration"].update(model="table", table=[[0.0, 0.0], [1.0, float("nan")]])
    doc["sweep"]["v_stop"] = float("nan")
    with pytest.raises(ConfigError, match=r"^invalid config: calibration\.table\.1\.1 is nan$"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "path, value, text",
    [
        (("emitter", "gamma_y0"), math.inf, "inf"),
        (("emitter", "y0_nm"), -math.inf, "-inf"),
        (("sweep", "t_max_ns"), math.inf, "inf"),
        (("sweep", "hist_counts"), math.inf, "inf"),
        (("mirror", "lambda_max_nm"), math.inf, "inf"),
        (("calibration", "quad_offset"), -math.inf, "-inf"),
        (("r_T_mag",), -math.inf, "-inf"),  # finiteness is checked before the minimum
        (("sweep", "counts_scale"), math.inf, "inf"),  # noiseless is null
        (("geometry", "width_nm"), 10**400, "beyond the float range"),
    ],
)
def test_non_finite_value_is_rejected_by_its_dotted_path(path, value, text):
    doc = copy.deepcopy(QD1_PRESET)
    _node(doc, path[:-1])[path[-1]] = value
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(doc)
    assert str(got.value) == f"invalid config: {'.'.join(path)} is {text}"


def test_null_counts_scale_is_the_noiseless_mode():
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc["sweep"]["counts_scale"] = None
    assert RunConfig.from_dict(doc).sweep.counts_scale is None


@pytest.mark.parametrize(
    "cls",
    [
        WaveguideGeometry,
        PhotonicCrystalSpec,
        MirrorChain,
        PhaseCalibration,
        EmitterScene,
        SweepSpec,
    ],
)
def test_config_dataclasses_have_no_field_defaults(cls):
    # a default device value is written once, in config._TABLE
    defaulted = [
        f.name for f in fields(cls)
        if f.default is not MISSING or f.default_factory is not MISSING
    ]
    assert defaulted == []


def test_sweep_spec_is_the_sweep_section(default_cfg):
    assert asdict(default_cfg.sweep) == DEFAULT_CONFIG["sweep"]


def test_default_device_is_what_the_config_builds(default_cfg, default_profile):
    device = default_device()
    assert device.geometry == default_cfg.geometry()
    assert device.crystal == default_cfg.crystal()
    assert device.chain == default_cfg.chain
    assert device.calibration == default_cfg.calibration
    assert device.scene == default_cfg.scene(default_profile.k)
    # the values that the deleted field defaults (0.9 and 2.56 * 2 pi / 930)
    # gave otherwise
    assert device.chain.t_wg_sq == 0.901571137605957
    assert device.scene.k == pytest.approx(0.0173179, abs=1e-7)


def test_shipped_config_hashes_are_pinned():
    # every shipped manifest's config_hash comes from these two documents
    assert config_hash(DEFAULT_CONFIG) == (
        "9c209c8c8643b90c47f9bdef6238fda6e66f03d713be7fef2d6253bb04c75ae3"
    )
    assert config_hash(QD1_PRESET) == (
        "b671b66a18fa99d29c68f3f480353b3022c3cbf32d07c0ec58fe8ed773490c51"
    )


def test_write_json_writes_what_json_dump_writes(tmp_path):
    # the writer hands the encoder's tokens over in batches; the text
    # across batch boundaries is json.dump's
    doc = {
        "b": [i / 7.0 for i in range(3000)],
        "a": [0.1, 3, {"z": None, "y": True, "x": "\u00e9"}],
    }
    path = tmp_path / "doc.json"
    write_json(str(path), doc)
    want = io.StringIO()
    json.dump(doc, want, sort_keys=True, indent=2)
    assert path.read_bytes() == (want.getvalue() + "\n").encode("utf-8")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_what_json_lacks(tmp_path, value):
    # a value read_json would refuse is a fault of the writer's caller
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(str(tmp_path / "doc.json"), {"sigma": [1.0, value]})
