"""Run configuration: one validated JSON document drives every command.

The schema rejects unknown keys so typos fail loudly, and the SHA-256
hash of the canonical serialization is recorded in every output
manifest, tying artifacts to the exact inputs that produced them.

Each key is written once, in `_TABLE`, with its schema and its default:
the sections geometry, mirror, emitter, calibration and sweep map their
keys to (schema, default) pairs, as the top level does `seed` and
`r_T_mag`.  `SCHEMA` and `DEFAULT_CONFIG` are both derived from it.  The
document and each section are objects with no additional properties
that require every key but `r_T_mag`, the one optional key.  No
dataclass the config builds has a field default, so `_TABLE` is the one
home of a default value; `WaveguideGeometry` and `PhotonicCrystalSpec`
are built from the keys of their sections named like their fields.

`SCHEMA` is a JSON Schema (draft 2020-12) checked by a small interpreter
of exactly the keywords it uses: `type` (a name or a list of names, with
JSON's `number` and `integer`, so booleans are neither and 2.0 is an
integer), `enum`, `required`, `properties`, `additionalProperties: false`,
`minimum`, `maximum`, `exclusiveMinimum`, `items`, `minItems` and
`maxItems`.  It reports the error, with the text, that
`jsonschema.validate` would raise.  A document the schema accepts must
hold only finite numbers, but for the noiseless `sweep.counts_scale` =
inf (JSON's 1e999 loads as inf; an in-process dict can hold nan), and
must describe a buildable device: `RunConfig.from_dict` builds its
geometry, crystal, mirror chain and calibration, and a contradiction
among the values is a ConfigError too.

The package's JSON goes through `read_json` and `write_json` (sorted
keys, two-space indent, final LF): configs, manifests and reports.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

from .emission import EmitterScene
from .errors import InputError
from .modesolver import DEFAULT_GRID_POINTS, WINDOW_MARGIN_NM, WaveguideGeometry
from .opticalstack import MirrorChain, PhotonicCrystalSpec, waveguide_transmission
from .synthlab import CalibrationModel, PhaseCalibration, default_bin_edges

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_FRACTION = {"type": "number", "minimum": 0, "maximum": 1}
_PAIR = {"items": _NUM, "minItems": 2, "maxItems": 2}

# Every key once, as (its schema, its default); a section is a dict of keys.
_TABLE = {
    "geometry": {
        "width_nm": (_POS, 300.0),
        "thickness_nm": (_POS, 160.0),
        "core_index": (_POS, 3.48),
        "clad_index": (_POS, 1.0),
        "wavelength_nm": (_POS, 930.0),
        "grid_points": ({"type": "integer", "minimum": 64}, DEFAULT_GRID_POINTS),
    },
    # segment indices that put the first-order Bragg center 2 n_avg pitch near
    # 950 nm (n_avg ~ 1.79 at 265 nm pitch), with a stopband over 900-1000 nm
    "mirror": {
        "n_holes": ({"type": "integer", "minimum": 0}, 12),
        "pitch_nm": (_POS, 265.0),
        "hole_radius_nm": (_NONNEG, 70.0),
        "n_unetched": (_POS, 2.56),
        "n_hole": (_POS, 1.107),
        "termination_index": (_POS, 2.56),
        "loss_db_per_mm": (_NONNEG, 7.5),
        "qd_mirror_distance_um": (_POS, 30.0),
        "t_phi_sq": (_FRACTION, 0.55),
        "r_M_mag": (_FRACTION, 1.0),
        "lambda_min_nm": (_POS, 850.0),
        "lambda_max_nm": (_POS, 1050.0),
        "sweep_points": ({"type": "integer", "minimum": 2}, 401),
    },
    "emitter": {
        "y0_nm": (_NUM, 0.0),
        "gamma_x0": (_NONNEG, 0.0),
        "gamma_y0": (_NONNEG, 1.0),
        "gamma_b": (_NONNEG, 0.1),
        "gamma_nrad": (_NONNEG, 0.1),
    },
    "calibration": {
        "model": ({"enum": ["quadratic", "table"]}, "quadratic"),
        "quad_coeff": ({"type": ["number", "null"]}, 0.05),
        "quad_offset": (_NUM, 0.0),
        "v_range": ({"type": ["array", "null"], **_PAIR}, None),
        "table": ({"type": ["array", "null"], "items": {"type": "array", **_PAIR}}, None),
    },
    "sweep": {
        "v_start": (_NUM, 0.0),
        "v_stop": (_NUM, 8.0),
        "n_points": ({"type": "integer", "minimum": 1}, 12),
        "counts_scale": (_POS, 40000.0),
        "hist_counts": (_POS, 100000.0),
        "t_max_ns": (_POS, 25.0),
        "n_bins": ({"type": "integer", "minimum": 8}, 500),
        "irf_sigma_ns": ({"type": ["number", "null"], "exclusiveMinimum": 0}, None),
        "amp_ratio": (_NONNEG, 0.05),
        "background": (_NONNEG, 0.0),
    },
    "seed": ({"type": "integer", "minimum": 0}, 20230901),
    # the one optional key; the figure-style default pins |r_T| at 0.5,
    # and null composes it from t_phi_sq, the propagation loss over 2L,
    # and r_M_mag
    "r_T_mag": ({"type": ["number", "null"], "minimum": 0, "maximum": 1}, 0.5),
}


def _schema(node) -> dict:
    if isinstance(node, tuple):
        return node[0]
    return {
        "type": "object",
        "additionalProperties": False,
        "required": [key for key in node if key != "r_T_mag"],
        "properties": {key: _schema(sub) for key, sub in node.items()},
    }


def _defaults(node):
    if isinstance(node, tuple):
        return node[1]
    return {key: _defaults(sub) for key, sub in node.items()}


SCHEMA = _schema(_TABLE)
DEFAULT_CONFIG: dict = _defaults(_TABLE)

# Emitter tuned so the averaged radiative rate toggles 1.05 <-> 0.63 1/ns
# with nu_gamma = 0.25 and nu_I = 0.48 at |r_T| = 0.6; the offset and the
# rate split are frozen from scripts/calibrate_qd1_preset.py so that the
# dipole rates stay proportional to the local mode weights.
QD1_PRESET: dict = copy.deepcopy(DEFAULT_CONFIG)
QD1_PRESET["emitter"] = {
    "y0_nm": 75.565112623,
    "gamma_x0": 0.293382353,
    "gamma_y0": 0.993382353,
    "gamma_b": 0.196617647,
    "gamma_nrad": 0.1,
}
QD1_PRESET["r_T_mag"] = 0.6


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


# Each keyword takes (its value, the instance, the enclosing schema) and
# yields an error message, or a (key, subschema, item) to descend into.
def _type(types, v, schema):
    types = [types] if isinstance(types, str) else types
    if not any(_TYPES[t](v) for t in types):
        yield f"{v!r} is not of type {', '.join(map(repr, types))}"


def _enum(values, v, schema):
    if not any(e == v and isinstance(e, bool) == isinstance(v, bool) for e in values):
        yield f"{v!r} is not one of {values!r}"


def _required(names, v, schema):
    if isinstance(v, dict):
        yield from (f"{name!r} is a required property" for name in names if name not in v)


def _properties(props, v, schema):
    if isinstance(v, dict):
        yield from ((name, sub, v[name]) for name, sub in props.items() if name in v)


def _no_additional_properties(allowed, v, schema):
    if isinstance(v, dict) and not allowed:
        extras = sorted((k for k in v if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            names = ", ".join(map(repr, extras))
            yield f"Additional properties are not allowed ({names} {verb} unexpected)"


def _bound(fails, text):
    def keyword(bound, v, schema):
        if _is_number(v) and fails(v, bound):
            yield f"{v!r} is {text} {bound!r}"

    return keyword


def _items(sub, v, schema):
    if isinstance(v, list):
        yield from ((i, sub, item) for i, item in enumerate(v))


def _min_items(n, v, schema):
    if isinstance(v, list) and len(v) < n:
        yield f"{v!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _max_items(n, v, schema):
    if isinstance(v, list) and len(v) > n:
        yield f"{v!r} {'is expected to be empty' if n == 0 else 'is too long'}"


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _no_additional_properties,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
}


def _errors(schema: dict, instance, path: tuple = ()):
    """Yield (path, message) of every violation, in jsonschema's order."""
    for keyword, value in schema.items():
        for found in _KEYWORDS[keyword](value, instance, schema):
            if isinstance(found, str):
                yield path, found
            else:
                key, sub, item = found
                yield from _errors(sub, item, path + (key,))


def _best_error(data, schema: dict = SCHEMA) -> str | None:
    """The message `jsonschema.exceptions.best_match` picks, or None if valid.

    best_match takes the first error of greatest relevance: the shortest
    path, then the greatest path.  Its other terms (weak keywords, type
    match) never decide here, since every error at one path comes from
    one subschema.
    """
    best = max(_errors(schema, data), key=lambda e: (-len(e[0]), e[0]), default=None)
    return None if best is None else best[1]


def _non_finite_error(node, path: tuple = ()) -> str | None:
    """'<dotted path> is <value>' for the first non-finite number in
    document order, or None.

    Every bound comparison with nan is false, so a nan passes the schema,
    and inf passes every lower bound: JSON's 1e999 loads as inf, and an
    in-process dict can hold either.  An integer beyond the float range
    is refused too.  sweep.counts_scale may be inf, the noiseless mode.
    """
    if isinstance(node, (dict, list)):
        for key, sub in node.items() if isinstance(node, dict) else enumerate(node):
            found = _non_finite_error(sub, path + (key,))
            if found:
                return found
    elif (
        _is_number(node)
        and not abs(node) <= sys.float_info.max
        and (path, node) != (("sweep", "counts_scale"), math.inf)
    ):
        value = node if isinstance(node, float) else "beyond the float range"
        return f"{'.'.join(map(str, path))} is {value}"
    return None


def _build(cls, section: dict):
    """A dataclass from the config keys named like its fields."""
    return cls(**{f.name: section[f.name] for f in fields(cls)})


class ConfigError(InputError):
    """Configuration failed schema validation or is self-inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document plus the typed objects it describes.

    from_dict builds the geometry, crystal, mirror chain and calibration
    once; a nan or inf anywhere, or values that contradict each other (a
    cladding index above the core index, holes wider than the pitch, an
    emitter outside the solved window, a background that fills the whole
    histogram budget) fail there as a ConfigError.
    """

    raw: dict
    _geometry: WaveguideGeometry
    _crystal: PhotonicCrystalSpec
    chain: MirrorChain
    calibration: PhaseCalibration

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        message = _best_error(data) or _non_finite_error(data)
        if message is not None:
            raise ConfigError(f"invalid config: {message}")
        raw = copy.deepcopy(data)
        g, m, c = raw["geometry"], raw["mirror"], raw["calibration"]
        table = None
        if c["table"] is not None:
            table = tuple((float(v), float(p)) for v, p in c["table"])
        v_range = tuple(c["v_range"]) if c["v_range"] is not None else None
        try:
            window = g["width_nm"] / 2.0 + WINDOW_MARGIN_NM
            if abs(raw["emitter"]["y0_nm"]) > window:
                raise InputError(
                    f"y0 = {raw['emitter']['y0_nm']} nm lies outside the solved "
                    f"window (+-{window:.1f} nm)"
                )
            s = raw["sweep"]
            if s["hist_counts"] - s["background"] * s["n_bins"] <= 0:
                raise InputError(
                    "hist_counts must exceed the background budget background * n_bins"
                )
            one_way = waveguide_transmission(
                m["loss_db_per_mm"], m["qd_mirror_distance_um"] * 1000.0
            )
            return cls(
                raw,
                _build(WaveguideGeometry, g),
                _build(PhotonicCrystalSpec, m),
                MirrorChain(
                    t_phi_sq=m["t_phi_sq"], t_wg_sq=one_way**2, r_M_mag=m["r_M_mag"]
                ),
                PhaseCalibration(
                    model=CalibrationModel(c["model"]),
                    table=table,
                    quad_coeff=c["quad_coeff"],
                    quad_offset=c["quad_offset"],
                    v_range=v_range,
                ),
            )
        except InputError as exc:
            raise ConfigError(f"inconsistent config: {exc}") from None

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    # geometry() and crystal() are methods, unlike chain and calibration,
    # because perfbench calls them
    def geometry(self) -> WaveguideGeometry:
        return self._geometry

    @property
    def grid_points(self) -> int:
        return int(self.raw["geometry"]["grid_points"])

    def crystal(self) -> PhotonicCrystalSpec:
        return self._crystal

    def r_T_magnitude(self) -> float:
        override = self.raw.get("r_T_mag")
        if override is not None:
            return float(override)
        return self.chain.magnitude

    def scene(self, k: float) -> EmitterScene:
        e = self.raw["emitter"]
        return EmitterScene(
            y0=e["y0_nm"],
            L=self.raw["mirror"]["qd_mirror_distance_um"] * 1000.0,
            k=k,
            gamma_x0=e["gamma_x0"],
            gamma_y0=e["gamma_y0"],
            gamma_b=e["gamma_b"],
            gamma_nrad=e["gamma_nrad"],
        )

    def voltages(self) -> np.ndarray:
        s = self.raw["sweep"]
        return np.linspace(s["v_start"], s["v_stop"], s["n_points"])

    def bin_edges(self) -> np.ndarray:
        s = self.raw["sweep"]
        return default_bin_edges(s["t_max_ns"], s["n_bins"])

    @property
    def irf_sigma(self) -> float | None:
        return self.raw["sweep"]["irf_sigma_ns"]

    @property
    def counts_scale(self) -> float:
        return float(self.raw["sweep"]["counts_scale"])

    @property
    def hist_counts(self) -> float:
        return float(self.raw["sweep"]["hist_counts"])


def config_hash(data: dict) -> str:
    """SHA-256 of the canonical (sorted, compact) JSON serialization."""
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path: str, doc) -> None:
    """Write doc as sorted, 2-space-indented JSON ending in LF."""
    tokens = json.JSONEncoder(sort_keys=True, indent=2, default=_json_default).iterencode(doc)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # a thousand tokens per write: json.dump writes each token alone, and
        # json.dumps holds every token at once, which for a 192-point sweep
        # report is ~29,000 strings of ~1.3 MB for ~260 kB of text
        while text := "".join(itertools.islice(tokens, 1024)):
            fh.write(text)
        fh.write("\n")


def read_json(path: str):
    """Parse a JSON file; one that is not UTF-8 JSON is a ConfigError.

    JSON has no NaN or Infinity, so those literals are rejected too.
    """

    def no_constant(name: str):
        raise ConfigError(f"{path}: not valid JSON: {name} is not a JSON value")

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=no_constant)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def write_manifest(
    path: str,
    command: str,
    files: dict[str, str],
    cfg_hash: str,
    seed: int,
    extra: dict | None = None,
) -> None:
    """Record every output file with its content hash in one manifest."""
    doc = {
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "files": {name: file_sha256(p) for name, p in sorted(files.items())},
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)
