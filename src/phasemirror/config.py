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
home of a default value; `WaveguideGeometry`, `PhotonicCrystalSpec` and
`SweepSpec` are built from the keys of their sections named like their
fields.

`SCHEMA` is the published JSON Schema (draft 2020-12) of a config.
`RunConfig.from_dict` checks a document in one depth-first walk over
`_TABLE`, in its order, and reports the first error it meets.  An
object is checked for its type, its extra keys and its missing keys;
a value for its `type` (`number`, `integer`, `null` or `array`, as JSON
has them, so booleans are neither number nor integer and 2.0 is an
integer), `enum`, finiteness, `minimum`, `maximum`, `exclusiveMinimum`,
and for an array `minItems`, `maxItems` and its `items`.  A schema error
reads `<dotted path>: <jsonschema's message for it>`, the path being the
object's for an extra or a missing key, and none at the root
(`mirror.t_phi_sq: 1.5 is greater than the maximum of 1`).  Every
number must be finite (JSON's 1e999 loads as inf; an in-process dict can
hold nan), and a non-finite one reads `<dotted path> is <value>`
(`sweep.v_stop is nan`); a noiseless sweep is `sweep.counts_scale` null.
The document must also describe a buildable device: `RunConfig.from_dict`
builds its geometry, crystal, mirror chain and calibration, and a
contradiction among the values is a ConfigError too, named by its key
or by the section whose object refuses it.

The package's JSON goes through `read_json` and `write_json` (sorted
keys, two-space indent, final LF): configs, manifests and reports.  Both
speak RFC 8259 JSON, which has no NaN or Infinity, so every file the
package writes is one it reads.
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

from .emission import EmitterScene
from .errors import InputError
from .modesolver import DEFAULT_GRID_POINTS, WINDOW_MARGIN_NM, WaveguideGeometry
from .opticalstack import MirrorChain, PhotonicCrystalSpec, waveguide_transmission
from .synthlab import CalibrationModel, PhaseCalibration, SweepSpec

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
        # null: noiseless expectation values instead of Poisson counts
        "counts_scale": ({"type": ["number", "null"], "exclusiveMinimum": 0}, 40000.0),
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
_OPTIONAL = "r_T_mag"


def _schema(node) -> dict:
    if isinstance(node, tuple):
        return node[0]
    return {
        "type": "object",
        "additionalProperties": False,
        "required": [key for key in node if key != _OPTIONAL],
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
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}

# a bound keyword: the comparison that fails and jsonschema's wording
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}


def _at(path: tuple, message: str) -> str:
    return f"{'.'.join(map(str, path))}: {message}" if path else message


def _value_error(schema: dict, v, path: tuple) -> str | None:
    """The first error of the value v at path against its leaf schema."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](v) for t in types):
        return _at(path, f"{v!r} is not of type {', '.join(map(repr, types))}")
    if "enum" in schema and v not in schema["enum"]:
        return _at(path, f"{v!r} is not one of {schema['enum']!r}")
    if _is_number(v):
        # a nan passes every bound and an inf every lower bound, so
        # finiteness comes first; JSON's 1e999 loads as inf
        if not abs(v) <= sys.float_info.max:
            value = v if isinstance(v, float) else "beyond the float range"
            return f"{'.'.join(map(str, path))} is {value}"
        for keyword, (fails, text) in _BOUNDS.items():
            if keyword in schema and fails(v, schema[keyword]):
                return _at(path, f"{v!r} is {text} {schema[keyword]!r}")
    if isinstance(v, list):
        if len(v) < schema.get("minItems", 0):
            return _at(path, f"{v!r} is too short")
        if len(v) > schema.get("maxItems", math.inf):
            return _at(path, f"{v!r} is too long")
        for i, item in enumerate(v):
            found = _value_error(schema.get("items", {}), item, path + (i,))
            if found:
                return found
    return None


def _first_error(data, node: dict = _TABLE, path: tuple = ()) -> str | None:
    """The first error of data in a depth-first walk over _TABLE, or None.

    An object is checked for its type, then its extra keys, then its
    missing keys, before its values in _TABLE's order.
    """
    if not isinstance(data, dict):
        return _at(path, f"{data!r} is not of type 'object'")
    extras = sorted((k for k in data if k not in node), key=str)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(map(repr, extras))
        return _at(path, f"Additional properties are not allowed ({names} {verb} unexpected)")
    for key in node:
        if key not in data and key != _OPTIONAL:
            return _at(path, f"{key!r} is a required property")
    for key, sub in node.items():
        if key in data:
            where = path + (key,)
            found = (
                _first_error(data[key], sub, where)
                if isinstance(sub, dict)
                else _value_error(sub[0], data[key], where)
            )
            if found:
                return found
    return None


def _build(cls, section: dict):
    """A dataclass from the config keys named like its fields."""
    return cls(**{f.name: section[f.name] for f in fields(cls)})


class ConfigError(InputError):
    """Configuration failed schema validation or is self-inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document plus the typed objects it describes.

    from_dict builds the geometry, crystal, mirror chain, calibration and
    sweep once; a nan or inf anywhere, or values that contradict each
    other (a cladding index above the core index, holes wider than the
    pitch, an emitter outside the solved window, a background that fills
    the whole histogram budget, a reversed v_range) fail there as a
    ConfigError.
    """

    raw: dict
    _geometry: WaveguideGeometry
    _crystal: PhotonicCrystalSpec
    chain: MirrorChain
    calibration: PhaseCalibration
    sweep: SweepSpec

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        message = _first_error(data)
        if message is not None:
            raise ConfigError(f"invalid config: {message}")
        raw = copy.deepcopy(data)
        g, m, c, s = (raw[key] for key in ("geometry", "mirror", "calibration", "sweep"))
        table = None
        if c["table"] is not None:
            table = tuple((float(v), float(p)) for v, p in c["table"])
        v_range = tuple(c["v_range"]) if c["v_range"] is not None else None
        # a contradiction is named by its key, or by the section whose
        # object refuses it
        where = "emitter.y0_nm"
        try:
            window = g["width_nm"] / 2.0 + WINDOW_MARGIN_NM
            if abs(raw["emitter"]["y0_nm"]) > window:
                raise InputError(
                    f"{raw['emitter']['y0_nm']} nm lies outside the solved "
                    f"window (+-{window:.1f} nm)"
                )
            where = "sweep.background"
            sweep = _build(SweepSpec, s)
            where = "geometry"
            geometry = _build(WaveguideGeometry, g)
            where = "mirror"
            crystal = _build(PhotonicCrystalSpec, m)
            one_way = waveguide_transmission(
                m["loss_db_per_mm"], m["qd_mirror_distance_um"] * 1000.0
            )
            chain = MirrorChain(
                t_phi_sq=m["t_phi_sq"], t_wg_sq=one_way**2, r_M_mag=m["r_M_mag"]
            )
            where = "calibration.v_range"
            if v_range is not None and v_range[0] > v_range[1]:
                raise InputError(f"{list(v_range)} is reversed")
            where = "calibration"
            calibration = PhaseCalibration(
                model=CalibrationModel(c["model"]),
                table=table,
                quad_coeff=c["quad_coeff"],
                quad_offset=c["quad_offset"],
                v_range=v_range,
            )
        except InputError as exc:
            raise ConfigError(f"inconsistent config: {where}: {exc}") from None
        return cls(raw, geometry, crystal, chain, calibration, sweep)

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


def write_json(path: str, doc) -> None:
    """Write doc as sorted, 2-space-indented JSON ending in LF.

    A nan or an infinity, which JSON does not have, is a ValueError.
    """
    tokens = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False).iterencode(doc)
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
