"""Run configuration: one validated JSON document drives every command.

The schema rejects unknown keys so typos fail loudly, and the SHA-256
hash of the canonical serialization is recorded in every output
manifest, tying artifacts to the exact inputs that produced them.

`SCHEMA` is a JSON Schema (draft 2020-12) checked by a small interpreter
of exactly the keywords it uses: `type` (a name or a list of names, with
JSON's `number` and `integer`, so booleans are neither and 2.0 is an
integer), `enum`, `required`, `properties`, `additionalProperties: false`,
`minimum`, `maximum`, `exclusiveMinimum`, `items`, `minItems` and
`maxItems`.  It reports the error, with the text, that
`jsonschema.validate` would raise.  A document the schema accepts must
also describe a buildable device: `RunConfig.from_dict` builds its
geometry, crystal, mirror chain and calibration, and a contradiction
among the values is a ConfigError too.

The package's JSON goes through `read_json` and `write_json` (sorted
keys, two-space indent, final LF): configs, manifests and reports.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import operator
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .emission import EmitterScene
from .modesolver import WINDOW_MARGIN_NM, WaveguideGeometry
from .opticalstack import MirrorChain, PhotonicCrystalSpec, waveguide_transmission
from .synthlab import CalibrationModel, PhaseCalibration, default_bin_edges

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["geometry", "mirror", "emitter", "calibration", "sweep", "seed"],
    "properties": {
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "width_nm", "thickness_nm", "core_index", "clad_index",
                "wavelength_nm", "grid_points",
            ],
            "properties": {
                "width_nm": _POS,
                "thickness_nm": _POS,
                "core_index": _POS,
                "clad_index": _POS,
                "wavelength_nm": _POS,
                "grid_points": {"type": "integer", "minimum": 64},
            },
        },
        "mirror": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "n_holes", "pitch_nm", "hole_radius_nm", "n_unetched", "n_hole",
                "termination_index", "loss_db_per_mm", "qd_mirror_distance_um",
                "t_phi_sq", "r_M_mag", "lambda_min_nm", "lambda_max_nm",
                "sweep_points",
            ],
            "properties": {
                "n_holes": {"type": "integer", "minimum": 0},
                "pitch_nm": _POS,
                "hole_radius_nm": _NONNEG,
                "n_unetched": _POS,
                "n_hole": _POS,
                "termination_index": _POS,
                "loss_db_per_mm": _NONNEG,
                "qd_mirror_distance_um": _POS,
                "t_phi_sq": {"type": "number", "minimum": 0, "maximum": 1},
                "r_M_mag": {"type": "number", "minimum": 0, "maximum": 1},
                "lambda_min_nm": _POS,
                "lambda_max_nm": _POS,
                "sweep_points": {"type": "integer", "minimum": 2},
            },
        },
        "emitter": {
            "type": "object",
            "additionalProperties": False,
            "required": ["y0_nm", "gamma_x0", "gamma_y0", "gamma_b", "gamma_nrad"],
            "properties": {
                "y0_nm": _NUM,
                "gamma_x0": _NONNEG,
                "gamma_y0": _NONNEG,
                "gamma_b": _NONNEG,
                "gamma_nrad": _NONNEG,
            },
        },
        "calibration": {
            "type": "object",
            "additionalProperties": False,
            "required": ["model", "quad_coeff", "quad_offset", "v_range", "table"],
            "properties": {
                "model": {"enum": ["quadratic", "table"]},
                "quad_coeff": {"type": ["number", "null"]},
                "quad_offset": _NUM,
                "v_range": {
                    "type": ["array", "null"],
                    "items": _NUM,
                    "minItems": 2,
                    "maxItems": 2,
                },
                "table": {
                    "type": ["array", "null"],
                    "items": {
                        "type": "array",
                        "items": _NUM,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "v_start", "v_stop", "n_points", "counts_scale", "hist_counts",
                "t_max_ns", "n_bins", "irf_sigma_ns", "amp_ratio", "background",
            ],
            "properties": {
                "v_start": _NUM,
                "v_stop": _NUM,
                "n_points": {"type": "integer", "minimum": 1},
                "counts_scale": _POS,
                "hist_counts": _POS,
                "t_max_ns": _POS,
                "n_bins": {"type": "integer", "minimum": 8},
                "irf_sigma_ns": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "amp_ratio": _NONNEG,
                "background": _NONNEG,
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "r_T_mag": {"type": ["number", "null"], "minimum": 0, "maximum": 1},
    },
}

DEFAULT_CONFIG: dict = {
    "geometry": {
        "width_nm": 300.0,
        "thickness_nm": 160.0,
        "core_index": 3.48,
        "clad_index": 1.0,
        "wavelength_nm": 930.0,
        "grid_points": 513,
    },
    "mirror": {
        "n_holes": 12,
        "pitch_nm": 265.0,
        "hole_radius_nm": 70.0,
        "n_unetched": 2.56,
        "n_hole": 1.107,
        "termination_index": 2.56,
        "loss_db_per_mm": 7.5,
        "qd_mirror_distance_um": 30.0,
        "t_phi_sq": 0.55,
        "r_M_mag": 1.0,
        "lambda_min_nm": 850.0,
        "lambda_max_nm": 1050.0,
        "sweep_points": 401,
    },
    "emitter": {
        "y0_nm": 0.0,
        "gamma_x0": 0.0,
        "gamma_y0": 1.0,
        "gamma_b": 0.1,
        "gamma_nrad": 0.1,
    },
    "calibration": {
        "model": "quadratic",
        "quad_coeff": 0.05,
        "quad_offset": 0.0,
        "v_range": None,
        "table": None,
    },
    "sweep": {
        "v_start": 0.0,
        "v_stop": 8.0,
        "n_points": 12,
        "counts_scale": 40000.0,
        "hist_counts": 100000.0,
        "t_max_ns": 25.0,
        "n_bins": 500,
        "irf_sigma_ns": None,
        "amp_ratio": 0.05,
        "background": 0.0,
    },
    "seed": 20230901,
    # figure-style default: pin |r_T| at 0.5; set null to compose it
    # from t_phi_sq, the propagation loss over 2L, and r_M_mag
    "r_T_mag": 0.5,
}

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


class ConfigError(ValueError):
    """Configuration failed schema validation or is self-inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration document plus the typed objects it describes.

    from_dict builds the geometry, crystal, mirror chain and calibration
    once; values that contradict each other (a cladding index above the
    core index, holes wider than the pitch, an emitter outside the solved
    window, a background that fills the whole histogram budget) fail
    there as a ConfigError.
    """

    raw: dict
    _geometry: WaveguideGeometry
    _crystal: PhotonicCrystalSpec
    _chain: MirrorChain
    _calibration: PhaseCalibration

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        message = _best_error(data)
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
                raise ValueError(
                    f"y0 = {raw['emitter']['y0_nm']} nm lies outside the solved "
                    f"window (+-{window:.1f} nm)"
                )
            s = raw["sweep"]
            if s["hist_counts"] - s["background"] * s["n_bins"] <= 0:
                raise ValueError(
                    "hist_counts must exceed the background budget background * n_bins"
                )
            one_way = waveguide_transmission(
                m["loss_db_per_mm"], m["qd_mirror_distance_um"] * 1000.0
            )
            return cls(
                raw,
                WaveguideGeometry(
                    width_nm=g["width_nm"],
                    thickness_nm=g["thickness_nm"],
                    core_index=g["core_index"],
                    clad_index=g["clad_index"],
                    wavelength_nm=g["wavelength_nm"],
                ),
                PhotonicCrystalSpec(
                    n_holes=m["n_holes"],
                    pitch_nm=m["pitch_nm"],
                    hole_radius_nm=m["hole_radius_nm"],
                    n_unetched=m["n_unetched"],
                    n_hole=m["n_hole"],
                    termination_index=m["termination_index"],
                ),
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
        except ValueError as exc:
            raise ConfigError(f"inconsistent config: {exc}") from None

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def geometry(self) -> WaveguideGeometry:
        return self._geometry

    @property
    def grid_points(self) -> int:
        return int(self.raw["geometry"]["grid_points"])

    def crystal(self) -> PhotonicCrystalSpec:
        return self._crystal

    def chain(self) -> MirrorChain:
        return self._chain

    def r_T_magnitude(self) -> float:
        override = self.raw.get("r_T_mag")
        if override is not None:
            return float(override)
        return self.chain().magnitude

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

    def calibration(self) -> PhaseCalibration:
        return self._calibration

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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_json_default)
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


def builtin_table1_path() -> str:
    """Path to the shipped per-emitter results table."""
    return str(resources.files("phasemirror.data") / "table1.csv")
