"""Seeded schema-valid configs: the qd1 preset with a few keys changed.

Each config is `QD1_PRESET` with 1-4 numeric keys of `config._TABLE`
changed.  A changed key takes a bound's edge (its minimum, its maximum,
or null where null is allowed) one time in four, and else its preset
value times 10**u for u uniform in [-1, 1], a zero or null value
counting as 1.  A value is kept within its key's maximum, an integer
is rounded up to its minimum, and the sizes are capped (`n_points`
<= 48, `n_bins` <= 2000, `grid_points` <= 2049) so that one command
takes tens of milliseconds.  An integer key's value is written as an
integer-valued float (12.0), which the schema accepts as an integer,
one time in four.  Every config passes the schema; some contradict
themselves and are config errors.
"""

from __future__ import annotations

import copy
import math
import random

from phasemirror.config import _TABLE, QD1_PRESET

_CAPS = {"n_points": 48, "n_bins": 2000, "grid_points": 2049}


def _types(schema: dict) -> list[str]:
    kind = schema.get("type", [])
    return [kind] if isinstance(kind, str) else kind


def _leaves(node: dict, path: tuple = ()):
    for key, sub in node.items():
        if isinstance(sub, dict):
            yield from _leaves(sub, path + (key,))
        else:
            yield path + (key,), sub[0]


# the numeric keys with their schemas, in _TABLE's order
KEYS = [
    (path, schema)
    for path, schema in _leaves(_TABLE)
    if {"number", "integer"} & set(_types(schema))
]


def _changed(value, schema: dict, rng: random.Random, cap: float = math.inf):
    types = _types(schema)
    edges = [schema[bound] for bound in ("minimum", "maximum") if bound in schema]
    if "null" in types:
        edges.append(None)
    if edges and rng.random() < 0.25:
        new = rng.choice(edges)
    else:
        new = (value or 1.0) * 10.0 ** rng.uniform(-1.0, 1.0)
        new = min(new, schema.get("maximum", math.inf), cap)
        if "integer" in types:
            new = max(round(new), schema.get("minimum", 0))
    if "integer" in types and rng.random() < 0.25:
        new = float(new)
    return new


def schema_valid_configs(seed: int, n: int):
    """n (changes, config) pairs from seed; changes maps a dotted key to its value."""
    rng = random.Random(seed)
    for _ in range(n):
        doc = copy.deepcopy(QD1_PRESET)
        changes = {}
        for path, schema in rng.sample(KEYS, rng.randint(1, 4)):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            new = _changed(parent[path[-1]], schema, rng, _CAPS.get(path[-1], math.inf))
            parent[path[-1]] = changes[".".join(path)] = new
        yield changes, doc
