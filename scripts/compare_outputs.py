#!/usr/bin/env python3
"""Compare two phasemirror output trees file by file.

Usage: python3 scripts/compare_outputs.py A B

Every file path under A or B is one line of the report, in sorted order.
A file with the same bytes in both trees is "identical".  Otherwise a
CSV table (read with `csvio.read_csv` under its own header) or a JSON
document (every leaf) is compared value by value: the line gives the
count of numbers that differ and their largest absolute and largest
relative deviation, each with the cell (column and line) or key where
it is, and names the first of any other differences (header, shape,
keys, a value that is not a number).  A file of another type that
differs, or one that is in one tree only, is named as such.  Exits 0 if
every file is identical, 1 if any file differs and 2 on a bad argument.
"""

from __future__ import annotations

import json
import math
import os
import sys
from numbers import Number

import numpy as np

from phasemirror.csvio import read_csv, read_header


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(top, name), root)
        for top, _, names in os.walk(root)
        for name in names
    }


def _leaves(node, path: str = ""):
    """(dotted key path, value) of every leaf of a JSON document."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, sub in items:
            yield from _leaves(sub, f"{path}.{key}" if path else str(key))
    else:
        yield path, node


def _is_number(v) -> bool:
    return isinstance(v, Number) and not isinstance(v, bool)


# Each reader gives (numbers of A, numbers of B, the name of the i-th number,
# the other differences).


def _csv_values(path_a: str, path_b: str):
    header = read_header(path_a)
    if read_header(path_b) != header:
        return [], [], None, [f"header {header} against {read_header(path_b)}"]
    a, b = read_csv(path_a, header), read_csv(path_b, header)
    if a.shape != b.shape:
        return [], [], None, [f"{a.shape[1]} rows against {b.shape[1]}"]

    def label(i: int) -> str:  # its column and its line in the file, after the header
        return f"{header[i // a.shape[1]]} line {i % a.shape[1] + 2}"

    return a.ravel(), b.ravel(), label, []


def _json_values(path_a: str, path_b: str):
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(dict(_leaves(json.load(fh))))
    a, b = docs
    labels, others = [], []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            others.append(f"{key} only in {'A' if key in a else 'B'}")
        elif _is_number(a[key]) and _is_number(b[key]):
            labels.append(key)
        elif a[key] != b[key]:
            others.append(key)
    return [a[k] for k in labels], [b[k] for k in labels], labels.__getitem__, others


def _deviations(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Absolute and relative deviation per value; two nan are equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(all="ignore"):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        dev = np.where(same, 0.0, np.abs(a - b))
        dev[np.isnan(dev)] = math.inf
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(dev == 0.0, 0.0, np.where(np.isinf(dev), math.inf, dev / scale))
    return dev, rel


def compare_file(path_a: str, path_b: str) -> str | None:
    """None if the two files hold the same bytes, else what differs."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return None
    if path_a.endswith(".csv"):
        a, b, label, others = _csv_values(path_a, path_b)
    elif path_a.endswith(".json"):
        a, b, label, others = _json_values(path_a, path_b)
    else:
        return "bytes differ"
    parts = []
    if len(a):
        dev, rel = _deviations(a, b)
        i, j = int(np.argmax(dev)), int(np.argmax(rel))
        part = f"{np.count_nonzero(dev)} of {len(dev)} numbers differ"
        if dev[i] > 0.0:
            part += f", max abs {dev[i]:.3g} at {label(i)}, max rel {rel[j]:.3g} at {label(j)}"
        parts.append(part)
    if others:
        parts.append(f"{len(others)} other difference(s), first {others[0]}")
    return "; ".join(parts) or "bytes differ, values equal"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(os.path.isdir(p) for p in argv):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root_a, root_b = argv
    files_a, files_b = _files(root_a), _files(root_b)
    differs = False
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            verdict = f"only in {root_a if name in files_a else root_b}"
        else:
            verdict = compare_file(os.path.join(root_a, name), os.path.join(root_b, name))
        differs = differs or verdict is not None
        print(f"{name}: {verdict or 'identical'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
