"""The package's one table format, written and read here only.

A table is a header line of column names, then one line per row of
`repr(float)` cells joined by commas; every line ends in LF and the
file is UTF-8.  `repr` round-trips every float64 exactly, -0.0, inf
and subnormals included, so a table read back equals the arrays
written; a nan reads back as nan, without its sign or payload.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence

import numpy as np


class MalformedCSV(ValueError):
    """A table does not parse: wrong header, column count or cell."""


def write_csv(path: str, header: Sequence[str], *columns: Iterable[float]) -> None:
    """Write equal-length columns of floats under a header."""
    cells = [map(repr, np.asarray(col, dtype=float).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str, header: Sequence[str]) -> list[np.ndarray]:
    """One C-contiguous float64 array per column of a table with this header.

    Raises MalformedCSV naming the path, and the line for a row error.
    """
    n = len(header)
    cells: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise MalformedCSV(
                f"{path} line 1: expected header {list(header)}, got {got}"
            )
        # one flat list of cells: holding every row's list at once would
        # leave hundreds of live containers for the garbage collector to scan
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n:
                raise MalformedCSV(f"{path} line {lineno}: expected {n} columns")
            cells += row
    try:
        return [np.array(list(map(float, cells[j::n]))) for j in range(n)]
    except ValueError:
        # name the first bad line, as a row-by-row parse would
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError as exc:
                raise MalformedCSV(f"{path} line {i // n + 2}: {exc}") from None
        raise
