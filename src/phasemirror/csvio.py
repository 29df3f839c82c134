"""The table format of every CSV the package writes, and its reader.

`inference.read_table1_csv` reads the input table `table1.csv` itself,
since its rows hold named, checked values rather than float columns.

A table is a header line of column names, then one line per row of
`repr(float)` cells joined by commas; every line ends in LF and the
file is UTF-8.  `repr` round-trips every float64 exactly, -0.0, inf
and subnormals included, so a table read back equals the arrays
written; a nan reads back as nan, without its sign or payload.  No
write or read holds the text of a whole table at once.
"""

from __future__ import annotations

import array
import csv
from collections.abc import Sequence

import numpy as np


class MalformedCSV(ValueError):
    """A table does not parse: wrong header, column count or cell."""


def write_csv(path: str, header: Sequence[str], *columns: Sequence[float]) -> None:
    """Write equal-length columns of floats under a header."""
    # a few thousand cells at a time: as fast as formatting whole columns,
    # without holding a wide table as floats or text all at once
    step = max(1, 4096 // len(columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            block = np.stack([col[start:start + step] for col in columns], dtype=float)
            cells = [map(repr, col) for col in block.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_header(path: str) -> list[str]:
    """The column names on a table's first line, as `read_csv` reads them."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        return next(csv.reader([fh.readline()]), [])


def read_csv(path: str, header: Sequence[str]) -> list[np.ndarray]:
    """One C-contiguous float64 array per column of a table with this header.

    Raises MalformedCSV naming the path, and the line for a row error.
    """
    try:
        return _read_rows(path, header)
    except UnicodeDecodeError:
        # the text is decoded a chunk at a time: name the line from the bytes
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise MalformedCSV(f"{path} line {lineno}: {exc}") from None
        raise


def _read_rows(path: str, header: Sequence[str]) -> list[np.ndarray]:
    # csv.reader a line at a time (quoted cells, CR line ends, no final LF
    # read too); every line's width is checked before a bad cell is named
    n = len(header)
    values = array.array("d")
    bad = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != list(header):
            raise MalformedCSV(
                f"{path} line 1: expected header {list(header)}, got {got}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n:
                raise MalformedCSV(f"{path} line {lineno}: expected {n} columns")
            if bad is None:
                try:
                    values.extend(map(float, row))
                except ValueError as exc:
                    bad = MalformedCSV(f"{path} line {lineno}: {exc}")
    if bad is not None:
        raise bad
    return [col.copy() for col in np.frombuffer(values).reshape(-1, n).T]
