"""The package's one table format, written and read here only.

A table is a header line of column names, then one line per row of
`repr(float)` cells joined by commas; every line ends in LF and the
file is UTF-8.  `repr` round-trips every float64 exactly, -0.0, inf
and subnormals included, so a table read back equals the arrays
written; a nan reads back as nan, without its sign or payload.
"""

from __future__ import annotations

import csv
import threading
from collections.abc import Iterable, Sequence

import numpy as np


class MalformedCSV(ValueError):
    """A table does not parse: wrong header, column count or cell."""


# A sweep writes the same time column into every histogram file.  The
# last few columns written are remembered by their float64 bytes, and one
# written again has its cells kept.  Any other column is formatted row by
# row as it is written, so a large table of new columns is never held as
# cells all at once.
_RECENT: dict[bytes, tuple[str, ...] | None] = {}
_RECENT_COLUMNS = 4
_RECENT_LOCK = threading.Lock()


def _repr_cells(column: np.ndarray) -> Iterable[str]:
    key = column.tobytes()
    with _RECENT_LOCK:
        seen = key in _RECENT
        cells = _RECENT.pop(key, None)
        if seen and cells is None:
            cells = tuple(map(repr, column.tolist()))
        _RECENT[key] = cells  # most recent last
        if len(_RECENT) > _RECENT_COLUMNS:
            del _RECENT[next(iter(_RECENT))]
    return map(repr, column.tolist()) if cells is None else cells


def write_csv(path: str, header: Sequence[str], *columns: Iterable[float]) -> None:
    """Write equal-length columns of floats under a header."""
    cells = [_repr_cells(np.asarray(col, dtype=float)) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str, header: Sequence[str]) -> list[np.ndarray]:
    """One C-contiguous float64 array per column of a table with this header.

    Raises MalformedCSV naming the path, and the line for a row error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise MalformedCSV(f"{path} line {lineno}: {exc}") from None
    n = len(header)
    head, _, body = text.partition("\n")
    # a table that a plain split parses as csv.reader does takes one bulk
    # parse; anything else, a table without rows too, the line-by-line one
    if (
        head.split(",") == list(header)
        and text.endswith("\n")
        and '"' not in text
        and "\r" not in text
        and _every_line_has_n_cells(data, n)
    ):
        cells = body[:-1].replace("\n", ",").split(",")
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            pass
        else:
            return [values[j::n].copy() for j in range(n)]
    return _read_rows(path, header)


def _every_line_has_n_cells(data: bytes, n: int) -> bool:
    # the commas and LFs in file order repeat n - 1 commas then one LF; a
    # count of commas over the whole file would pass "a,b\n1\n2,3,4\n"
    byte = np.frombuffer(data, np.uint8)
    seps = byte[(byte == ord(",")) | (byte == ord("\n"))]
    line = np.frombuffer(b"," * (n - 1) + b"\n", np.uint8)
    return seps.size % n == 0 and bool((seps.reshape(-1, n) == line).all())


def _read_rows(path: str, header: Sequence[str]) -> list[np.ndarray]:
    # the line-by-line parse that names what is wrong, and reads what a
    # plain split does not: quoted cells, CR line ends, no final LF
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
