"""The table format of every CSV the package writes, and its reader.

`inference.read_table1_csv` reads the input table `table1.csv` itself,
since its rows hold named, checked values rather than float columns.

A table is a header line of column names, then one line per row of
`repr(float)` cells joined by commas; every line ends in LF and the
file is UTF-8.  `repr` round-trips every float64 exactly, -0.0, inf
and subnormals included, so a table read back equals the arrays
written; a nan reads back as nan, without its sign or payload.

A table in the writer's own layout (the exact header line, at least
one row, no blank line, and no quote, CR, non-ASCII character or
ASCII separator 0x1c-0x1f anywhere) is parsed by numpy's C parser,
`np.loadtxt`, which reads those cells as `float()` does.  Any other
table, and any table that parser refuses, is read with `csv.reader`
and `float()`, which alone name the errors.  No write or read holds
the text of a whole table at once.
"""

from __future__ import annotations

import array
import csv
import itertools
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
        try:
            table = _read_plain(path, header)
        except ValueError:  # _NotPlain, a cell loadtxt refuses, or bad UTF-8
            table = _read_rows(path, header)
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
    return [col.copy() for col in table.T]


class _NotPlain(ValueError):
    """A table outside the writer's own layout: csv.reader reads it."""


# characters that make numpy's parser read a line otherwise than csv.reader
# and float() do: quotes, CR line ends, and the separators \x1c-\x1f,
# which it strips from a cell as whitespace
_NOT_PLAIN = ('"', "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain(path: str, header: Sequence[str]) -> np.ndarray:
    # the (rows, columns) table by np.loadtxt, a line at a time; raises
    # ValueError for any table csv.reader is left to read
    n = len(header)
    rows = 0

    def lines(fh):
        nonlocal rows
        for line in fh:
            if line == "\n" or not line.isascii() or any(c in line for c in _NOT_PLAIN):
                raise _NotPlain
            rows += 1
            yield line

    with open(path, newline="", encoding="utf-8") as fh:
        first, row = fh.readline(), fh.readline()
        # loadtxt warns on an empty body; an empty table is csv.reader's
        if first != ",".join(header) + "\n" or not row:
            raise _NotPlain
        table = np.loadtxt(
            lines(itertools.chain([row], fh)),
            delimiter=",",
            comments=None,
            dtype=float,
            ndmin=2,
        )
    if table.shape != (rows, n):  # a line loadtxt skipped, or other columns
        raise _NotPlain
    return table


def _read_rows(path: str, header: Sequence[str]) -> np.ndarray:
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
    return np.frombuffer(values).reshape(-1, n)
