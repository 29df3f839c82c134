"""The table format of every CSV the package writes, and its reader.

`inference.read_table1_csv` reads the input table `table1.csv` itself,
since its rows hold named, checked values rather than float columns.

A table is a header line of column names, then one line per row of
`repr(float)` cells joined by commas; every line ends in LF and the
file is UTF-8.  `repr` round-trips every float64 exactly, -0.0, inf
and subnormals included, so a table read back equals the arrays
written; a nan reads back as nan, without its sign or payload.
The writer formats each distinct value of a block of rows once and
places its text in every cell that holds it: `repr` is most of a
write, and a table of photon counts repeats its values.

The reader takes only the writer's layout: the exact header line, at
least one row, every line ending in LF, ASCII text, and no blank line,
quote, CR or ASCII separator 0x1c-0x1f anywhere.  Numpy's C parser,
`np.loadtxt`, reads the rows a line at a time, the writer's cells as
`float()` does, so no read holds the text of a whole table at once.
Any other table, a cell that parser refuses and a byte that is not
UTF-8 (read as non-ASCII) are MalformedCSV, naming the first bad line.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .errors import InputError


class MalformedCSV(InputError):
    """A table does not parse: wrong header, column count or cell."""


def write_csv(path: str, header: Sequence[str], *columns: Sequence[float]) -> None:
    """Write equal-length columns of floats under a header."""
    # ~16k cells at a time, without holding a wide table as floats or text
    # all at once.  repr costs most, and a count table repeats its values
    # (4% of a 192-point histogram table's cells are distinct), so each
    # distinct value of a block is formatted once, told apart by its bits
    # as -0.0 is from 0.0, and its text gathered into the cells
    step = max(1, 16384 // len(columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), step):
            block = np.stack([col[start:start + step] for col in columns], axis=1, dtype=float)
            bits, cells = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
            rows = text[cells.reshape(block.shape)].tolist()
            fh.write("\n".join(map(",".join, rows)) + "\n")


def _open(path: str):
    # CR is kept, to be refused; a byte that is not UTF-8 becomes U+FFFD,
    # which fails the ASCII check on its own line
    return open(path, newline="", encoding="utf-8", errors="replace")


def read_header(path: str) -> list[str]:
    """The column names on a table's first line, split at its commas."""
    with _open(path) as fh:
        line = fh.readline()
    return line.removesuffix("\n").split(",") if line else []


def read_csv(path: str, header: Sequence[str]) -> np.ndarray:
    """A table with this header as one C-contiguous float64 array, a row per column.

    Raises MalformedCSV naming the path and the first line outside the
    writer's layout.
    """
    n = len(header)
    lineno, line = 1, ""

    def rows(fh):
        # loadtxt asks for a line only once it has parsed the one before,
        # so lineno and line name the row of a cell or width it refuses
        nonlocal lineno, line
        for line in fh:
            lineno += 1
            # the quote, CR and 0x1c-0x1f that the writer never writes,
            # and that numpy's parser reads otherwise than float() does
            if (
                line[-1] != "\n" or line == "\n" or not line.isascii() or '"' in line
                or "\r" in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line
            ):
                raise MalformedCSV(
                    f"{path} line {lineno}: not a row as written: blank, no final LF,"
                    " or a byte outside ASCII, a quote, a CR or a 0x1c-0x1f separator"
                )
            yield line

    with _open(path) as fh:
        first, row = fh.readline(), fh.readline()
        got = first.removesuffix("\n").split(",") if first else None
        if got != list(header):
            raise MalformedCSV(f"{path} line 1: expected header {list(header)}, got {got}")
        if not row:  # loadtxt would warn on an empty body
            raise MalformedCSV(f"{path} line 2: expected at least one row")
        # loadtxt takes its width from the first row and refuses any other
        if row.count(",") != n - 1:
            raise MalformedCSV(f"{path} line 2: expected {n} columns")
        try:
            table = np.loadtxt(
                rows(itertools.chain([row], fh)),
                delimiter=",",
                comments=None,
                dtype=float,
                ndmin=2,
            )
        except MalformedCSV:
            raise
        except ValueError as exc:  # loadtxt's own row count is not the line
            if line.count(",") != n - 1:
                reason = f"expected {n} columns"
            else:
                reason = str(exc).partition(" at row ")[0]
            raise MalformedCSV(f"{path} line {lineno}: {reason}") from None
    return np.ascontiguousarray(table.T)
