import copy
import csv
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasemirror.cli import main
from phasemirror.config import QD1_PRESET, RunConfig
from phasemirror.csvio import MalformedCSV, read_csv, write_csv
from phasemirror.synthlab import histogram_header, read_histogram_csv

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072e-308, 1e308]

tables = st.integers(min_value=1, max_value=4).flatmap(
    lambda n_cols: st.lists(
        st.tuples(*[st.floats(width=64) | st.sampled_from(SPECIAL)] * n_cols),
        max_size=12,
    ).map(lambda rows: (n_cols, rows))
)


def reference_bytes(path, header, rows):
    """The writers' format before it moved into csvio: csv.writer over repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    with open(path, "rb") as fh:
        return fh.read()


def reference_read(path, header):
    """A table's columns by csv.reader and float(), under its header."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(header)
    return [np.array([float(row[j]) for row in rows[1:]]) for j in range(len(header))]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.flags.c_contiguous
        assert g.tobytes() == w.tobytes()


def columns_of(n_cols, rows):
    return [[row[j] for row in rows] for j in range(n_cols)]


@given(tables)
@example((1, []))
@example((3, [(0.0, -0.0, np.nan)]))
@example((2, [(np.inf, -np.inf), (5e-324, 1e308)]))
# values repeated in one block, each written once per cell: -0.0 apart
# from 0.0, and every nan as "nan"
@example((1, [(v,) for v in (0.0, -0.0, 2.5, 0.0, np.nan, -np.nan, 2.5, -0.0, -np.nan)]))
def test_bytes_match_the_reference_writer(tmp_path_factory, table):
    n_cols, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(n_cols)]
    write_csv(str(tmp / "got.csv"), header, *columns_of(n_cols, rows))
    want = reference_bytes(tmp / "want.csv", header, rows)
    assert (tmp / "got.csv").read_bytes() == want


@given(tables.filter(lambda table: table[1]))
@example((4, [tuple(SPECIAL[:4]), tuple(SPECIAL[4:])]))
@example((1, [(np.nan,)]))
def test_written_tables_read_back_bit_for_bit(tmp_path_factory, table):
    n_cols, rows = table
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    header = [f"c{j}" for j in range(n_cols)]
    columns = columns_of(n_cols, rows)
    write_csv(path, header, *columns)
    # repr writes every nan as "nan", which reads back as the one np.nan
    want = [np.where(np.isnan(col), np.nan, col) for col in map(np.array, columns)]
    assert_same_arrays(read_csv(path, header), want)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "line 1: expected header"),
        ("a,c\n1,2\n", "line 1: expected header"),
        ("a,b\r\n1,2\r\n3,4\r\n", "line 1: expected header ['a', 'b'], got ['a', 'b\\r']"),
        ("a,b\n", "line 2: expected at least one row"),
        ("a,b\n1,2\n3\n", "line 3: expected 2 columns"),
        ("a,b\n1,2\n3,4,5\n", "line 3: expected 2 columns"),
        ("a,b\n1,2\n\n", "line 3: not a row as written"),
        ("a,b\n1,2\n3,4", "line 3: not a row as written"),
        ("a,b\n1,2\r\n3,4\r\n", "line 2: not a row as written"),
        ('a,b\n"1",2\n3,"4"\n', "line 2: not a row as written"),
        # the first bad line is named, even when a later one fails in an
        # earlier column
        ("a,b\n1,2\n3,x\ny,4\n", "line 3: could not convert string 'x'"),
        # the right number of cells in all, but not on every line
        ("a,b\n1\n2,3,4\n", "line 2: expected 2 columns"),
        ("a,b\n1,2\n\n3,4\n", "line 3: not a row as written"),
    ],
)
def test_errors_name_path_and_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(MalformedCSV, match=re.escape(match)) as err:
        read_csv(str(path), ("a", "b"))
    assert str(path) in str(err.value)


def layout_reference(data, header):
    """(columns, None) for bytes in the writer's layout, else (None, first bad line).

    The layout: the header line, at least one row, every line ending in
    LF, each of len(header) cells that float() reads, ASCII, and no
    blank line, quote, CR or 0x1c-0x1f.  An underscore is the one
    character float() reads in a number and numpy's parser does not.
    """
    lines = data.split(b"\n")
    if lines[0] != ",".join(header).encode():
        return None, 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if lineno == len(lines):  # the text after the last LF
            return (None, lineno) if line or not rows else (columns_of(len(header), rows), None)
        cells = line.split(b",")
        if (
            len(cells) != len(header) or not line or not line.isascii()
            or any(c in line for c in b'"\r\x1c\x1d\x1e\x1f_')
        ):
            return None, lineno
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            return None, lineno
    return None, 2  # a header without its LF, and nothing after it


# besides the writer's own cells: a quote, CR and blank lines, text numpy's
# parser reads otherwise than float() (a tab, an underscore, a hash, a sign
# alone, the separators 0x1c and 0x1f that it strips as whitespace), and
# bytes outside ASCII: an Arabic-Indic digit and one that is not UTF-8
TOKENS = [t.encode() for t in "0123456789.-e, \"\n\r\t_#+\u0661\x1c\x1f"] + [
    b"\xff", b"nan", b"inf", b"1.5", b"-0.0", b"2e-3",
]
texts = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.sampled_from([b"", b"\n", b"\r\n"]),
    st.lists(st.sampled_from(TOKENS), max_size=40).map(b"".join),
).map(lambda t: (t[0], ",".join("abc"[: t[0]]).encode() + t[1] + t[2]))


@given(texts)
@example((2, b"a,b\n1\n2,3,4\n"))  # a ragged row
@example((2, b"a,b\n1,2\n3,4\n"))
@example((1, b"a\n1\n\n2\n"))  # a blank line
@example((3, b'a,b,c\n1,"2,3",4\n'))  # a quoted cell
@example((1, b"a\n1_0\n"))
@example((1, "a\n\u0661\n".encode()))
@example((1, b"a\n\x1c1\n"))
@example((2, b"a,b\n\t1,+2\n"))
@example((2, b"a,b\n#1,2\n"))
@example((2, b"a,b\n1,2\r3,4\n"))  # a lone CR ends a line
@example((2, b"a,b\n1,2\n \n3,4\n"))  # a whitespace-only line
@example((2, b"a,b\n1,2\n3,4\n\n"))  # a trailing blank line
@example((2, b"a,b\n1,2\n3,\xff4\n5,6\n"))  # a byte that is not UTF-8
@example((2, b"a,b\n1,2\n3,x\n\r\n"))  # a bad cell before a CR
def test_other_layouts_are_refused_at_their_first_bad_line(tmp_path_factory, case):
    """The reference's arrays, or MalformedCSV naming the reference's line."""
    n, data = case
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    header = tuple("abc"[:n])
    want, lineno = layout_reference(data, header)
    if want is None:
        with pytest.raises(MalformedCSV) as err:
            read_csv(path, header)
        assert str(err.value).startswith(f"{path} line {lineno}: ")
    else:
        assert_same_arrays(read_csv(path, header), [np.array(col) for col in want])


def test_alternating_columns_keep_their_own_cells(tmp_path):
    a = np.linspace(0.0, 25.0, 501)
    b = np.linspace(0.0, 12.5, 251)
    for k, edges in enumerate([a, b, a, b, a]):
        mids = 0.5 * (edges[:-1] + edges[1:])
        counts = np.arange(len(mids), dtype=float) * (k + 1)
        path = tmp_path / f"h{k}.csv"
        write_csv(str(path), ("t_ns", "counts"), mids, counts)
        want = reference_bytes(tmp_path / "want.csv", ("t_ns", "counts"), zip(mids, counts))
        assert path.read_bytes() == want


@pytest.mark.parametrize("irf_sigma_ns", [None, 0.2])
def test_simulated_histograms_match_the_reference_format(tmp_path, irf_sigma_ns):
    cfg = copy.deepcopy(QD1_PRESET)
    cfg["sweep"]["n_points"] = 24
    cfg["sweep"]["irf_sigma_ns"] = irf_sigma_ns
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "histograms.csv", "manifest.json", "sweep.csv", "sweep.svg"
    ]
    path = out / "histograms.csv"
    header = histogram_header(24)
    columns = reference_read(str(path), header)
    want = reference_bytes(tmp_path / "want.csv", header, zip(*columns))
    assert path.read_bytes() == want
    assert_same_arrays(read_csv(str(path), header), columns)
    histograms = read_histogram_csv(str(path), RunConfig.from_dict(cfg).sweep.bin_edges())
    assert [row.tobytes() for row in histograms] == [c.tobytes() for c in columns[1:]]


def test_a_sweep_table_is_written_and_read_a_row_at_a_time(tmp_path):
    # a 192-point sweep's histogram table, 500 rows by 193 columns: its
    # float64 values take 0.77 MB, its text 0.52 MB, and its cells held
    # as strings all at once well over 4 MB; its rows span several blocks
    # of the writer, and its counts repeat within and across them
    rng = np.random.default_rng(0)
    edges = np.linspace(0.0, 25.0, 501)
    t_ns = 0.5 * (edges[:-1] + edges[1:])
    columns = [t_ns, *(rng.poisson(400.0 * np.exp(-t_ns / (1.0 + j % 7))) for j in range(192))]
    header = ["t_ns", *(f"counts_{j:03d}" for j in range(192))]
    path = str(tmp_path / "histograms.csv")
    tracemalloc.start()
    try:
        write_csv(path, header, *columns)
        wrote = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_csv(path, header)
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_arrays(back, [np.asarray(c, dtype=float) for c in columns])
    want = reference_bytes(tmp_path / "want.csv", header, zip(*columns))
    with open(path, "rb") as fh:
        assert fh.read() == want
    assert wrote < 2e6
    assert read < 4e6
