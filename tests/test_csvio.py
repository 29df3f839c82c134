import copy
import csv
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasemirror.cli import main
from phasemirror.config import QD1_PRESET
from phasemirror.csvio import MalformedCSV, read_csv, write_csv
from phasemirror.synthlab import HISTOGRAM_HEADER, read_histogram_csv

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
    """The reader before the bulk parse: csv.reader line by line."""
    n = len(header)
    cells = []
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
            cells.append(row)
    # every line's width is checked before any cell is converted
    values = []
    for lineno, row in enumerate(cells, start=2):
        try:
            values.append([float(cell) for cell in row])
        except ValueError as exc:
            raise MalformedCSV(f"{path} line {lineno}: {exc}") from None
    return [np.array([row[j] for row in values], dtype=float) for j in range(n)]


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
def test_bytes_match_the_reference_writer(tmp_path_factory, table):
    n_cols, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{j}" for j in range(n_cols)]
    write_csv(str(tmp / "got.csv"), header, *columns_of(n_cols, rows))
    want = reference_bytes(tmp / "want.csv", header, rows)
    assert (tmp / "got.csv").read_bytes() == want


@given(tables)
@example((2, []))
@example((4, [tuple(SPECIAL[:4]), tuple(SPECIAL[4:])]))
def test_read_round_trip_is_exact(tmp_path_factory, table):
    n_cols, rows = table
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    header = [f"c{j}" for j in range(n_cols)]
    columns = columns_of(n_cols, rows)
    write_csv(path, header, *columns)
    back = read_csv(path, header)
    assert len(back) == n_cols
    for got, want in zip(back, map(np.array, columns)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)  # nan matches nan
        # -0.0 keeps its sign; repr writes every nan as "nan"
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "line 1: expected header"),
        ("a,c\n1,2\n", "line 1: expected header"),
        ("a,b\n1,2\n3\n", "line 3: expected 2 columns"),
        ("a,b\n1,2\n\n", "line 3: expected 2 columns"),
        # the first bad line is named, even when a later one fails in an
        # earlier column
        ("a,b\n1,2\n3,x\ny,4\n", "line 3: could not convert string to float: 'x'"),
        # the right number of cells in all, but not on every line
        ("a,b\n1\n2,3,4\n", "line 2: expected 2 columns"),
        ("a,b\n1,2\n\n3,4\n", "line 3: expected 2 columns"),
    ],
)
def test_errors_name_path_and_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedCSV, match=match) as err:
        read_csv(str(path), ("a", "b"))
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "text, n_rows",
    [
        ('a,b\n"1",2\n3,"4"\n', 2),  # quoted cells
        ("a,b\r\n1,2\r\n3,4\r\n", 2),  # CRLF line ends
        ("a,b\n1,2\n3,4", 2),  # no final LF
        ("a,b\n", 0),
        ("a,b\n 1 ,2\n3,4e0\n", 2),  # cells float() reads
    ],
)
def test_irregular_tables_read_as_csv_reader_reads_them(tmp_path, text, n_rows):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    got = read_csv(str(path), ("a", "b"))
    assert_same_arrays(got, reference_read(str(path), ("a", "b")))
    assert len(got[0]) == n_rows


TOKENS = list("0123456789.-e, \"\n\r") + ["nan", "inf", "1.5", "-0.0", "2e-3"]
texts = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["", "\n", "\r\n"]),
    st.lists(st.sampled_from(TOKENS), max_size=40).map("".join),
).map(lambda t: (t[0], ",".join("abc"[: t[0]]) + t[1] + t[2]))


@given(texts)
@example((2, "a,b\n1\n2,3,4\n"))
@example((2, "a,b\n1,2\n3,4\n"))
@example((1, "a\n1\n\n2\n"))
@example((3, 'a,b,c\n1,"2,3",4\n'))
def test_reader_agrees_with_csv_reader(tmp_path_factory, case):
    """Either the reference's arrays or its MalformedCSV, and nothing else."""
    n, text = case
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
    header = tuple("abc"[:n])
    try:
        want = reference_read(path, header)
    except MalformedCSV as exc:
        with pytest.raises(MalformedCSV) as err:
            read_csv(path, header)
        assert str(err.value) == str(exc)
    else:
        assert_same_arrays(read_csv(path, header), want)


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
    paths = sorted(out.glob("hist_*.csv"))
    assert len(paths) == 24
    for path in paths:
        mids, counts = reference_read(str(path), HISTOGRAM_HEADER)
        want = reference_bytes(tmp_path / "want.csv", HISTOGRAM_HEADER, zip(mids, counts))
        assert path.read_bytes() == want
        assert_same_arrays(read_csv(str(path), HISTOGRAM_HEADER), [mids, counts])
        assert read_histogram_csv(str(path)).counts.tobytes() == counts.tobytes()
