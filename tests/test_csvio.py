import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasemirror.csvio import MalformedCSV, read_csv, write_csv

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
    ],
)
def test_errors_name_path_and_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedCSV, match=match) as err:
        read_csv(str(path), ("a", "b"))
    assert str(path) in str(err.value)
