"""Differential test: the chunked column writer against the row writer in
`reference.py` (`csv.writer`, one cell at a time), byte for byte.

Every CSV the package writes has at least two columns, and so do these
tables: `csv.writer` quotes the one empty cell of a one-column row, which
the column writer never writes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from gridwatch.csvio import _CHUNK_ROWS, RECORDS_HEADER, export_records, write_columns
from gridwatch.detection import Label
from gridwatch.errors import GridwatchError
from gridwatch.harness import derive_trial_seed, simulate_window
from reference import write_rows


def neighbours(x: float) -> list[float]:
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


# The edges of `_floattext.float_cells`, which writes |x| in [1e-4, 2**50) itself:
# the range's ends, every power of two in and beside it with both neighbours, the
# doubles just below 0.6, and short decimals.
EDGES = [
    float(np.nextafter(1e-4, 0)), 1e-4, *neighbours(2.0**50),
    *(v for k in range(-14, 50) for v in neighbours(2.0**k)),
    *(0.6 - k * 2**-53 for k in range(16)),
    0.1, 0.3, 100.0, -0.0,
]
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, np.nan,
                     np.inf, 0.1, 1.0, 1e16, 1e-5, *EDGES]),
    st.floats(allow_nan=True, allow_infinity=True),
)
TEXTS = st.sampled_from([
    *(label.value for label in Label),
    "I", "II", "III", "threshold", "most_negative", "exact", "extra_benign", "missed_attacker",
])
# Each column holds one type; a float column's NaN is an empty cell.
KINDS = (
    st.integers(-(2**63), 2**63 - 1),
    FLOATS,
    TEXTS,
)
ROW_COUNTS = st.sampled_from([0, 1, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                              2 * _CHUNK_ROWS + 3])


@st.composite
def tables(draw):
    """A header and equal-length columns, each cycling through a few drawn values."""
    rows = draw(ROW_COUNTS)
    columns = []
    for _ in range(draw(st.integers(2, 5))):
        values = draw(st.lists(draw(st.sampled_from(KINDS)), min_size=1, max_size=12))
        columns.append([values[i % len(values)] for i in range(rows)])
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns


@given(tables())
@settings(max_examples=150, deadline=None)
def test_column_writer_matches_row_writer(tmp_path_factory, table):
    header, columns = table
    out = tmp_path_factory.mktemp("csv")
    write_rows(out / "rows.csv", header, zip(*columns))
    write_columns(out / "columns.csv", header, columns)
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_column_writer_takes_numpy_columns(tmp_path):
    # the package hands the writer arrays: int, float and label columns, an undefined
    # correlation (NaN) written as an empty cell
    corrs = np.array([0.25, np.nan, -1.0])
    columns = [np.array([3, 5, 7]), corrs,
               np.array([Label.BENIGN, Label.INSUFFICIENT_DATA, Label.MALICIOUS_OVER])]
    write_columns(tmp_path / "a.csv", ["a", "b", "c"], columns)
    assert (tmp_path / "a.csv").read_text() == (
        "a,b,c\n3,0.25,benign\n5,,insufficient_data\n7,-1.0,malicious_over\n"
    )


def test_columns_of_unequal_lengths_write_nothing(tmp_path):
    with pytest.raises(ValueError, match="unequal lengths"):
        write_columns(tmp_path / "a.csv", ["a", "b"], [[1, 2], [3]])
    assert list(tmp_path.iterdir()) == []


def test_unwritable_path_is_a_gridwatch_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(GridwatchError, match="cannot write"):
        write_columns(tmp_path / "file" / "out.csv", ["a", "b"], [[1], [2]])


def test_a_replace_that_fails_leaves_the_target_and_no_temporary_file(tmp_path):
    # the temporary file is written whole, and os.replace cannot move it over a directory
    (tmp_path / "out.csv").mkdir()
    (tmp_path / "out.csv" / "kept").write_text("earlier")
    with pytest.raises(GridwatchError, match="cannot write") as raised:
        write_columns(tmp_path / "out.csv", ["a", "b"], [[1], [2]])
    assert isinstance(raised.value.__cause__, OSError)
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
    assert [path.name for path in (tmp_path / "out.csv").iterdir()] == ["kept"]
    assert (tmp_path / "out.csv" / "kept").read_text() == "earlier"


def test_records_export_holds_a_few_chunks_of_rows(tmp_path):
    # A chunk buffer is 1,024 rows of the six records columns, 8 bytes a value.  The
    # 12-month window's 34,560 rows would be 34 of them before any text is made.
    config = make_config(extra="[experiment]\nmonths = 12\n")
    columns = simulate_window(config, derive_trial_seed(0, 0)).to_records()
    export_records(columns, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        export_records(columns, tmp_path / "records.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 1024 * len(RECORDS_HEADER) * 8
