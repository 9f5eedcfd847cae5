import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaospi.errors import (
    ChaospiError,
    EmptySeriesError,
    MissingFileError,
    NonFiniteValueError,
    ParseError,
    SeriesTooShortError,
)
from chaospi.series import TimeSeries, load_series
from helpers import reference_load_series, same_bits, write_series


def test_load_single_column_without_header(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1.5\n2.5\n-3.25\n")
    s = load_series(p)
    assert np.array_equal(s.values, [1.5, 2.5, -3.25])
    assert s.labels is None


def test_load_single_column_with_header(tmp_path):
    p = tmp_path / "headed.csv"
    p.write_text("value\n1\n2\n")
    s = load_series(p)
    assert np.array_equal(s.values, [1.0, 2.0])


def test_load_date_value_with_header_keeps_labels(tmp_path):
    p = tmp_path / "dated.csv"
    p.write_text("date,value\n2020-01,3.2\n2020-02,3.4\n")
    s = load_series(p)
    assert s.labels == ["2020-01", "2020-02"]
    assert np.array_equal(s.values, [3.2, 3.4])


def test_load_date_value_without_header(tmp_path):
    # second cell of the first row parses as a float, so there is no header
    p = tmp_path / "bare.csv"
    p.write_text("2020-01,3.2\n2020-02,3.4\n")
    s = load_series(p)
    assert s.labels == ["2020-01", "2020-02"]


# Excel's "CSV UTF-8" starts the file with a byte-order mark
@pytest.mark.parametrize(
    "text, column",
    [("1.5\n2.5\n3.5\n", None), ("value,a,b\n1.5,0,0\n2.5,0,0\n3.5,0,0\n", "value")],
    ids=["headerless", "wide"],
)
def test_utf8_byte_order_mark_is_skipped(tmp_path, text, column):
    p = tmp_path / "excel.csv"
    p.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_series(p, column=column).values.tolist() == [1.5, 2.5, 3.5]


def test_wide_file_requires_column(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("date,cpi,gdp\n2020-01,1.0,2.0\n2020-02,1.5,2.5\n")
    with pytest.raises(ParseError):
        load_series(p)
    s = load_series(p, column="gdp")
    assert np.array_equal(s.values, [2.0, 2.5])
    assert s.labels == ["2020-01", "2020-02"]


def test_unknown_column_rejected(tmp_path):
    p = tmp_path / "wide.csv"
    p.write_text("date,a,b\nx,1,2\ny,3,4\n")
    with pytest.raises(ParseError, match="no column named"):
        load_series(p, column="c")


def test_column_without_header_rejected(tmp_path):
    p = tmp_path / "bare.csv"
    p.write_text("1.0\n2.0\n")
    with pytest.raises(ParseError, match="no header"):
        load_series(p, column="value")


def test_parse_error_reports_one_based_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("value\n1.0\noops\n")
    with pytest.raises(ParseError, match=r"^row 3: not a number: 'oops'$") as exc:
        load_series(p)
    assert exc.value.row == 3


def test_non_finite_cell_reports_row(tmp_path):
    p = tmp_path / "nan.csv"
    p.write_text("1.0\nnan\n3.0\n")
    with pytest.raises(NonFiniteValueError, match=r"^row 2: non-finite value: 'nan'$") as exc:
        load_series(p)
    assert exc.value.row == 2
    assert not isinstance(exc.value, ParseError)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("value\n1.0\n\noops\n", ParseError, "not a number: 'oops'"),
        ('date,value\n"a\nb",1.0\nx,oops\n', ParseError, "not a number: 'oops'"),
        ("1.0\n   \n2.0\r\ninf\n", NonFiniteValueError, "non-finite value: 'inf'"),
    ],
    ids=["blank_line", "multi_line_record", "non_finite"],
)
def test_row_error_names_the_file_line(tmp_path, text, error, message):
    # blank lines and records spanning lines still count: the fault is on line 4
    p = tmp_path / "lines.csv"
    p.write_bytes(text.encode())
    with pytest.raises(error, match=rf"^row 4: {message}$") as exc:
        load_series(p)
    assert exc.value.row == 4


def test_empty_value_cell_rejected(tmp_path):
    p = tmp_path / "gap.csv"
    p.write_text("date,value\nx,1.0\ny,\n")
    with pytest.raises(ParseError) as exc:
        load_series(p)
    assert exc.value.row == 3


def test_header_only_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("value\n")
    with pytest.raises(EmptySeriesError):
        load_series(p)


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "gappy.csv"
    p.write_text("1.0\n\n2.0\n   \n3.0\n")
    s = load_series(p)
    assert len(s) == 3


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        load_series(tmp_path / "nope.csv")


def test_ragged_rows_rejected(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("date,value\nx,1\ny,2,3\n")
    with pytest.raises(ParseError, match="inconsistent"):
        load_series(p)


def test_single_observation_rejected(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1.0\n")
    with pytest.raises(SeriesTooShortError):
        load_series(p)


def test_write_read_round_trip_is_exact(tmp_path):
    values = np.array([0.1 + 0.2, 1.0 / 3.0, -7.25, 1e-17])
    s = TimeSeries(values=values, labels=["a", "b", "c", "d"])
    p = tmp_path / "out.csv"
    write_series(s, p)
    back = load_series(p)
    assert np.array_equal(back.values, values)
    assert back.labels == s.labels

    bare = TimeSeries(values=values)
    write_series(bare, p)
    assert np.array_equal(load_series(p).values, values)
    assert load_series(p).labels is None


def test_timeseries_validation():
    with pytest.raises(EmptySeriesError):
        TimeSeries(values=np.array([]))
    with pytest.raises(ParseError):
        TimeSeries(values=np.zeros((2, 2)))
    with pytest.raises(NonFiniteValueError, match="position 1"):
        TimeSeries(values=np.array([1.0, np.inf]))
    with pytest.raises(ParseError):
        TimeSeries(values=np.array([1.0, 2.0]), labels=["a"])



# Generated CSV texts for the loader oracle: cells of every kind the loader
# tells apart, written by csv.writer so that commas, quotes and newlines in a
# cell are quoted, then blank lines, a byte-order mark and a stray invalid
# UTF-8 byte mixed in.
_ODD_CELLS = st.sampled_from(
    ["", "  ", " 3.25 ", "0x1", "nan", "-inf", "1e999", "oops", "value", "date",
     "a,b", "x\ny", 'q"t', "2020-01"]
)
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["-2", "1e-3"]
)
_CELLS = st.sampled_from([_NUMBERS] * 7 + [_ODD_CELLS]).flatmap(lambda cells: cells)
_BLANKS = st.sampled_from(["", "   ", "\t", " , "])
_RARELY = st.sampled_from([False] * 14 + [True])


@st.composite
def _csv_files(draw):
    width = draw(st.sampled_from([1, 2, 2, 3, 4]))
    rows = []
    if draw(st.booleans()):
        rows.append(draw(st.lists(st.sampled_from(["date", "value", "a", "1.0"]),
                                  min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.integers(1, 5)) if draw(_RARELY) else width
        rows.append(draw(st.lists(_CELLS, min_size=size, max_size=size)))
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(rows)
    lines = text.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANKS) + "\n")
    data = "".join(lines).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(_RARELY):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    column = draw(st.sampled_from([None] * (6 if width <= 2 else 1) + ["value", "a", "missing"]))
    return data, column


def _outcome(load, path, column):
    try:
        s = load(path, column=column)
    except ChaospiError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)
    return s.values, s.labels


@settings(max_examples=200, deadline=None)
@given(drawn=_csv_files())
@example(drawn=(b"date,value\nx,oops\ny,1,2\n", None))  # ragged beats a bad cell
@example(drawn=(b"a,b,c\n1,2\n", None))  # ragged beats a wide file without a column
@example(drawn=(b"a,b,c\n1,2\n", "missing"))  # ragged beats an unknown column name
@example(drawn=(b"a,b,c\n1,2,oops\n\xff", "c"))  # undecodable beats all
@example(drawn=(b"value\n", "a"))  # a column fault beats an empty file
def test_streaming_loader_matches_list_oracle(tmp_path_factory, drawn):
    data, column = drawn
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(data)
    got = _outcome(load_series, path, column)
    want = _outcome(reference_load_series, path, column)
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray)
        assert same_bits(got[0], want[0]) and got[1] == want[1]
    else:
        assert not isinstance(got[0], np.ndarray)
        assert got == want


@pytest.mark.parametrize(
    "fault", ["value,a\n1,2,3\n", "a,b,c\n1,2,3\n", "value\noops\n"],
    ids=["ragged", "wide", "bad_value"],
)
def test_undecodable_byte_far_into_the_file_wins(tmp_path, fault):
    # the byte sits many read chunks past the first fault, which the loader
    # meets long before the decoder does
    p = tmp_path / "late.csv"
    p.write_bytes(fault.encode() + b"1,2\n" * 50_000 + b"\xff\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        load_series(p)


def test_cell_over_the_csv_field_limit_is_a_parse_error(tmp_path):
    # csv.reader stops at a field over its limit (131 072 characters by
    # default), so this fault wins like an undecodable byte
    p = tmp_path / "long_cell.csv"
    p.write_text("value\n1\n2\n" + "3" * (csv.field_size_limit() + 1) + "\noops\n")
    with pytest.raises(ParseError, match="field larger than field limit") as info:
        load_series(p)
    assert info.value.row == 4


@pytest.mark.parametrize("labelled", [False, True], ids=["value_only", "date_value"])
def test_loading_keeps_about_8_bytes_per_value(tmp_path, labelled):
    # a value-only load peaks at 16 bytes a row at most (the series keeps
    # 8); a labelled one at 8 a row above what the series it returns keeps,
    # its labels included
    n = 50_000
    p = tmp_path / "long.csv"
    with open(p, "w") as fh:
        fh.write("date,value\n" if labelled else "value\n")
        fh.writelines(
            f"2020-{i:06d},{i * 0.001!r}\n" if labelled else f"{i * 0.001!r}\n"
            for i in range(n)
        )
    tracemalloc.start()
    try:
        series = load_series(p)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same_bits(series.values, [i * 0.001 for i in range(n)])
    if labelled:
        assert series.labels == [f"2020-{i:06d}" for i in range(n)]
        assert (peak - kept) / n <= 8
    else:
        assert series.labels is None
        assert peak / n <= 16
