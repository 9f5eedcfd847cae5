import numpy as np
import pytest

from chaospi.errors import (
    EmptySeriesError,
    MissingFileError,
    NonFiniteValueError,
    ParseError,
    SeriesTooShortError,
)
from chaospi.series import TimeSeries, load_series
from helpers import write_series


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

