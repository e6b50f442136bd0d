"""Observed datasets: construction invariants, CSV parsing and writing.

The blocked CSV writer and the ``np.loadtxt`` reader are checked against
the cell-by-cell versions kept in ``tests/oracles.py``: the same bytes on
disk, the same arrays read back, and the same ``DataError`` text for the
same file.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgof import data as data_module
from mdgof.data import (CSV_BLOCK_ROWS, DataError, ObservedDataset,
                        permutation_defects, read_csv)
from oracles import cellwise_read_csv, cellwise_to_csv

BLOCK = CSV_BLOCK_ROWS


def small_blocks(rows):
    """The CSV writer on blocks of ``rows`` records, so a few rows of data
    cross several block boundaries.  The reader has no blocks."""
    return mock.patch.object(data_module, "CSV_BLOCK_ROWS", rows)


def dataset(xstar):
    xstar = np.asarray(xstar, dtype=float)
    names = tuple(f"X{k + 1}" for k in range(xstar.shape[1]))
    return ObservedDataset(names, (~np.isnan(xstar)).astype(np.int8), xstar)


def written(data, tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    data.to_csv(str(new))
    cellwise_to_csv(data, str(old))
    return new.read_bytes(), old.read_bytes()


def outcome(read, path):
    try:
        d = read(str(path))
    except DataError as exc:
        return ("error", str(exc))
    return ("data", d.names, d.r.dtype, d.r.tolist(),
            np.where(d.r == 1, d.xstar, 0.0).tolist())


def assert_reads_alike(path):
    want = outcome(cellwise_read_csv, path)
    assert outcome(read_csv, path) == want
    return want


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_proxy_rejected(value):
    r = np.ones((3, 2), dtype=np.int8)
    xs = np.array([[0.0, 1.0], [2.0, value], [3.0, 4.0]])
    with pytest.raises(DataError, match="infinite"):
        ObservedDataset(("X1", "X2"), r, xs)


@pytest.mark.parametrize("names, r, xstar", [
    (("X1", "X2"), np.ones((3, 2)), np.ones((3, 3))),
    (("X1", "X2"), np.ones(3), np.ones(3)),
    (("X1",), np.ones((3, 2)), np.ones((3, 2)))],
    ids=["proxy-wider", "one-dimensional", "names-short"])
def test_shape_mismatch_rejected(names, r, xstar):
    with pytest.raises(DataError, match=r"must be \(n, K\) with K names"):
        ObservedDataset(names, r, xstar)


@pytest.mark.parametrize("names", [("A", "A"), ("A", "")], ids=["repeated", "empty"])
def test_repeated_or_empty_names_rejected(names):
    # Such a dataset would write a CSV whose header read_csv refuses.
    with pytest.raises(DataError,
                       match="^a dataset must contain unique, nonempty variable names$"):
        ObservedDataset(names, [[1, 1]], [[1.0, 2.0]])


@pytest.mark.parametrize("xstar", [[[0.0, 1.0], [np.nan, np.nan]],
                                   [[0.0, 1.0], [3.0, 2.0]]],
                         ids=["nan-observed", "value-missing"])
def test_missing_cells_must_follow_the_indicator(xstar):
    # Row 2 has X1 observed and X2 missing.
    r = np.array([[1, 1], [1, 0]])
    with pytest.raises(DataError, match="missing exactly where the indicator is 0"):
        ObservedDataset(("X1", "X2"), r, np.array(xstar))


@pytest.mark.parametrize("bad", [2, 1.5, -1, np.nan])
def test_indicator_values_other_than_0_and_1_rejected(bad):
    # Every r == 1 test would read a 2 as missing, and the int8 cast would
    # turn 1.5 into 1: both are refused before the cast.
    r = np.array([[bad, 1], [1, 0], [0, 1], [1, 1]])
    xs = np.where(r == 0, np.nan, 1.0)
    with pytest.raises(DataError, match="^indicators must be 0 or 1$"):
        ObservedDataset(("A", "B"), r, xs)
    r[0, 0] = 1
    data = ObservedDataset(("A", "B"), r, np.where(r == 0, np.nan, 1.0))
    assert data.r.dtype == np.int8
    assert data.complete_case_proportion() == 0.5


@pytest.mark.parametrize("token", ["inf", "-Infinity", "NaN", "+inf"])
def test_read_csv_names_line_and_column_of_non_finite_cell(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"A,B,C\n1,2,3\n4,NA,{token}\n")
    with pytest.raises(DataError, match="line 3, column C: non-finite"):
        read_csv(str(path))


class TestReorder:
    def test_repeated_entry_named(self):
        d = dataset([[1.0, 2.0, 3.0]])
        with pytest.raises(DataError, match="repeated X1; missing X3"):
            d.reorder(("X1", "X1", "X2"))
        # The same names as a set as the dataset's, one entry too many.
        with pytest.raises(DataError, match="repeated X2$"):
            d.reorder(("X3", "X2", "X1", "X2"))

    def test_missing_and_unknown_entries_named(self):
        d = dataset([[1.0, 2.0, 3.0]])
        with pytest.raises(DataError, match="missing X2; unknown Y"):
            d.reorder(("X3", "Y", "X1"))
        with pytest.raises(DataError, match="missing X3$"):
            d.reorder(("X1", "X2"))

    def test_permutation_accepted(self):
        d = dataset([[1.0, 2.0, np.nan]])
        assert permutation_defects(("X3", "X1", "X2"), d.names) == ""
        e = d.reorder(("X3", "X1", "X2"))
        assert e.names == ("X3", "X1", "X2")
        assert e.r.tolist() == [[0, 1, 1]]

    def test_one_shot_order(self):
        # An iterator order is read once; before, the permutation check
        # consumed it and a dataset with no columns came back.
        d = dataset([[1.0, 2.0, np.nan]])
        e = d.reorder(iter(("X3", "X1", "X2")))
        assert e.names == ("X3", "X1", "X2")
        assert e.r.tolist() == [[0, 1, 1]]
        assert d.reorder(iter(d.names)) is d
        with pytest.raises(DataError, match="missing X3$"):
            d.reorder(iter(("X1", "X2")))


class TestWriterMatchesCellwise:
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_block_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3))
        x[:, 1] = np.round(x[:, 1] * 4)       # whole numbers, -0.0 among them
        x[rng.random((n, 3)) < 0.2] = np.nan
        new, old = written(dataset(x), tmp_path)
        assert new == old
        assert new.count(b"\r\n") == n + 1

    def test_whole_subnormal_and_missing_values(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        x = [[0.0, -0.0, 1e20, 2.0 ** 53 + 2],
             [tiny, -tiny, 7.4e-309, -1.5],
             [np.nan, np.nan, np.nan, np.nan],
             [-1e20, 1.7976931348623157e308, 0.1, 1e16],
             [np.nan, np.nan, np.nan, np.nan]]
        new, old = written(dataset(x), tmp_path)
        assert new == old
        assert new.split(b"\r\n")[1:4] == [
            b"0,0,100000000000000000000,9007199254740994",
            b"5e-324,-5e-324,7.4e-309,-1.5",
            b"NA,NA,NA,NA"]

    def test_no_columns(self, tmp_path):
        d = ObservedDataset((), np.zeros((3, 0)), np.zeros((3, 0)))
        new, old = written(d, tmp_path)
        assert new == old == b"\r\n" * 4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 11), st.integers(1, 4), st.integers(1, 4),
           st.data())
    def test_random_datasets(self, tmp_path_factory, n, K, block, draw):
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-2 ** 70, 2 ** 70).map(float),
            st.just(np.nan))
        x = draw.draw(st.lists(st.lists(cell, min_size=K, max_size=K),
                               min_size=n, max_size=n))
        tmp = tmp_path_factory.mktemp("w")
        d = dataset(np.array(x, dtype=float).reshape(n, K))
        with small_blocks(block):
            new, old = written(d, tmp)
        assert new == old


class TestReaderMatchesCellwise:
    def test_round_trip_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2 * BLOCK + 7, 2))
        x[rng.random(x.shape) < 0.3] = np.nan
        d = dataset(x)
        d.to_csv(str(tmp_path / "d.csv"))
        e = read_csv(str(tmp_path / "d.csv"))
        assert e.names == d.names
        assert np.array_equal(e.r, d.r)
        assert np.array_equal(e.xstar, d.xstar, equal_nan=True)
        assert_reads_alike(tmp_path / "d.csv")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("text, message", [
        # blank lines, quoting and padding are accepted
        ('A,B\n\n1, 2\n"3","NA"\n\n NA ,4.5e1\n', None),
        # a parse error on an earlier record than a length error
        ("A,B\n1,2\n3,x\n4\n5,6\n", "line 3: cannot parse 'x'"),
        # a length error on an earlier record than a parse error
        ("A,B\n1,2\n4\n3,x\n5,6\n", "line 3: expected 2 cells, got 1"),
        ("A,B\n1,2\n3,4,5\n", "line 3: expected 2 cells, got 3"),
        ('A,B\n1,"2,5"\n', "line 2: cannot parse '2,5'"),
        ("A,B\n1,\n", "line 2: cannot parse ''"),
        # a later parse error wins over an earlier non-finite cell
        ("A,B\n1,inf\n2,3\n4,0x1p3\n", "line 4: cannot parse '0x1p3'"),
        ("A,B\n1,2\n-inf,3\n4,nan\n", "line 3, column A: non-finite"),
        ("A,B\n1,NA\n2,NA\n", "fully latent column(s) with no observed values: B"),
        ("A,B\n\n\n", "CSV contains no data rows"),
        # a whitespace-only record is not blank
        ("A,B\n1,2\n \n3,4\n", "line 3: expected 2 cells, got 1"),
        ("A\n1\n\t\n", "line 3: cannot parse ''"),
        ("", "empty CSV"),
        ("A,A\n1,2\n", "header must contain unique"),
    ])
    def test_files(self, tmp_path, newline, text, message):
        path = tmp_path / "d.csv"
        path.write_bytes(text.replace("\n", newline).encode())
        got = assert_reads_alike(path)
        if message is None:
            assert got[0] == "data"
        else:
            assert got[0] == "error" and got[1].startswith(message)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a BOM before the header; it is
        # not part of the first name.  A BOM anywhere else is a cell's text.
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfX1,X2\r\n1,NA\r\n2.5,3\r\n")
        d = read_csv(str(path))
        assert d.names == ("X1", "X2")
        assert np.array_equal(d.xstar, [[1.0, np.nan], [2.5, 3.0]], equal_nan=True)
        assert assert_reads_alike(path)[1] == ("X1", "X2")
        path.write_bytes(b"X1,X2\n1,\xef\xbb\xbf2\n")
        assert assert_reads_alike(path) == ("error", "line 2: cannot parse '\\ufeff2'")

    @pytest.mark.parametrize("tail", [
        b"4,5\n" * 3000 + b"4,\xff\n",            # past the first decoded chunk
        b"4," + b"1" * 200_000 + b"\n",              # over the csv field size limit
        b"4,0." + b"0" * 200_000 + b"1\n",          # a finite number, over it too
    ], ids=["not-utf8", "over-field-limit", "long-number-over-field-limit"])
    def test_parse_error_precedes_an_unreadable_record(self, tmp_path, tail):
        path = tmp_path / "d.csv"
        path.write_bytes(b"A,B\n1,2\n3,x\n" + tail)
        assert assert_reads_alike(path) == ("error", "line 3: cannot parse 'x'")
        path.write_bytes(b"A,B\n1,2\n" + tail)
        with pytest.raises(DataError, match="unreadable CSV: "):
            read_csv(str(path))
        with pytest.raises((UnicodeDecodeError, csv.Error)):
            cellwise_read_csv(str(path))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3),
           st.lists(st.lists(st.sampled_from([
               "1", "-2.5", " 3e-2 ", "1_000", "NA", " NA ", "na", '"7"',
               '"1,5"', '"8\n9"', "inf", "-inf", "nan", "Infinity", "x", "",
               "0x10", "5e-324", "1e400", '"1"2', '1"2"', '"1""2"', '"8\n"',
               ' "7"', '"NA"', "-NA", "\t4\t"]), min_size=0, max_size=4),
               min_size=0, max_size=8),
           st.sampled_from(["\n", "\r\n"]))
    def test_random_files(self, tmp_path_factory, K, rows, newline):
        header = ",".join(f"X{k + 1}" for k in range(K))
        text = newline.join([header] + [",".join(row) for row in rows]) + newline
        path = tmp_path_factory.mktemp("r") / "d.csv"
        path.write_bytes(text.encode())
        assert_reads_alike(path)
