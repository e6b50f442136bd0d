"""Partially observed datasets: the only thing the tests may consume.

A dataset holds, per variable, an observedness indicator column and a proxy
column; the proxy is NaN exactly where the indicator is zero.  On disk the
format is a plain CSV with a header of variable names and the literal token
``NA`` for missing cells; indicators are derived, never stored.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

import numpy as np

MISSING_TOKEN = "NA"
CSV_BLOCK_ROWS = 1 << 12  # records per block in to_csv


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedDataset:
    names: tuple
    r: np.ndarray      # (n, K) int, 1 = observed
    xstar: np.ndarray  # (n, K) float, NaN where r == 0

    def __post_init__(self):
        names = tuple(self.names)
        r = np.asarray(self.r)
        if not ((r == 0) | (r == 1)).all():
            raise DataError("indicators must be 0 or 1")
        r = r.astype(np.int8, copy=False)
        xs = np.asarray(self.xstar, dtype=float)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "xstar", xs)
        if r.shape != xs.shape or r.ndim != 2 or r.shape[1] != len(names):
            raise DataError("indicator and proxy arrays must be (n, K) with K names")
        if np.isinf(xs).any():
            raise DataError("proxy contains infinite values")
        if not np.array_equal(np.isnan(xs), r == 0):
            raise DataError("proxy must be missing exactly where the indicator is 0")

    @property
    def n(self):
        return self.r.shape[0]

    @property
    def K(self):
        return self.r.shape[1]

    def reorder(self, order):
        """Columns permuted to ``order`` (a permutation of the names).  The
        dataset is immutable, so an order it already has returns it as is."""
        order = tuple(order)
        defects = permutation_defects(order, self.names)
        if defects:
            raise DataError("order must be a permutation of the dataset "
                            f"variables: {defects}")
        if order == self.names:
            return self
        idx = [self.names.index(v) for v in order]
        return ObservedDataset(order, self.r[:, idx], self.xstar[:, idx])

    def complete_case_proportion(self):
        return float(np.mean(np.all(self.r == 1, axis=1)))

    def to_csv(self, path):
        """Write the dataset as CSV: a header of names, then one row per
        record with ``NA`` for missing cells and the shortest round-trip
        ``repr`` for the rest, whole numbers without a trailing ``.0``;
        rows end in CRLF."""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(self.names)
            for start in range(0, self.n, CSV_BLOCK_ROWS):
                stop = min(start + CSV_BLOCK_ROWS, self.n)
                columns = [_format_column(self.xstar[start:stop, k])
                           for k in range(self.K)]
                rows = zip(*columns) if columns else repeat((), stop - start)
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _format_column(x):
    """The cells of one proxy column block as strings: ``NA`` where the
    value is NaN (a missing cell), a whole number as an int, any other
    number as its repr.  Testing NaN first measured faster on gaussian
    columns than testing whole numbers first."""
    return [MISSING_TOKEN if v != v else repr(int(v)) if v.is_integer() else repr(v)
            for v in x.tolist()]


def permutation_defects(order, names):
    """Why ``order`` is not a permutation of ``names`` -- the entries it
    repeats, misses or does not know -- or '' when it is one."""
    counts = Counter(order)
    defects = [
        ("repeated", [v for v, c in counts.items() if c > 1]),
        ("missing", [v for v in names if v not in counts]),
        ("unknown", [v for v in counts if v not in names]),
    ]
    return "; ".join(f"{what} {', '.join(map(str, entries))}"
                     for what, entries in defects if entries)


def read_csv(path):
    """Parse a data CSV into an ObservedDataset.

    Columns with zero missingness are accepted (always-observed variables);
    a column that is entirely missing is rejected as fully latent.  Cells
    that parse to a non-finite number (``inf``, ``-inf``, ``nan``) are
    rejected: missingness is written only as the ``NA`` token.  The header
    is read by the ``csv`` module, the records by one ``np.loadtxt`` pass
    that parses each cell with Python's ``float``; a file that pass refuses
    is scanned by :func:`_record_fault` for the error to raise.  The file is
    read as UTF-8, a leading byte-order mark ignored.
    """
    limit = csv.field_size_limit()

    def cell(text):
        value = text.strip()
        if value == MISSING_TOKEN:
            return np.nan
        value = float(value)
        if len(text) > limit or not math.isfinite(value):
            raise ValueError("non-finite or over-long cell")
        return value

    with open(path, newline="", encoding="utf-8-sig") as fh:
        names = _read_header(fh)
        try:
            with warnings.catch_warnings():  # no rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                xs = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                ndmin=2, encoding=None, converters=cell)
        except ValueError as exc:
            raise _record_fault(path, names, exc) from None
    if not len(xs):
        raise DataError("CSV contains no data rows")
    if xs.shape[1] != len(names):
        raise _record_fault(path, names, "cell counts differ from the header's")
    observed = ~np.isnan(xs)
    dead = [name for name, seen in zip(names, observed.any(axis=0)) if not seen]
    if dead:
        raise DataError("fully latent column(s) with no observed values: "
                        + ", ".join(dead))
    return ObservedDataset(names, observed, xs)


def _read_header(fh):
    """The variable names in the first record of ``fh``."""
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise DataError("empty CSV") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable CSV: {exc}") from exc
    names = tuple(h.strip() for h in header)
    if len(set(names)) != len(names) or any(not n for n in names):
        raise DataError("header must contain unique, nonempty variable names")
    return names


def _record_fault(path, names, reason):
    """The DataError of a file ``read_csv``'s numpy pass refused, found by a
    ``csv`` scan of its records (blank ones skipped, the header line 1): the
    first record with a wrong cell count or a cell ``float`` cannot parse,
    else the first non-finite cell.  A record the ``csv`` module or the text
    decoder cannot read, a cell over ``csv.field_size_limit()`` among them,
    makes the file unreadable; so does a fault the scan does not see, as
    ``reason`` words it."""
    K = len(names)
    non_finite = None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            records = enumerate(csv.reader(fh), start=1)
            next(records)
            for lineno, row in records:
                if row and len(row) != K:
                    return DataError(f"line {lineno}: expected {K} cells, got {len(row)}")
                for name, cell in zip(names, map(str.strip, row)):
                    if cell == MISSING_TOKEN:
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        return DataError(f"line {lineno}: cannot parse {cell!r}")
                    if non_finite is None and not math.isfinite(value):
                        non_finite = DataError(
                            f"line {lineno}, column {name}: non-finite value "
                            f"{value} (missing cells are written {MISSING_TOKEN})")
    except (csv.Error, UnicodeDecodeError) as exc:
        return DataError(f"unreadable CSV: {exc}")
    return non_finite or DataError(f"unreadable CSV: {reason}")
