"""Partially observed datasets: the only thing the tests may consume.

A dataset holds, per variable, an observedness indicator column and a proxy
column; the proxy is NaN exactly where the indicator is zero.  On disk the
format is a plain CSV with a header of variable names and the literal token
``NA`` for missing cells; indicators are derived, never stored.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

MISSING_TOKEN = "NA"
CSV_BLOCK_ROWS = 1 << 12  # records per block in read_csv and to_csv


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class ObservedDataset:
    names: tuple
    r: np.ndarray      # (n, K) int, 1 = observed
    xstar: np.ndarray  # (n, K) float, NaN where r == 0

    def __post_init__(self):
        names = tuple(self.names)
        r = np.asarray(self.r, dtype=np.int8)
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
        defects = permutation_defects(order, self.names)
        if defects:
            raise DataError("order must be a permutation of the dataset "
                            f"variables: {defects}")
        if tuple(order) == self.names:
            return self
        idx = [self.names.index(v) for v in order]
        return ObservedDataset(tuple(order), self.r[:, idx], self.xstar[:, idx])

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
                columns = [_format_column(self.xstar[start:stop, k],
                                          self.r[start:stop, k])
                           for k in range(self.K)]
                rows = zip(*columns) if columns else repeat((), stop - start)
                fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _format_column(x, r):
    """The cells of one column block as strings, without a per-cell loop in
    Python: whole numbers, other numbers and ``NA`` are formatted as three
    runs, and each row then picks its string from them by index."""
    observed = r.astype(bool)
    whole = observed & (np.floor(x) == x)
    frac = observed & ~whole
    whole_cells = list(map(repr, map(int, x[whole].tolist())))
    cells = whole_cells + list(map(repr, x[frac].tolist())) + [MISSING_TOKEN]
    pick = np.full(len(x), len(cells) - 1)
    pick[whole] = np.arange(len(whole_cells))
    pick[frac] = np.arange(len(whole_cells), len(cells) - 1)
    return list(map(cells.__getitem__, pick.tolist()))


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
    rejected: missingness is written only as the ``NA`` token.  Records are
    parsed in blocks of ``CSV_BLOCK_ROWS``; the first malformed record in
    the file is the one reported.  A file the ``csv`` module or the text
    decoder cannot read is a DataError too.
    """
    try:
        with open(path, newline="") as fh:
            names, blocks = _read_blocks(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataError(f"unreadable CSV: {exc}") from exc
    if not sum(len(linenos) for _, _, linenos in blocks):
        raise DataError("CSV contains no data rows")
    r, xs, linenos = map(np.concatenate, zip(*blocks))
    bad = np.argwhere((r == 1) & ~np.isfinite(xs))
    if bad.size:
        i, k = bad[0]
        raise DataError(f"line {linenos[i]}, column {names[k]}: non-finite "
                        f"value {float(xs[i, k])} (missing cells are written "
                        f"{MISSING_TOKEN})")
    dead = np.where(r.sum(axis=0) == 0)[0]
    if dead.size:
        raise DataError(
            "fully latent column(s) with no observed values: "
            + ", ".join(names[j] for j in dead))
    return ObservedDataset(names, r, xs)


def _read_blocks(reader):
    """The header's names and the parsed blocks of the records after it."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV")
    names = tuple(h.strip() for h in header)
    if len(set(names)) != len(names) or any(not n for n in names):
        raise DataError("header must contain unique, nonempty variable names")
    blocks = []
    lineno = 2  # record number of the block's first row, header = 1
    while True:
        block = []
        try:
            block.extend(islice(reader, CSV_BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            # ``extend`` keeps the records read before the unreadable one,
            # and a malformed record among them is reported first.
            _parse_block(block, names, lineno)
            raise
        if not block:
            return names, blocks
        blocks.append(_parse_block(block, names, lineno))
        lineno += len(block)


def _parse_block(block, names, first_lineno):
    """Indicators, proxies and record numbers of a block of CSV records;
    blank records are skipped.  Raises the DataError of the block's first
    malformed record: a wrong cell count or a cell ``float`` cannot parse."""
    K = len(names)
    lengths = np.fromiter(map(len, block), dtype=np.intp, count=len(block))
    wrong = np.flatnonzero((lengths != K) & (lengths != 0))
    stop = int(wrong[0]) if wrong.size else len(block)
    rows = list(filter(None, block[:stop]))
    cells = list(map(str.strip, chain.from_iterable(rows)))
    observed = np.fromiter(map(MISSING_TOKEN.__ne__, cells), dtype=bool,
                           count=len(cells))
    xs = np.full(len(cells), np.nan)
    try:
        xs[observed] = np.fromiter(map(float, filter(MISSING_TOKEN.__ne__, cells)),
                                   dtype=float, count=np.count_nonzero(observed))
    except ValueError:
        for offset, row in enumerate(block[:stop]):
            for cell in map(str.strip, row):
                if cell == MISSING_TOKEN:
                    continue
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"line {first_lineno + offset}: "
                                    f"cannot parse {cell!r}") from None
        raise
    if wrong.size:
        raise DataError(f"line {first_lineno + stop}: expected {K} cells, "
                        f"got {lengths[stop]}")
    return (observed.view(np.int8).reshape(len(rows), K),
            xs.reshape(len(rows), K),
            first_lineno + np.flatnonzero(lengths))
