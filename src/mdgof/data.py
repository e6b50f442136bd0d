"""Partially observed datasets: the only thing the tests may consume.

A dataset holds, per variable, an observedness indicator column and a proxy
column; the proxy is NaN exactly where the indicator is zero.  On disk the
format is a plain CSV with a header of variable names and the literal token
``NA`` for missing cells; indicators are derived, never stored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

MISSING_TOKEN = "NA"


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
        if set(order) != set(self.names):
            raise DataError("order must be a permutation of the dataset variables")
        if tuple(order) == self.names:
            return self
        idx = [self.names.index(v) for v in order]
        return ObservedDataset(tuple(order), self.r[:, idx], self.xstar[:, idx])

    def column(self, k):
        """Zero-imputed proxy column k (exact inside R*X* products)."""
        return np.nan_to_num(self.xstar[:, k], nan=0.0)

    def complete_case_proportion(self):
        return float(np.mean(np.all(self.r == 1, axis=1)))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.names)
            for i in range(self.n):
                row = []
                for k in range(self.K):
                    if self.r[i, k]:
                        v = self.xstar[i, k]
                        row.append(repr(int(v)) if float(v).is_integer() else repr(float(v)))
                    else:
                        row.append(MISSING_TOKEN)
                writer.writerow(row)


def read_csv(path):
    """Parse a data CSV into an ObservedDataset.

    Columns with zero missingness are accepted (always-observed variables);
    a column that is entirely missing is rejected as fully latent.  Cells
    that parse to a non-finite number (``inf``, ``-inf``, ``nan``) are
    rejected: missingness is written only as the ``NA`` token.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV")
        names = tuple(h.strip() for h in header)
        if len(set(names)) != len(names) or any(not n for n in names):
            raise DataError("header must contain unique, nonempty variable names")
        r_rows, x_rows, linenos = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataError(f"line {lineno}: expected {len(names)} cells, got {len(row)}")
            r_row, x_row = [], []
            for cell in row:
                cell = cell.strip()
                if cell == MISSING_TOKEN:
                    r_row.append(0)
                    x_row.append(np.nan)
                else:
                    try:
                        x_row.append(float(cell))
                    except ValueError:
                        raise DataError(f"line {lineno}: cannot parse {cell!r}")
                    r_row.append(1)
            r_rows.append(r_row)
            x_rows.append(x_row)
            linenos.append(lineno)
    if not r_rows:
        raise DataError("CSV contains no data rows")
    r = np.array(r_rows, dtype=np.int8)
    xs = np.array(x_rows, dtype=float)
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
