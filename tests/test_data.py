"""Observed datasets: construction invariants and CSV parsing."""

import numpy as np
import pytest

from mdgof.data import DataError, ObservedDataset, read_csv


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_proxy_rejected(value):
    r = np.ones((3, 2), dtype=np.int8)
    xs = np.array([[0.0, 1.0], [2.0, value], [3.0, 4.0]])
    with pytest.raises(DataError, match="infinite"):
        ObservedDataset(("X1", "X2"), r, xs)


@pytest.mark.parametrize("token", ["inf", "-Infinity", "NaN", "+inf"])
def test_read_csv_names_line_and_column_of_non_finite_cell(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"A,B,C\n1,2,3\n4,NA,{token}\n")
    with pytest.raises(DataError, match="line 3, column C: non-finite"):
        read_csv(str(path))
