"""Exact-arithmetic check of the identifiability counterexample."""

import time
from fractions import Fraction as F

from mdgof.counterexample import (LAW_M1, LAW_M2,
                                  _conditional_independences_hold, full_law,
                                  observed_law, verify_crisscross_counterexample)


def test_verified_end_to_end():
    record = verify_crisscross_counterexample()
    assert record.observed_laws_identical
    assert record.full_laws_differ
    assert record.both_normalized
    assert record.both_factorize
    assert record.verified


def test_factorization_check_fails_off_the_graph():
    # 1/100 of mass moved from one cell to its X2 = 1 neighbour leaves a
    # law that no longer factorizes according to the criss-cross graph.
    for tables in (LAW_M1, LAW_M2):
        law = full_law(tables)
        assert _conditional_independences_hold(law)
        law[(0, 0, 0, 0)] -= F(1, 100)
        law[(0, 0, 0, 1)] += F(1, 100)
        assert not _conditional_independences_hold(law)


def test_runs_fast():
    start = time.perf_counter()
    verify_crisscross_counterexample()
    assert time.perf_counter() - start < 1.0


def test_observed_cells_exact():
    record = verify_crisscross_counterexample()
    obs = record.observed
    # Nothing observed: both indicators are zero, both proxies are "?".
    assert obs[(0, 0, "?", "?")] == F(68, 100)
    # Everything observed at value one.
    assert obs[(1, 1, 1, 1)] == F(1, 100)
    # All cells nonnegative and normalized.
    assert sum(obs.values()) == 1
    assert all(p >= 0 for p in obs.values())


def test_marginals_differ_across_laws():
    m1 = full_law(LAW_M1)
    m2 = full_law(LAW_M2)
    p1_x1_zero = sum(p for (r1, r2, x1, x2), p in m1.items() if x1 == 0)
    p2_x1_zero = sum(p for (r1, r2, x1, x2), p in m2.items() if x1 == 0)
    assert p1_x1_zero == F(7, 15)
    assert p2_x1_zero == F(5, 11)
    assert p1_x1_zero != p2_x1_zero


def test_all_arithmetic_is_rational():
    m1 = full_law(LAW_M1)
    obs = observed_law(m1)
    assert all(isinstance(p, F) for p in m1.values())
    assert all(isinstance(p, F) for p in obs.values())


def test_deterministic():
    a = verify_crisscross_counterexample()
    b = verify_crisscross_counterexample()
    assert a.observed == b.observed
    assert a.full_law_m1 == b.full_law_m1
