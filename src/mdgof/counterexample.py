"""Exact verification that the criss-cross structure hides the target law.

Two concrete full laws over two binary variables, both factorizing according
to the criss-cross graph (X1 -> X2, X2 -> R1, X1 -> R2, R1 -> R2), are
marginalized to their observed laws in exact rational arithmetic.  The full
laws differ, the observed laws coincide entry by entry: the target law
cannot be recovered from observed data under this structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F

MISSING = "?"

# Conditional probability tables; each value is P(first argument = 0 | rest).
LAW_M1 = {
    "p_x1": F(7, 15),
    "p_x2_given_x1": {0: F(6, 7), 1: F(3, 4)},
    "p_r1_given_x2": {0: F(19, 20), 1: F(85, 100)},
    "p_r2_given_r1_x1": {(0, 0): F(268, 323), (0, 1): F(208, 323),
                         (1, 0): F(1, 2), (1, 1): F(1, 2)},
}
LAW_M2 = {
    "p_x1": F(5, 11),
    "p_x2_given_x1": {0: F(4, 5), 1: F(2, 3)},
    "p_r1_given_x2": {0: F(189, 200), 1: F(89, 100)},
    "p_r2_given_r1_x1": {(0, 0): F(7636, 16821), (0, 1): F(16216, 16821),
                         (1, 0): F(1, 2), (1, 1): F(1, 2)},
}


def _bern(p_zero, value):
    return p_zero if value == 0 else 1 - p_zero


def full_law(tables):
    """Joint p(R1, R2, X1, X2) keyed by (r1, r2, x1, x2), exact."""
    law = {}
    for r1 in (0, 1):
        for r2 in (0, 1):
            for x1 in (0, 1):
                for x2 in (0, 1):
                    p = (_bern(tables["p_x1"], x1)
                         * _bern(tables["p_x2_given_x1"][x1], x2)
                         * _bern(tables["p_r1_given_x2"][x2], r1)
                         * _bern(tables["p_r2_given_r1_x1"][(r1, x1)], r2))
                    law[(r1, r2, x1, x2)] = p
    return law


def observed_law(full):
    """Marginalize a full law to p(R1, R2, X1*, X2*), exact."""
    obs = {}
    for (r1, r2, x1, x2), p in full.items():
        key = (r1, r2, x1 if r1 else MISSING, x2 if r2 else MISSING)
        obs[key] = obs.get(key, F(0)) + p
    return obs


def _conditional_independences_hold(full):
    """Factorization cross-checks implied by the criss-cross graph:
    R1 independent of X1 given X2, and R2 independent of X2 given (R1, X1)."""

    def marg(keep):
        out = {}
        for key, p in full.items():
            sub = tuple(key[i] for i in keep)
            out[sub] = out.get(sub, F(0)) + p
        return out

    # R1 _||_ X1 | X2:  p(r1, x1, x2) * p(x2) == p(r1, x2) * p(x1, x2)
    p_r1x1x2 = marg((0, 2, 3))
    p_x2 = marg((3,))
    p_r1x2 = marg((0, 3))
    p_x1x2 = marg((2, 3))
    for r1 in (0, 1):
        for x1 in (0, 1):
            for x2 in (0, 1):
                if (p_r1x1x2[(r1, x1, x2)] * p_x2[(x2,)]
                        != p_r1x2[(r1, x2)] * p_x1x2[(x1, x2)]):
                    return False

    # R2 _||_ X2 | R1, X1
    p_all = marg((0, 1, 2, 3))
    p_r1x1 = marg((0, 2))
    p_r1r2x1 = marg((0, 1, 2))
    for key, p in p_all.items():
        r1, r2, x1, x2 = key
        if (p * p_r1x1[(r1, x1)]
                != p_r1r2x1[(r1, r2, x1)] * p_r1x1x2[(r1, x1, x2)]):
            return False
    return True


@dataclass(frozen=True)
class CounterexampleRecord:
    full_law_m1: dict
    full_law_m2: dict
    observed: dict              # the shared observed law
    observed_laws_identical: bool
    full_laws_differ: bool
    both_normalized: bool
    both_factorize: bool

    @property
    def verified(self):
        return (self.observed_laws_identical and self.full_laws_differ
                and self.both_normalized and self.both_factorize)


def verify_crisscross_counterexample() -> CounterexampleRecord:
    """Build both laws, marginalize, and check all four assertions exactly."""
    m1 = full_law(LAW_M1)
    m2 = full_law(LAW_M2)
    obs1 = observed_law(m1)
    obs2 = observed_law(m2)

    identical = set(obs1) == set(obs2) and all(obs1[k] == obs2[k] for k in obs1)
    differ = any(m1[k] != m2[k] for k in m1)
    normalized = (sum(m1.values()) == 1 and sum(m2.values()) == 1
                  and all(p >= 0 for p in m1.values())
                  and all(p >= 0 for p in m2.values()))
    factorize = _conditional_independences_hold(m1) and _conditional_independences_hold(m2)
    return CounterexampleRecord(m1, m2, obs1, identical, differ,
                                normalized, factorize)
