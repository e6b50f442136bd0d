"""Independent reference implementations used to check the library.

Everything here is deliberately written by a different route than the code
under test: d-separation via exhaustive path enumeration, parent
configurations of an m-DAG vertex by enumerating them, logistic fits via
nested grid search, chi-square tails via numerical quadrature, and the
odds-ratio bootstrap by gathering the resampled rows and refitting on them.
The Newton kernel is also kept in its earlier form (a masked logistic, a
``logaddexp`` loglik and a second linear predictor per iteration), as the
reference the fused kernel must reproduce bit for bit, and CSV read and
write in their cell-by-cell form, which the blocked versions must match
byte for byte and error for error.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy.integrate import quad

from mdgof.data import MISSING_TOKEN, DataError, ObservedDataset
from mdgof.estimation import (PROPENSITY_CLIP, EstimationError,
                              OddsRatioEstimate)
from mdgof.graph import MDag, indicator_name, proxy_name, validate_mdag
from mdgof.numerics import (MAX_ITER, SCORE_TOL, SEPARATION_BOUND,
                            DesignMatrix, PropensityFit, fit_weighted_logistic,
                            weighted_bernoulli_loglik)


# ---------------------------------------------------------------------------
# d-separation by brute-force path enumeration
# ---------------------------------------------------------------------------

def _descendants(children, v):
    out = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for c in children.get(u, ()):
            if c not in out:
                out.add(c)
                stack.append(c)
    return out


def brute_force_dsep(parents, children, left, right, given):
    """True iff no active path connects ``left`` and ``right`` given ``given``.

    Enumerates every simple undirected path and applies the textbook
    blocking rules vertex by vertex.
    """
    given = set(given)
    nodes = set(parents) | set(children)
    edges = {(s, t) for s in children for t in children[s]}
    neighbors = {v: set() for v in nodes}
    for s, t in edges:
        neighbors[s].add(t)
        neighbors[t].add(s)
    desc_cache = {v: _descendants(children, v) for v in nodes}

    def path_active(path):
        for i in range(1, len(path) - 1):
            prev, v, nxt = path[i - 1], path[i], path[i + 1]
            is_collider = (prev, v) in edges and (nxt, v) in edges
            if is_collider:
                if not (desc_cache[v] & given):
                    return False
            elif v in given:
                return False
        return True

    for a in left:
        stack = [[a]]
        while stack:
            path = stack.pop()
            v = path[-1]
            if v in right and len(path) > 1:
                if path_active(path):
                    return False
                continue
            for nbr in neighbors.get(v, ()):
                if nbr not in path:
                    stack.append(path + [nbr])
    return True


def random_digraph_instance(rng, max_nodes=6):
    """A random DAG plus a random disjoint (left, right, given) query."""
    m = int(rng.integers(3, max_nodes + 1))
    names = [f"v{i}" for i in range(m)]
    order = list(rng.permutation(m))
    parents = {v: set() for v in names}
    children = {v: set() for v in names}
    p_edge = float(rng.uniform(0.2, 0.6))
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < p_edge:
                s, t = names[order[i]], names[order[j]]
                children[s].add(t)
                parents[t].add(s)
    pool = list(rng.permutation(names))
    left = {pool[0]}
    right = {pool[1]}
    n_given = int(rng.integers(0, m - 1))
    given = set(pool[2:2 + n_given])
    return parents, children, left, right, given


def random_mdag(rng, max_k, max_card):
    """A random valid m-DAG without bidirected edges, with 1 to ``max_k``
    variables, and cardinalities from 2 to ``max_card``.

    Edges follow a random topological order: every X before every R, each
    proxy right after its R, and nothing but a deterministic edge into a
    proxy.  So X points only at X, and a proxy only at later indicators.
    """
    K = int(rng.integers(1, max_k + 1))
    xs = [f"X{i + 1}" for i in range(K)]
    proxies = {proxy_name(x) for x in xs}
    ranked = list(xs)
    for i in rng.permutation(K):
        ranked += [indicator_name(xs[i]), proxy_name(xs[i])]
    p_edge = float(rng.uniform(0.2, 0.7))
    edges = [(s, t) for i, s in enumerate(ranked) for t in ranked[i + 1:]
             if t not in proxies and rng.random() < p_edge]
    graph = MDag.create(xs, edges)
    assert not validate_mdag(graph)
    return graph, {x: int(rng.integers(2, max_card + 1)) for x in xs}


def enumerated_parent_configs(graph: MDag, parent_list, cards):
    """Jointly reachable configurations of ``parent_list``, counted by
    walking the product of their domains: a proxy's "?" state must agree
    with its indicator when both are parents."""
    domains = []
    for v in parent_list:
        kind = graph.kind(v)
        if kind == "X":
            domains.append(list(range(cards[v])))
        elif kind == "R":
            domains.append([0, 1])
        else:
            domains.append(list(range(cards[graph.base_variable(v)])) + ["?"])
    count = 0
    for combo in itertools.product(*domains):
        assign = dict(zip(parent_list, combo))
        count += all(
            (assign[v] != "?") == bool(assign[r])
            for v in parent_list if graph.kind(v) == "proxy"
            for r in [indicator_name(graph.base_variable(v))] if r in assign)
    return count


# ---------------------------------------------------------------------------
# weighted logistic fit by nested grid search
# ---------------------------------------------------------------------------

def grid_search_logistic(x, y, w, span=6.0, points=41, rounds=6):
    """Maximize the weighted Bernoulli log-likelihood over a shrinking grid.

    Only practical for two coefficients; resolves each to about
    span * (2 / (points - 1)) ** rounds.
    """
    assert x.shape[1] == 2
    center = np.zeros(2)
    half = span
    best = None
    for _ in range(rounds):
        g0 = np.linspace(center[0] - half, center[0] + half, points)
        g1 = np.linspace(center[1] - half, center[1] + half, points)
        best_val = -np.inf
        for b0 in g0:
            for b1 in g1:
                val = weighted_bernoulli_loglik(np.array([b0, b1]), x, y, w)
                if val > best_val:
                    best_val = val
                    best = np.array([b0, b1])
        center = best
        half *= 2.0 / (points - 1)
    return best


# ---------------------------------------------------------------------------
# weighted logistic fit by the unfused Newton kernel
# ---------------------------------------------------------------------------

def masked_expit(x):
    """Logistic function evaluated separately on the two signs of ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    if out.ndim == 0:
        return float(out)
    return out


def logaddexp_loglik(beta, x, y, w):
    eta = x @ beta
    return float(np.sum(w * (y * eta - np.logaddexp(0.0, eta))))


def reference_fit_weighted_logistic(design, outcome, weights=None, start=None,
                                    tol=None):
    """Newton with step halving, recomputing x @ beta for mu after every
    accepted step; the solver the fused kernel replaced."""
    x = design.values
    y = np.asarray(outcome, dtype=float)
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
    if len(y) != x.shape[0] or len(w) != x.shape[0]:
        raise ValueError("design, outcome, and weights lengths disagree")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("outcome must be binary")

    p = x.shape[1]
    beta = np.zeros(p) if start is None else np.asarray(start, dtype=float).copy()

    if w[y == 1].sum() == 0 or w[y == 0].sum() == 0:
        ll = logaddexp_loglik(beta, x, y, w)
        return PropensityFit(beta, False, 0, ll, design.names,
                             "degenerate outcome: one class has zero total weight")

    if tol is None:
        tol = SCORE_TOL * max(1.0, float(w.sum()))
    ll = logaddexp_loglik(beta, x, y, w)
    for it in range(1, MAX_ITER + 1):
        mu = masked_expit(x @ beta)
        resid = w * (y - mu)
        score = x.T @ resid
        if np.max(np.abs(score)) < tol:
            return PropensityFit(beta, True, it - 1, ll, design.names)
        wvar = w * mu * (1.0 - mu)
        hess = x.T @ (wvar[:, None] * x)
        try:
            step = np.linalg.solve(hess, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, score, rcond=None)[0]
        scale = 1.0
        for _ in range(30):
            cand = beta + scale * step
            ll_cand = logaddexp_loglik(cand, x, y, w)
            if ll_cand >= ll - 1e-12:
                beta, ll = cand, ll_cand
                break
            scale *= 0.5
        else:
            beta = beta + scale * step
            ll = logaddexp_loglik(beta, x, y, w)
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return PropensityFit(beta, False, it, ll, design.names,
                                 "complete separation suspected (coefficients diverging)")
    return PropensityFit(beta, False, MAX_ITER, ll, design.names,
                         "maximum iterations reached")


# ---------------------------------------------------------------------------
# chi-square tail by quadrature
# ---------------------------------------------------------------------------

def chisq_sf_quadrature(x, df):
    """P(chi2_df > x) by integrating the density, no incomplete gamma."""
    k = df / 2.0
    norm = 1.0 / (2.0 ** k * math.gamma(k))

    def density(t):
        return norm * t ** (k - 1.0) * math.exp(-t / 2.0)

    val, _ = quad(density, x, np.inf, limit=200)
    return val


# ---------------------------------------------------------------------------
# enumerated discrete laws
# ---------------------------------------------------------------------------

def binary_states(K):
    return list(itertools.product((0, 1), repeat=K))


def homogeneous_or_law(K, pair, theta, rng):
    """Full law over (R, X), binary, with the conditional odds ratio of the
    chosen indicator pair equal to ``theta`` for every X and every value of
    the remaining indicators."""
    k, j = pair
    states = binary_states(K)
    px = {x: float(p) for x, p in zip(states, rng.dirichlet(np.ones(2 ** K)))}
    intercepts = rng.uniform(-0.5, 0.5, size=K)
    slopes = rng.uniform(-0.5, 0.5, size=(K, K))
    law = {}
    for x in states:
        # Each propensity base depends on every variable except its own, so
        # the pair's conditional odds ratio is theta at any conditioning level.
        base = {}
        for i in range(K):
            eta = intercepts[i] + sum(slopes[i, l] * x[l]
                                      for l in range(K) if l != i)
            base[i] = 1.0 / (1.0 + math.exp(-eta))
        weights = {}
        for r in states:
            wgt = 1.0
            for i in range(K):
                wgt *= base[i] if r[i] == 1 else 1.0 - base[i]
            if r[k] == 0 and r[j] == 0:
                wgt *= theta
            weights[r] = wgt
        z = sum(weights.values())
        for r in states:
            law[(r, x)] = px[x] * weights[r] / z
    return law


def direct_or_functional(law, K, pair):
    """The pairwise odds-ratio functional evaluated by straight enumeration,
    written independently of the library's estimating-equation form."""
    k, j = pair
    rest = [i for i in range(K) if i not in (k, j)]

    def joint(rk, rj, x):
        total = 0.0
        for (r, xs), p in law.items():
            if xs == x and r[k] == rk and r[j] == rj and all(r[i] == 1 for i in rest):
                total += p
        return total

    num = 0.0
    for x in binary_states(K):
        num += joint(0, 0, x)
    den = 0.0
    for x in binary_states(K):
        p11 = joint(1, 1, x)
        if p11 > 0:
            den += joint(0, 1, x) * joint(1, 0, x) / p11
    return num / den


# ---------------------------------------------------------------------------
# odds-ratio bootstrap by row gathering
# ---------------------------------------------------------------------------

def _row_gather_theta(r, xz, names, k, j, warm=None):
    """Estimating-equation value of the pairwise odds ratio, one row per
    observation (no pattern compression)."""
    n, K = r.shape
    others = [i for i in range(K) if i not in (k, j)]
    num = float(np.mean(np.prod(r[:, others], axis=1)
                        * (1 - r[:, k]) * (1 - r[:, j])))
    complete = np.all(r == 1, axis=1)

    ratio = np.ones(int(complete.sum()))
    coefs = {}
    for target in (k, j):
        rest = [i for i in range(K) if i != target]
        cond = np.all(r[:, rest] == 1, axis=1)
        y = r[cond, target]
        if y.size == 0 or y.min() == y.max():
            raise EstimationError("no variation")
        design = DesignMatrix(
            ("intercept",) + tuple(f"X[{names[i]}]" for i in rest),
            np.column_stack([np.ones(int(cond.sum())), xz[cond][:, rest]]))
        fit = fit_weighted_logistic(
            design, y, start=None if warm is None else warm[target],
            tol=None if warm is None else 1e-5 * max(1.0, float(y.size)))
        if not fit.converged:
            raise EstimationError(fit.message)
        coefs[target] = fit.coefficients
        cc_design = DesignMatrix(
            design.names,
            np.column_stack([np.ones(ratio.size), xz[complete][:, rest]]))
        p = np.clip(fit.predict(cc_design), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
        ratio *= (1.0 - p) / p
    den = float(ratio.sum()) / n
    if den <= 0:
        raise EstimationError("zero denominator")
    return num / den, coefs


def row_gather_odds_ratio(data, pair, alpha=0.05, n_bootstrap=200, rng=None):
    """Percentile-bootstrap odds-ratio estimate that refits every resample
    on its gathered rows ``r[rows]``, ``xz[rows]``."""
    k, j = pair
    if rng is None:
        rng = np.random.default_rng(0)
    xz = np.nan_to_num(data.xstar, nan=0.0)
    theta, coefs = _row_gather_theta(data.r, xz, data.names, k, j)
    draws = []
    failed = 0
    for _ in range(n_bootstrap):
        rows = rng.integers(0, data.n, size=data.n)
        try:
            draw, _ = _row_gather_theta(data.r[rows], xz[rows], data.names,
                                        k, j, warm=coefs)
            draws.append(draw)
        except EstimationError:
            failed += 1
    if len(draws) < max(10, n_bootstrap // 2):
        raise EstimationError("bootstrap collapsed")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    return OddsRatioEstimate(theta, (k, j), (float(lo), float(hi)),
                             n_bootstrap, alpha, failed)


# ---------------------------------------------------------------------------
# CSV read and write, one cell at a time
# ---------------------------------------------------------------------------

def cellwise_to_csv(data, path):
    """``ObservedDataset.to_csv`` as a row-by-row ``csv.writer`` loop that
    formats each cell on its own."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.names)
        for i in range(data.n):
            row = []
            for k in range(data.K):
                if data.r[i, k]:
                    v = data.xstar[i, k]
                    row.append(repr(int(v)) if float(v).is_integer() else repr(float(v)))
                else:
                    row.append(MISSING_TOKEN)
            writer.writerow(row)


def cellwise_read_csv(path):
    """``read_csv`` as a loop over records and cells that stops at the
    first malformed one."""
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
