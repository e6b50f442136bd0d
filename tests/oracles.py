"""Independent reference implementations used to check the library.

Everything here is deliberately written by a different route than the code
under test: d-separation via exhaustive path enumeration, an m-DAG's vertex
layers, parent sets, validation and do() surgery by scanning its edge and
layer lists on every call, parent
configurations of an m-DAG vertex and the no-self-censoring model's
parameters by enumerating them, colluding paths by
a depth-first walk over every mixed edge, logistic fits via
nested grid search, chi-square tails via numerical quadrature, the robust
p-value's eigenvalue bound via explicit inverses, and the
odds-ratio bootstrap by gathering the resampled rows and refitting on them.
The Newton kernel is also kept in its earlier form (a masked logistic, a
``logaddexp`` loglik and a second linear predictor per iteration), as the
reference the fused kernel must reproduce bit for bit, and CSV read and
write in their cell-by-cell form, which the blocked writer and the
``np.loadtxt`` reader must match byte for byte and error for error, and
the model classes' defining queries as eager lists, which the lazy ones
that classification asks must match query for query.

Two helpers at the end are not independent: the weighted Bernoulli loglik
and a pair's odds-ratio point estimate, which only the tests call, built on
the library's own kernels so that exact comparisons with it stay exact.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaincc

from mdgof.data import (MISSING_TOKEN, DataError, ObservedDataset,
                        permutation_defects)
from mdgof.estimation import (FAILURE_REASONS, NO_VARIATION, NOT_CONVERGED,
                              PROPENSITY_CLIP, EstimationError,
                              OddsRatioEstimate, _PairEquation, _row_patterns)
from mdgof.graph import (BLOCK_PARALLEL, NO_SELF_CENSORING, PERMUTATION, SEQ_MAR,
                         SEQ_MNAR, GraphError, IndependenceQuery, MDag,
                         indicator_name, proxy_name, validate_mdag)
from mdgof.numerics import (MAX_ITER, SCORE_TOL, SEPARATION_BOUND,
                            DesignMatrix, PropensityFit, _weighted_loglik,
                            expit, fit_weighted_logistic)


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


def random_mixed_graph(rng, max_k=5):
    """A random mixed graph, valid or not, with 1 to ``max_k`` variables:
    directed edges among X, R and proxy vertices (the deterministic ones
    aside), and bidirected edges among X and R.  Some bidirected edges are
    listed twice, and some run alongside a directed edge from a variable."""
    K = int(rng.integers(1, max_k + 1))
    xs = [f"X{i + 1}" for i in range(K)]
    xr = xs + [indicator_name(x) for x in xs]
    deterministic = {(u, proxy_name(x)) for x in xs for u in (x, indicator_name(x))}
    vertices = xr + [proxy_name(x) for x in xs]
    p_directed, p_bidirected = rng.uniform(0.05, 0.4, size=2)
    edges = [(s, t) for s in vertices for t in vertices
             if s != t and (s, t) not in deterministic and rng.random() < p_directed]
    bidirected = [pair for pair in itertools.combinations(xr, 2)
                  if rng.random() < p_bidirected]
    bidirected += [pair[::-1] for pair in bidirected if rng.random() < 0.2]
    bidirected += [(s, t) for s, t in edges
                   if s in xs and t in xr and rng.random() < 0.2]
    return MDag.create(xs, edges, bidirected)


def reference_colluding_paths(graph: MDag, start, end):
    """Simple paths from ``start`` to ``end`` (over X and R vertices only)
    on which every intermediate vertex is a collider.  Bidirected edges carry
    arrowheads at both ends.  The direct edge is excluded (that is
    self-censoring, reported separately).

    A depth-first walk over every mixed edge that tracks the arrowheads at
    both ends of each edge; it makes no use of the fact that every edge
    after the first must be bidirected."""
    xr = set(graph.substantive) | set(graph.indicators)
    directed = {(s, t) for s, t in graph.directed_edges if s in xr and t in xr}
    bidirected = set(graph.bidirected_edges)

    # neighbor -> (head_at_v, head_at_neighbor) for each mixed edge at v
    adj = {v: [] for v in xr}
    for s, t in directed:
        adj[s].append((t, False, True))
        adj[t].append((s, True, False))
    for pair in bidirected:
        a, b = sorted(pair)
        adj[a].append((b, True, True))
        adj[b].append((a, True, True))

    found = []

    def walk(path, heads):
        v = path[-1]
        for nbr, head_here, head_there in adj[v]:
            if nbr in path:
                continue
            # Intermediate vertices must collect arrowheads on both sides.
            if len(path) > 1 and not (heads[-1] and head_here):
                continue
            if nbr == end:
                if head_there and len(path) >= 2:
                    found.append(tuple(path) + (end,))
                continue
            path.append(nbr)
            heads.append(head_there)
            walk(path, heads)
            path.pop()
            heads.pop()

    walk([start], [False])
    # Deduplicate in order (an edge pair could be walked twice via parallel
    # mixed edges).
    return list(dict.fromkeys(found))


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


def enumerated_no_self_censoring_counts(cards):
    """(full-law, observed-law) free parameters of the no-self-censoring
    model over variables of cardinalities ``cards``, by enumeration.  The
    full law: p(X), one per X cell less one, and for each nonempty
    indicator set S one log-linear term of p(R | X) per distinct X_{-S}
    among the X cells, since R_k _||_ X_k | R_{-k}, X_{-k} for k in S lets
    the term depend on X_{-S} alone.  The observed law: one per (R, X*)
    cell, each observed variable taking a value and each missing one "?",
    less one."""
    K = len(cards)
    cells = list(itertools.product(*(range(c) for c in cards)))
    full = len(cells) - 1
    for size in range(1, K + 1):
        for s in itertools.combinations(range(K), size):
            full += len({tuple(x[j] for j in range(K) if j not in s) for x in cells})
    observed = sum(1 for _ in itertools.product(*(list(range(c)) + ["?"]
                                                   for c in cards))) - 1
    return full, observed


# ---------------------------------------------------------------------------
# m-DAG vertex tables, validation and surgery by scanning on every call
# ---------------------------------------------------------------------------

def scanned_vertex(graph: MDag, v):
    """(kind, base variable, parents) of ``v``, found by scanning the layer
    and edge lists: a name in several layers is a substantive variable
    before an indicator before a proxy, and its base variable is the first
    variable whose indicator or proxy it is."""
    xs = list(graph.substantive)
    indicators = [indicator_name(x) for x in xs]
    proxies = [proxy_name(x) for x in xs]
    kind = ("X" if v in xs else "R" if v in indicators
            else "proxy" if v in proxies else None)
    base = v if v in xs else next(
        (x for x in xs if v in (indicator_name(x), proxy_name(x))), None)
    return kind, base, {s for s, t in graph.directed_edges if t == v}


def scanned_validate_mdag(graph: MDag):
    """The invariant violations of ``graph``, in the order and wording of
    :func:`mdgof.graph.validate_mdag`, from scanned tables."""
    xs = list(graph.substantive)
    indicators = [indicator_name(x) for x in xs]
    proxies = [proxy_name(x) for x in xs]
    names = xs + indicators + proxies
    violations = []
    repeated = sorted({v for v in names if names.count(v) > 1})
    if repeated:
        violations.append("vertex names must be distinct across the three layers: "
                          f"repeated {', '.join(repeated)}")
    known = [(s, t) for s, t in graph.directed_edges if s in names and t in names]
    for s, t in graph.directed_edges:
        if (s, t) not in known:
            violations.append(f"edge ({s}, {t}) references unknown vertex")
            continue
        if t in xs and s not in xs:
            violations.append(f"forbidden edge {s} -> {t}: nothing may point into a "
                              "substantive variable except another substantive variable")
        if (s in proxies and t in indicators
                and scanned_vertex(graph, s)[1] == scanned_vertex(graph, t)[1]):
            violations.append(f"forbidden edge {s} -> {t}: a proxy may not point at its own indicator")
    for x, r, px in zip(xs, indicators, proxies):
        pa = scanned_vertex(graph, px)[2]
        for e in sorted(pa - {x, r}):
            violations.append(f"proxy {px} has extra parent {e}; its only parents are {x} and {r}")
        for m in sorted({x, r} - pa):
            violations.append(f"proxy {px} is missing its deterministic parent {m}")
    for pair in graph.bidirected_edges:
        if not all(v in xs for v in pair):
            violations.append(f"bidirected edge {set(pair)} must connect two substantive variables")
        if len(pair) != 2:
            violations.append(f"bidirected edge {set(pair)} is not a pair")
    # A cycle exists iff repeatedly deleting vertices without a parent
    # leaves some vertex.
    left = set(itertools.chain.from_iterable(known))
    while any(not any(s in left for s, t in known if t == v) for v in left):
        left = {v for v in left if any(s in left for s, t in known if t == v)}
    if left:
        violations.append("directed edges contain a cycle")
    return violations


def surgered_digraph(graph: MDag, fixed):
    """(parents, children, rename) of the digraph after do(R = 1) on the
    indicators ``fixed``: the fixed indicators and every edge at them are
    gone, each of their proxies is renamed to its variable, and each
    bidirected edge is a latent parent of its ends, named by a string that
    is no vertex's name."""
    rename = {proxy_name(x): x for x in graph.substantive if indicator_name(x) in fixed}
    edges = {(rename.get(s, s), rename.get(t, t)) for s, t in graph.directed_edges
             if s not in fixed and t not in fixed}
    nodes = {rename.get(v, v) for v in graph.vertices if v not in fixed}
    for pair in graph.bidirected_edges:
        latent = "L" + "".join(sorted(nodes))
        nodes.add(latent)
        edges |= {(latent, rename.get(v, v)) for v in pair if v not in fixed}
    parents = {v: {s for s, t in edges if t == v and s != v} for v in nodes}
    children = {v: {t for s, t in edges if s == v and t != v} for v in nodes}
    return parents, children, rename


# ---------------------------------------------------------------------------
# model classes' defining queries, every one built up front
# ---------------------------------------------------------------------------

def reference_class_queries(graph: MDag, order):
    """Defining independence sets of each model class under ``order``, most
    specific class first."""
    defects = permutation_defects(order, graph.substantive)
    if defects:
        raise GraphError(f"order must be a permutation of the graph variables: {defects}")
    order = tuple(order)
    K = len(order)
    R = [graph.indicator_of[v] for v in order]
    P = [proxy_name(v) for v in order]
    X = list(order)

    queries = {SEQ_MAR: [], SEQ_MNAR: [], BLOCK_PARALLEL: [],
               PERMUTATION: [], NO_SELF_CENSORING: []}
    for k in range(K):
        pre_r = set(R[:k])
        pre_p = set(P[:k])
        pre_x = set(X[:k])
        post_x = set(X[k + 1:])
        queries[SEQ_MAR].append(
            IndependenceQuery({R[k]}, set(X), pre_r | pre_p))
        queries[SEQ_MNAR].append(
            IndependenceQuery({R[k]}, pre_x | {X[k]} | pre_p, pre_r | post_x))
        queries[BLOCK_PARALLEL].append(
            IndependenceQuery({R[k]}, (set(R) - {R[k]}) | {X[k]},
                              set(X) - {X[k]}))
        queries[PERMUTATION].append(
            IndependenceQuery({R[k]}, pre_x | {X[k]}, pre_r | pre_p | post_x))
        queries[NO_SELF_CENSORING].append(
            IndependenceQuery({R[k]}, {X[k]},
                              (set(R) - {R[k]}) | (set(X) - {X[k]})))
    return queries


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
        return PropensityFit(beta, False, 0, ll, masked_expit(x @ beta),
                             "degenerate outcome: one class has zero total weight")

    if tol is None:
        tol = SCORE_TOL * max(1.0, float(w.sum()))
    ll = logaddexp_loglik(beta, x, y, w)
    for it in range(1, MAX_ITER + 1):
        mu = masked_expit(x @ beta)
        resid = w * (y - mu)
        score = x.T @ resid
        if np.max(np.abs(score)) < tol:
            return PropensityFit(beta, True, it - 1, ll, mu)
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
            return PropensityFit(beta, False, it, ll, masked_expit(x @ beta),
                                 "complete separation suspected (coefficients diverging)")
    return PropensityFit(beta, False, MAX_ITER, ll, masked_expit(x @ beta),
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
# robust likelihood-ratio p-value by explicit inverses
# ---------------------------------------------------------------------------

def reference_robust_pvalue(two_rho, p0, x, y, w, coefficients, counts=None):
    """P(chi2_df > 2rho / lam*) of a fit with ``coefficients`` on design
    ``x``, whose first ``p0`` columns are the null's.  The information and
    both middle matrices are sums of per-row outer products; the Schur
    complement is the inverse of the tested block of the inverse
    information; lam_max of S V, with S = L L' by Cholesky and V the tested
    block of a sandwich, is the top eigenvalue of the symmetric L' V L.  The
    tail is scipy's gammaincc."""
    c = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=float)
    mu = 1.0 / (1.0 + np.exp(-(x @ coefficients)))
    outer = np.einsum("ni,nj->nij", x, x)
    inverse = np.linalg.inv(np.einsum("n,nij->ij", c * w * mu * (1.0 - mu), outer))
    chol = np.linalg.cholesky(np.linalg.inv(inverse[p0:, p0:]))
    lam = 0.0
    for middle in (c * w ** 2 * (y - mu) ** 2, c * w ** 2 * mu * (1.0 - mu)):
        sandwich = inverse @ np.einsum("n,nij->ij", middle, outer) @ inverse
        lam = max(lam, np.linalg.eigvalsh(chol.T @ sandwich[p0:, p0:] @ chol)[-1])
    return float(gammaincc((x.shape[1] - p0) / 2.0, two_rho / lam / 2.0))


# ---------------------------------------------------------------------------
# enumerated discrete laws
# ---------------------------------------------------------------------------

def binary_states(K):
    return list(itertools.product((0, 1), repeat=K))


def homogeneous_or_law(K, pair, theta, rng, levels=2):
    """Full law over (R, X), each X taking the values 0 .. ``levels`` - 1,
    with the conditional odds ratio of the chosen indicator pair equal to
    ``theta`` for every X and every value of the remaining indicators."""
    k, j = pair
    states = binary_states(K)
    support = list(itertools.product(range(levels), repeat=K))
    px = {x: float(p) for x, p in zip(support, rng.dirichlet(np.ones(len(support))))}
    intercepts = rng.uniform(-0.5, 0.5, size=K)
    slopes = rng.uniform(-0.5, 0.5, size=(K, K))
    law = {}
    for x in support:
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
    written independently of the library's estimating-equation form.  The
    sums run over the x values present in ``law``, in their order there."""
    k, j = pair
    rest = [i for i in range(K) if i not in (k, j)]

    def joint(rk, rj, x):
        total = 0.0
        for (r, xs), p in law.items():
            if xs == x and r[k] == rk and r[j] == rj and all(r[i] == 1 for i in rest):
                total += p
        return total

    support = dict.fromkeys(xs for _, xs in law)
    num = 0.0
    for x in support:
        num += joint(0, 0, x)
    den = 0.0
    for x in support:
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
            raise EstimationError(NO_VARIATION)
        design = DesignMatrix(
            ("intercept",) + tuple(f"X[{names[i]}]" for i in rest),
            np.column_stack([np.ones(int(cond.sum())), xz[cond][:, rest]]))
        fit = fit_weighted_logistic(
            design, y, start=None if warm is None else warm[target],
            tol=None if warm is None else 1e-5 * max(1.0, float(y.size)))
        if not fit.converged:
            raise EstimationError(NOT_CONVERGED)
        coefs[target] = fit.coefficients
        cc_design = DesignMatrix(
            design.names,
            np.column_stack([np.ones(ratio.size), xz[complete][:, rest]]))
        p = np.clip(expit(cc_design.values @ fit.coefficients),
                    PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)
        ratio *= (1.0 - p) / p
    den = float(ratio.sum()) / n
    if den <= 0:
        raise EstimationError("zero denominator")
    return num / den, coefs


def row_gather_odds_ratio(data, pair, alpha=0.05, n_bootstrap=200, rng=None):
    """Percentile-bootstrap odds-ratio estimate that refits every resample
    on its gathered rows ``r[rows]``, ``xz[rows]``, and counts the failed
    resamples by the reason it raised.

    A resample draws its rows as the estimator's bootstrap does.  When the
    distinct (R, zero-imputed X*) rows, ranked as ``np.unique`` ranks them,
    are at most n / 2, it draws their counts from Multinomial(n, counts / n)
    and repeats a row of each that many times; otherwise it draws n indices
    into the rows in that rank order, so their file order does not count."""
    k, j = pair
    if rng is None:
        rng = np.random.default_rng(0)
    xz = np.nan_to_num(data.xstar, nan=0.0)
    _, ids, counts = np.unique(np.column_stack([data.r, xz]), axis=0,
                               return_inverse=True, return_counts=True)
    row_of = np.empty(counts.size, dtype=np.intp)
    row_of[ids] = np.arange(data.n)
    ranked = np.argsort(ids, kind="stable")
    theta, coefs = _row_gather_theta(data.r, xz, data.names, k, j)
    draws = []
    failed = dict.fromkeys(FAILURE_REASONS, 0)
    for _ in range(n_bootstrap):
        if counts.size <= data.n / 2:
            rows = np.repeat(row_of, rng.multinomial(data.n, counts / data.n))
        else:
            rows = ranked[rng.integers(0, data.n, size=data.n)]
        try:
            draw, _ = _row_gather_theta(data.r[rows], xz[rows], data.names,
                                        k, j, warm=coefs)
            draws.append(draw)
        except EstimationError as exc:
            failed[str(exc)] += 1
    if len(draws) < max(10, n_bootstrap // 2):
        raise EstimationError("bootstrap collapsed")
    lo, hi = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0])
    # No rows are compressed: every observation is a pattern of its own.
    others = [i for i in range(data.K) if i not in (k, j)]
    cell = (np.all(data.r[:, others] == 1, axis=1)
            & (data.r[:, k] == 0) & (data.r[:, j] == 0))
    return OddsRatioEstimate(theta, (float(lo), float(hi)), n_bootstrap,
                             data.n, int(cell.sum()), failed)


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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


# ---------------------------------------------------------------------------
# helpers on the library's own kernels, called by the tests alone
# ---------------------------------------------------------------------------

def weighted_bernoulli_loglik(beta, x, y, w):
    return float(_weighted_loglik(x @ beta, y, w)[0])


def _pairwise_theta(data: ObservedDataset, k, j):
    """Point estimate of the pairwise conditional odds ratio."""
    patterns, counts = _row_patterns(data)
    return _PairEquation(patterns, k, j).point_estimate(counts)[0]
