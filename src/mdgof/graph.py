"""Missing-data DAGs: representation, d-separation, surgery, and audits.

A graph holds three vertex layers: substantive variables (possibly missing),
one binary observedness indicator per variable, and one proxy per variable
carrying the observed value.  Proxies and their two deterministic parent
edges are created automatically; callers only list substantive names and the
non-deterministic edges.

Vertex naming: for a substantive variable "X1" the indicator is "R1" and the
proxy is "X1*".  For names not of the form X<suffix>, the indicator is
"R_<name>".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .data import permutation_defects

SEQ_MAR = "sequential-MAR"
SEQ_MNAR = "sequential-MNAR"
BLOCK_PARALLEL = "block-parallel"
PERMUTATION = "permutation"
NO_SELF_CENSORING = "no-self-censoring-compatible"
OTHER = "other"

DIRECT = "directly-testable"
VERMA = "testable-as-verma"
UNKNOWN = "untestable-by-criteria"


class GraphError(ValueError):
    pass


def indicator_name(var):
    if var.startswith("X") and len(var) > 1:
        return "R" + var[1:]
    return "R_" + var


def proxy_name(var):
    return var + "*"


@dataclass(frozen=True)
class MDag:
    """Immutable missing-data DAG.

    ``fixed`` is nonempty for a conditional graph obtained by intervening on
    indicators; plain graphs have it empty.
    """

    substantive: tuple
    directed_edges: tuple  # (source, target) pairs, deterministic ones included
    bidirected_edges: tuple = ()  # frozensets of substantive pairs
    fixed: frozenset = frozenset()

    @classmethod
    def create(cls, substantive, edges=(), bidirected=()):
        """Build a graph from substantive names and non-deterministic edges.

        The two deterministic parent edges of every proxy are added here and
        must not appear in ``edges``.
        """
        substantive = tuple(substantive)
        det = []
        for v in substantive:
            det.append((v, proxy_name(v)))
            det.append((indicator_name(v), proxy_name(v)))
        det_set = set(det)
        for e in edges:
            if tuple(e) in det_set:
                raise GraphError(f"deterministic edge {e} must not be listed explicitly")
        directed = tuple(det) + tuple((s, t) for s, t in edges)
        bi = tuple(frozenset(p) for p in bidirected)
        return cls(substantive, directed, bi)

    def __post_init__(self):
        object.__setattr__(self, "substantive", tuple(self.substantive))
        object.__setattr__(self, "directed_edges", tuple(tuple(e) for e in self.directed_edges))
        object.__setattr__(self, "bidirected_edges",
                           tuple(frozenset(p) for p in self.bidirected_edges))
        object.__setattr__(self, "fixed", frozenset(self.fixed))

    @property
    def indicators(self):
        return tuple(indicator_name(v) for v in self.substantive)

    @property
    def proxies(self):
        return tuple(proxy_name(v) for v in self.substantive)

    @property
    def vertices(self):
        return self.substantive + self.indicators + self.proxies

    def parents(self, v):
        return {s for s, t in self.directed_edges if t == v}

    def children(self, v):
        return {t for s, t in self.directed_edges if s == v}

    def kind(self, v):
        if v in self.substantive:
            return "X"
        if v in self.indicators:
            return "R"
        if v in self.proxies:
            return "proxy"
        raise GraphError(f"unknown vertex {v!r}")

    def base_variable(self, v):
        """Substantive variable underlying a vertex of any layer."""
        if v in self.substantive:
            return v
        for x in self.substantive:
            if v in (indicator_name(x), proxy_name(x)):
                return x
        raise GraphError(f"unknown vertex {v!r}")


@dataclass(frozen=True)
class IndependenceQuery:
    left: frozenset
    right: frozenset
    given: frozenset = frozenset()
    interventions: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        object.__setattr__(self, "given", frozenset(self.given))
        object.__setattr__(self, "interventions", frozenset(self.interventions))
        sets = [self.left, self.right, self.given]
        for a, b in itertools.combinations(sets, 2):
            if a & b:
                raise GraphError(f"query vertex sets overlap: {sorted(a & b)}")
        for s in sets:
            if s & self.interventions:
                raise GraphError(
                    f"intervened indicators cannot appear in the query sets: "
                    f"{sorted(s & self.interventions)}")


@dataclass(frozen=True)
class StructureReport:
    self_censoring_edges: tuple
    colluders: tuple
    criss_crosses: tuple
    colluding_paths: tuple

    @property
    def clean(self):
        return not (self.self_censoring_edges or self.colluders
                    or self.criss_crosses or self.colluding_paths)


@dataclass(frozen=True)
class Testability:
    verdict: str
    route: str = ""
    detail: str = ""


def validate_mdag(graph: MDag):
    """Return a list of invariant-violation descriptions (empty iff valid)."""
    violations = []
    verts = set(graph.vertices)
    x_set = set(graph.substantive)
    r_set = set(graph.indicators)
    p_set = set(graph.proxies)

    for s, t in graph.directed_edges:
        if s not in verts or t not in verts:
            violations.append(f"edge ({s}, {t}) references unknown vertex")
            continue
        if t in x_set and s not in x_set:
            violations.append(f"forbidden edge {s} -> {t}: nothing may point into a substantive variable except another substantive variable")
        if s in p_set and t in r_set and graph.base_variable(s) == graph.base_variable(t):
            violations.append(f"forbidden edge {s} -> {t}: a proxy may not point at its own indicator")

    for v in graph.substantive:
        px = proxy_name(v)
        expected = {v, indicator_name(v)}
        pa = graph.parents(px)
        extra = pa - expected
        missing = expected - pa
        for e in sorted(extra):
            violations.append(f"proxy {px} has extra parent {e}; its only parents are {v} and {indicator_name(v)}")
        for m in sorted(missing):
            violations.append(f"proxy {px} is missing its deterministic parent {m}")

    for pair in graph.bidirected_edges:
        if not all(v in x_set for v in pair):
            violations.append(f"bidirected edge {set(pair)} must connect two substantive variables")
        if len(pair) != 2:
            violations.append(f"bidirected edge {set(pair)} is not a pair")

    for v in graph.fixed:
        if v not in r_set:
            violations.append(f"fixed vertex {v} is not an indicator")
        elif graph.parents(v):
            violations.append(f"fixed indicator {v} still has parents {sorted(graph.parents(v))}")

    if _has_cycle(verts, graph.directed_edges):
        violations.append("directed edges contain a cycle")
    return violations


def _has_cycle(nodes, edges):
    children = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for s, t in edges:
        if s in children and t in indeg:
            children[s].append(t)
            indeg[t] += 1
    queue = [v for v in nodes if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return seen != len(nodes)


# ---------------------------------------------------------------------------
# d-separation
# ---------------------------------------------------------------------------

def dsep_digraph(parents, children, left, right, given):
    """d-separation on a plain digraph via active-trail reachability.

    ``parents``/``children`` map each node to an iterable of neighbors.
    """
    given = set(given)
    # Ancestors of the conditioning set, inclusive.
    anc = set(given)
    stack = list(given)
    while stack:
        v = stack.pop()
        for p in parents.get(v, ()):
            if p not in anc:
                anc.add(p)
                stack.append(p)

    # States: (node, "up") trail leaves through parents/children freely,
    # (node, "down") trail arrived along an edge into the node.
    visited = set()
    frontier = [(v, "up") for v in left]
    while frontier:
        v, d = frontier.pop()
        if (v, d) in visited:
            continue
        visited.add((v, d))
        if v not in given and v in right:
            return False
        if d == "up" and v not in given:
            for p in parents.get(v, ()):
                frontier.append((p, "up"))
            for c in children.get(v, ()):
                frontier.append((c, "down"))
        elif d == "down":
            if v not in given:
                for c in children.get(v, ()):
                    frontier.append((c, "down"))
            if v in anc:
                for p in parents.get(v, ()):
                    frontier.append((p, "up"))
    return True


def _surgered_structure(graph: MDag, interventions):
    """Digraph after do(R=1) on ``interventions``: edges into the fixed
    indicators deleted, the fixed indicators dropped (they are constants),
    and each proxy of a fixed indicator merged with its substantive variable.

    Bidirected edges are expanded into explicit latent common parents.
    Returns (parents, children, name_map) where name_map sends merged proxy
    names to the surviving substantive vertex.
    """
    interventions = set(interventions) | set(graph.fixed)
    r_set = set(graph.indicators)
    for v in interventions:
        if v not in r_set:
            raise GraphError(f"can only intervene on indicators, got {v!r}")

    name_map = {}
    removed = set(interventions)
    for r in interventions:
        x = graph.base_variable(r)
        name_map[proxy_name(x)] = x

    def resolve(v):
        return name_map.get(v, v)

    edges = set()
    for s, t in graph.directed_edges:
        if t in interventions:
            continue  # incoming edges of fixed indicators are cut
        s2, t2 = resolve(s), resolve(t)
        if s2 in removed:
            continue  # fixed indicators are constants, they transmit nothing
        if s2 != t2:
            edges.add((s2, t2))

    nodes = {resolve(v) for v in graph.vertices if v not in removed}
    for i, pair in enumerate(graph.bidirected_edges):
        a, b = sorted(pair)
        u = f"__latent_{i}"
        nodes.add(u)
        edges.add((u, a))
        edges.add((u, b))

    parents = {v: set() for v in nodes}
    children = {v: set() for v in nodes}
    for s, t in edges:
        parents[t].add(s)
        children[s].add(t)
    return parents, children, name_map


def d_separated(graph: MDag, query: IndependenceQuery):
    """True iff every path between the query sets is blocked, evaluated on
    the graph after applying the query's interventions."""
    verts = set(graph.vertices)
    for s in (query.left, query.right, query.given, query.interventions):
        for v in s:
            if v not in verts:
                raise GraphError(f"unknown vertex {v!r}")
    parents, children, name_map = _surgered_structure(graph, query.interventions)

    def mapped(vs):
        return {name_map.get(v, v) for v in vs}

    return dsep_digraph(parents, children, mapped(query.left),
                        mapped(query.right), mapped(query.given))


# ---------------------------------------------------------------------------
# Model classification
# ---------------------------------------------------------------------------

def _class_queries(graph: MDag, order):
    """Defining independence sets of each model class under ``order``."""
    defects = permutation_defects(order, graph.substantive)
    if defects:
        raise GraphError(f"order must be a permutation of the graph variables: {defects}")
    order = tuple(order)
    K = len(order)
    R = [indicator_name(v) for v in order]
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


def satisfied_model_classes(graph: MDag, order):
    """Set of model classes whose defining d-separations all hold."""
    out = set()
    for name, qs in _class_queries(graph, order).items():
        if all(d_separated(graph, q) for q in qs):
            out.add(name)
    return out

# Most specific first; a graph satisfying several classes is reported under
# the earliest entry.
_CLASS_PRIORITY = (SEQ_MAR, SEQ_MNAR, BLOCK_PARALLEL, PERMUTATION, NO_SELF_CENSORING)


def classify_model(graph: MDag, order):
    satisfied = satisfied_model_classes(graph, order)
    for name in _CLASS_PRIORITY:
        if name in satisfied:
            return name
    return OTHER


# ---------------------------------------------------------------------------
# Structural pathology detection
# ---------------------------------------------------------------------------

def detect_structures(graph: MDag) -> StructureReport:
    """Exhaustively list self-censoring edges, colluders, criss-crosses, and
    collider-only paths from each variable to its own indicator.

    Only counterfactual X -> R edges participate; proxy-sourced edges keep
    the propensities identified (the saturated permutation model relies on
    them) and are deliberately ignored here.
    """
    X = graph.substantive
    edge_set = set(graph.directed_edges)

    self_cens = tuple((x, indicator_name(x)) for x in X
                      if (x, indicator_name(x)) in edge_set)

    colluders = []
    for xi in X:
        for xj in X:
            if xi == xj:
                continue
            rj, ri = indicator_name(xj), indicator_name(xi)
            if (xi, rj) in edge_set and (ri, rj) in edge_set:
                colluders.append((xi, rj, ri))

    crosses = []
    for xi, xj in itertools.combinations(X, 2):
        ri, rj = indicator_name(xi), indicator_name(xj)
        if ((xi, rj) in edge_set and (xj, ri) in edge_set
                and ((ri, rj) in edge_set or (rj, ri) in edge_set)):
            crosses.append(frozenset({xi, xj}))

    paths = []
    for x in X:
        paths.extend(_colluding_paths(graph, x, indicator_name(x)))
    return StructureReport(self_cens, tuple(colluders), tuple(crosses), tuple(paths))


def _colluding_paths(graph: MDag, start, end):
    """Simple paths from ``start`` to ``end`` (over X and R vertices only)
    on which every intermediate vertex is a collider.  Bidirected edges carry
    arrowheads at both ends.  The direct edge is excluded (that is
    self-censoring, reported separately)."""
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


# ---------------------------------------------------------------------------
# Testability
# ---------------------------------------------------------------------------

def testability_verdict(graph: MDag, query: IndependenceQuery) -> Testability:
    """Decide how (or whether) a displayed d-separation can be tested.

    "untestable-by-criteria" means the sufficient criteria are exhausted,
    never that untestability is proven.
    """
    x_set = set(graph.substantive)
    relation = query.left | query.right | query.given
    involved = {v for v in relation if v in x_set}
    needed = {indicator_name(v) for v in involved} - query.given - query.interventions

    blocked = needed & (query.left | query.right)
    if blocked:
        # Cannot condition on or fix an indicator inside the relation.  The
        # odds-ratio route of the block-parallel test still applies when the
        # relation is between a pair of indicators.
        r_set = set(graph.indicators)
        if (len(query.left) == 1 and len(query.right) == 1
                and query.left <= r_set and query.right <= r_set
                and d_separated(graph, query)):
            return Testability(VERMA, route="odds-ratio",
                               detail="pairwise indicator independence; test via "
                                      "the conditional odds-ratio estimating equation")
        return Testability(UNKNOWN,
                           detail=f"indicators {sorted(blocked)} appear in the relation "
                                  "and can be neither conditioned on nor fixed")

    if not needed:
        return Testability(DIRECT,
                           detail="all required indicators already in the separating set")

    widened = IndependenceQuery(query.left, query.right, query.given | needed,
                                query.interventions)
    if d_separated(graph, widened):
        return Testability(DIRECT,
                           detail=f"indicators {sorted(needed)} join the separating "
                                  "set without spoiling the separation")

    fixed_query = IndependenceQuery(query.left, query.right, query.given,
                                    query.interventions | needed)
    if d_separated(graph, fixed_query):
        report = detect_structures(graph)
        if report.clean:
            return Testability(VERMA,
                               detail=f"holds after do({sorted(needed)} = 1) and all "
                                      "propensities are identified")
        return Testability(UNKNOWN,
                           detail="required intervention distribution may not be "
                                  f"identified: {report}")
    return Testability(UNKNOWN, detail="criteria exhausted")


# ---------------------------------------------------------------------------
# Discrete parameter counting
# ---------------------------------------------------------------------------

def count_parameters(graph: MDag, cardinalities):
    """(full-law, saturated-observed-law) parameter counts for discrete state
    spaces.

    The full-law count walks the factorization over non-deterministic
    factors; proxy parents contribute only their deterministically reachable
    joint configurations (the extra "?" state is tied to the indicator).  The
    saturated count comes from the pattern-mixture factorization with the
    deterministic "?" cells excluded.
    """
    if graph.bidirected_edges:
        raise GraphError("parameter counting requires a DAG without bidirected edges")
    cards = dict(cardinalities)
    for v in graph.substantive:
        c = cards.get(v)
        if c is None or c < 2 or c != int(c):
            raise GraphError(f"need a finite cardinality >= 2 for {v}")

    def card_of(v):
        kind = graph.kind(v)
        if kind == "X":
            return cards[v]
        if kind == "R":
            return 2
        return cards[graph.base_variable(v)] + 1  # proxy: states plus "?"

    full = 0
    for v in graph.substantive + graph.indicators:
        pa = sorted(graph.parents(v))
        full += (card_of(v) - 1) * _valid_parent_configs(graph, pa, cards)

    return full, _saturated_observed_count(cards[v] for v in graph.substantive)


def _saturated_observed_count(cards):
    """Free parameters of the saturated observed law: one per valid (R, X*)
    cell, less one for normalization.  Summed over the 2^K indicator
    patterns, the cells number prod(1 + c_k)."""
    return math.prod(1 + c for c in cards) - 1


def _valid_parent_configs(graph: MDag, parent_list, cards):
    """Number of jointly reachable parent configurations, honoring the tie
    between each proxy and its indicator when both are parents: a product
    over the base variables x of c_x if X_x is a parent, times c_x + 1 if
    its proxy is (whose "?" state fixes R_x), or else 2 if R_x is."""
    parents = set(parent_list)
    count = 1
    for x in graph.substantive:
        if x in parents:
            count *= cards[x]
        if proxy_name(x) in parents:
            count *= cards[x] + 1
        elif indicator_name(x) in parents:
            count *= 2
    return count


def count_parameters_no_self_censoring(cardinalities):
    """(full-law, saturated-observed-law) counts for the no-self-censoring
    model via its odds-ratio parameterization.

    The model is a chain graph, not an m-DAG, so it gets its own counter.
    Interaction (odds-ratio) terms are counted as functions of the
    indicators alone, which is exact for two variables.
    """
    cards = list(cardinalities.values())
    K = len(cards)
    full = math.prod(cards) - 1
    for k in range(K):
        # p(R_k = 1 | R_{-k} = 1, X_{-k})
        full += math.prod(cards[:k] + cards[k + 1:])
    full += 2 ** K - K - 1  # odds-ratio interactions among the indicators
    return full, _saturated_observed_count(cards)


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------

def graph_from_dict(obj):
    """Parse the on-disk graph format; returns (MDag, order or None)."""
    try:
        variables = list(obj["variables"])
    except (KeyError, TypeError) as exc:
        raise GraphError("graph JSON must contain a 'variables' list") from exc
    edges = [tuple(e) for e in obj.get("edges", [])]
    bidirected = [tuple(p) for p in obj.get("bidirected", [])]
    order = obj.get("order")
    graph = MDag.create(variables, edges, bidirected)
    violations = validate_mdag(graph)
    if violations:
        raise GraphError("invalid graph: " + "; ".join(violations))
    defects = "" if order is None else permutation_defects(order, variables)
    if defects:
        raise GraphError(f"'order' must be a permutation of 'variables': {defects}")
    return graph, tuple(order) if order is not None else None


def load_graph_json(path):
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def graph_to_dict(graph: MDag, order=None):
    det = set()
    for v in graph.substantive:
        det.add((v, proxy_name(v)))
        det.add((indicator_name(v), proxy_name(v)))
    obj = {
        "variables": list(graph.substantive),
        "edges": [list(e) for e in graph.directed_edges if e not in det],
        "bidirected": [sorted(p) for p in graph.bidirected_edges],
    }
    if order is not None:
        obj["order"] = list(order)
    return obj
