"""Missing-data DAGs: representation, d-separation, surgery, and audits.

A graph holds three vertex layers: substantive variables (possibly missing),
one binary observedness indicator per variable, and one proxy per variable
carrying the observed value.  Proxies and their two deterministic parent
edges are created automatically; callers only list substantive names and the
non-deterministic edges.

Vertex naming: for a substantive variable "X1" the indicator is "R1" and the
proxy is "X1*".  For names not of the form X<suffix>, the indicator is
"R_<name>".

The queries (d-separation, classification, structure detection,
testability) assume a graph that :func:`validate_mdag` accepts.
``graph_from_dict`` and ``mdgof graph`` validate; ``MDag.create`` does not,
and on a graph built without validation the answers carry no guarantee.
"""

from __future__ import annotations

import collections
import graphlib
import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType

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


def _deterministic_edges(substantive):
    """The two parent edges of every proxy, X -> X* and R -> X*."""
    return [(u, proxy_name(v)) for v in substantive for u in (v, indicator_name(v))]


@dataclass(frozen=True)
class MDag:
    """Immutable missing-data DAG."""

    substantive: tuple
    directed_edges: tuple  # (source, target) pairs, deterministic ones included
    bidirected_edges: tuple = ()  # frozensets of substantive pairs

    @classmethod
    def create(cls, substantive, edges=(), bidirected=()):
        """Build a graph from substantive names and non-deterministic edges.

        The two deterministic parent edges of every proxy are added here and
        must not appear in ``edges``.
        """
        substantive = tuple(substantive)
        det = _deterministic_edges(substantive)
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

    # The graph is immutable, so everything below is computed on first read
    # and kept; equality, hashing, repr and pickling see the fields alone.
    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def indicators(self):
        return tuple(indicator_name(v) for v in self.substantive)

    @cached_property
    def proxies(self):
        return tuple(proxy_name(v) for v in self.substantive)

    @cached_property
    def vertices(self):
        return self.substantive + self.indicators + self.proxies

    @cached_property
    def indicator_of(self):
        """Read-only map from each variable to its indicator."""
        return MappingProxyType(dict(zip(self.substantive, self.indicators)))

    @cached_property
    def _vertex_table(self):
        """vertex -> (kind, base variable).  A name in several layers is
        resolved as a substantive variable first, then as an indicator; its
        base variable is the first variable whose indicator or proxy it is."""
        base = {}
        for x in reversed(self.substantive):
            base[indicator_name(x)] = base[proxy_name(x)] = x
        table = {v: ("proxy", base[v]) for v in self.proxies}
        table.update((v, ("R", base[v])) for v in self.indicators)
        table.update((x, ("X", x)) for x in self.substantive)
        return table

    @cached_property
    def _parents_of(self):
        parents = {}
        for s, t in self.directed_edges:
            parents.setdefault(t, set()).add(s)
        return {t: tuple(ps) for t, ps in parents.items()}

    @cached_property
    def _surgeries(self):
        return {}  # frozenset of interventions -> _surgered_structure's result

    def parents(self, v):
        return set(self._parents_of.get(v, ()))

    def _vertex_entry(self, v):
        if v not in self._vertex_table:
            raise GraphError(f"unknown vertex {v!r}")
        return self._vertex_table[v]

    def kind(self, v):
        return self._vertex_entry(v)[0]

    def base_variable(self, v):
        """Substantive variable underlying a vertex of any layer."""
        return self._vertex_entry(v)[1]


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
    repeated = sorted(v for v, n in collections.Counter(graph.vertices).items() if n > 1)
    if repeated:
        violations.append("vertex names must be distinct across the three layers: "
                          f"repeated {', '.join(repeated)}")
    verts = graph._vertex_table
    x_set = set(graph.substantive)
    r_set = set(graph.indicators)
    p_set = set(graph.proxies)

    sorter = graphlib.TopologicalSorter()
    for s, t in graph.directed_edges:
        if s not in verts or t not in verts:
            violations.append(f"edge ({s}, {t}) references unknown vertex")
            continue
        sorter.add(t, s)
        if t in x_set and s not in x_set:
            violations.append(f"forbidden edge {s} -> {t}: nothing may point into a substantive variable except another substantive variable")
        if s in p_set and t in r_set and graph.base_variable(s) == graph.base_variable(t):
            violations.append(f"forbidden edge {s} -> {t}: a proxy may not point at its own indicator")

    for v, r, px in zip(graph.substantive, graph.indicators, graph.proxies):
        expected = {v, r}
        pa = set(graph._parents_of.get(px, ()))
        extra = pa - expected
        missing = expected - pa
        for e in sorted(extra):
            violations.append(f"proxy {px} has extra parent {e}; its only parents are {v} and {r}")
        for m in sorted(missing):
            violations.append(f"proxy {px} is missing its deterministic parent {m}")

    for pair in graph.bidirected_edges:
        if not all(v in x_set for v in pair):
            violations.append(f"bidirected edge {set(pair)} must connect two substantive variables")
        if len(pair) != 2:
            violations.append(f"bidirected edge {set(pair)} is not a pair")

    try:
        sorter.prepare()
    except graphlib.CycleError:
        violations.append("directed edges contain a cycle")
    return violations


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


def _surgered_structure(graph: MDag, interventions: frozenset):
    """Digraph after do(R=1) on the indicators ``interventions``: edges into
    the fixed indicators deleted, the fixed indicators dropped (they are
    constants), and each proxy of a fixed indicator merged with its
    substantive variable.

    Bidirected edges are expanded into explicit latent common parents, named
    by tuples so that no vertex name can meet them.  Returns (parents,
    children, name_map): tuples of the neighbours of each vertex that has
    any, and a map sending merged proxy names to the surviving substantive
    vertex.  Built once per graph and intervention set, and never changed.
    """
    if interventions in graph._surgeries:
        return graph._surgeries[interventions]
    name_map = {proxy_name(x): x for x in map(graph.base_variable, interventions)}

    def resolve(v):
        return name_map.get(v, v)

    edges = set()
    for s, t in graph.directed_edges:
        if t in interventions:
            continue  # incoming edges of fixed indicators are cut
        s2, t2 = resolve(s), resolve(t)
        if s2 in interventions:
            continue  # fixed indicators are constants, they transmit nothing
        if s2 != t2:
            edges.add((s2, t2))

    nodes = {resolve(v) for v in graph.vertices if v not in interventions}
    for i, pair in enumerate(graph.bidirected_edges):
        u = ("latent", i)
        nodes.add(u)
        # do() cuts every edge into a fixed indicator, a latent's included.
        edges.update((u, resolve(v)) for v in pair if v not in interventions)

    parents = {v: set() for v in nodes}
    children = {v: set() for v in nodes}
    for s, t in edges:
        parents[t].add(s)
        children[s].add(t)
    graph._surgeries[interventions] = result = (
        {v: tuple(ps) for v, ps in parents.items() if ps},
        {v: tuple(cs) for v, cs in children.items() if cs}, name_map)
    return result


def _check_query(graph: MDag, query: IndependenceQuery):
    """Raise GraphError for a vertex ``graph`` lacks or a non-indicator fixed,
    naming the least such vertex so that the message does not depend on set
    iteration order."""
    table = graph._vertex_table
    for s in (query.left, query.right, query.given, query.interventions):
        unknown = s.difference(table)
        if unknown:
            raise GraphError(f"unknown vertex {min(unknown)!r}")
    fixed = [v for v in query.interventions if table[v][0] != "R"]
    if fixed:
        raise GraphError(f"can only intervene on indicators, got {min(fixed)!r}")


def d_separated(graph: MDag, query: IndependenceQuery):
    """True iff every path between the query sets is blocked, evaluated on
    the graph after applying the query's interventions.  Assumes a valid
    graph (see the module docstring)."""
    _check_query(graph, query)
    parents, children, name_map = _surgered_structure(graph, query.interventions)

    def mapped(vs):
        return {name_map.get(v, v) for v in vs}

    return dsep_digraph(parents, children, mapped(query.left),
                        mapped(query.right), mapped(query.given))


# ---------------------------------------------------------------------------
# Model classification
# ---------------------------------------------------------------------------

def _class_queries(graph: MDag, order):
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


def satisfied_model_classes(graph: MDag, order):
    """Set of model classes whose defining d-separations all hold."""
    return {name for name, qs in _class_queries(graph, order).items()
            if all(d_separated(graph, q) for q in qs)}


def classify_model(graph: MDag, order):
    """The most specific model class whose defining d-separations all hold
    (the first in :func:`_class_queries` order), or ``OTHER``.  Assumes a
    valid graph (see the module docstring)."""
    for name, qs in _class_queries(graph, order).items():
        if all(d_separated(graph, q) for q in qs):
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
    them) and are deliberately ignored here.  Assumes a valid graph (see
    the module docstring).
    """
    return StructureReport(_self_censoring_edges(graph),
                           *identification_blockers(graph),
                           tuple(_colluding_paths(graph)))


def _self_censoring_edges(graph: MDag):
    """The edges X -> R_X of ``graph``, in the order of its variables."""
    return tuple((x, r) for x, r in zip(graph.substantive, graph.indicators)
                 if x in graph._parents_of.get(r, ()))


def identification_blockers(graph: MDag):
    """(colluders, criss-crosses) of ``graph``, the two structures of
    :func:`detect_structures` that leave a propensity unidentified.

    A colluder (Xi, Rj, Ri) is Xi -> Rj <- Ri; a criss-cross {Xi, Xj} is
    Xi -> Rj and Xj -> Ri with an edge between Ri and Rj.
    """
    X, R, parents = graph.substantive, graph.indicator_of, graph._parents_of

    colluders = []
    for xi in X:
        for xj in X:
            if xi == xj:
                continue
            rj, ri = R[xj], R[xi]
            if xi in parents.get(rj, ()) and ri in parents.get(rj, ()):
                colluders.append((xi, rj, ri))

    crosses = []
    for xi, xj in itertools.combinations(X, 2):
        ri, rj = R[xi], R[xj]
        pi, pj = parents.get(ri, ()), parents.get(rj, ())
        if xi in pj and xj in pi and (ri in pj or rj in pi):
            crosses.append(frozenset({xi, xj}))
    return tuple(colluders), tuple(crosses)


def _colluding_paths(graph: MDag):
    """Simple paths from each variable x to its own indicator R_x, over X
    and R vertices, on which every interior vertex is a collider, sorted.
    The direct edge between x and R_x is self-censoring, reported
    separately.

    A collider has arrowheads on both sides, so every edge after the first
    is bidirected, the last one into R_x included: a path is a first hop
    x -> v or x <-> v, then a walk from v to R_x along bidirected edges.  An
    indicator with no bidirected edge ends no path, and on a graph that
    :func:`validate_mdag` accepts no indicator has one, so nothing is
    walked there.
    """
    xr = set(graph.substantive) | set(graph.indicators)
    spouses = {v: [] for v in xr}
    for a, b in set(graph.bidirected_edges):
        spouses[a].append(b)
        spouses[b].append(a)
    found = []

    def walk(path, end):
        for w in spouses[path[-1]]:
            if w == end:
                found.append((*path, end))
            elif w not in path:
                path.append(w)
                walk(path, end)
                path.pop()

    for x, r in zip(graph.substantive, graph.indicators):
        if spouses[r]:
            hops = {t for s, t in graph.directed_edges if s == x}.union(spouses[x])
            for v in (hops & xr) - {x, r}:
                walk([x, v], r)
    return sorted(found)


# ---------------------------------------------------------------------------
# Testability
# ---------------------------------------------------------------------------

def testability_verdict(graph: MDag, query: IndependenceQuery) -> Testability:
    """Decide how (or whether) a displayed d-separation can be tested.

    "untestable-by-criteria" means the sufficient criteria are exhausted,
    never that untestability is proven.  Assumes a valid graph (see the
    module docstring).
    """
    _check_query(graph, query)
    relation = query.left | query.right | query.given
    R = graph.indicator_of
    needed = {R[v] for v in relation & R.keys()} - query.given - query.interventions

    blocked = needed & (query.left | query.right)
    if blocked:
        # Cannot condition on or fix an indicator inside the relation.  The
        # odds-ratio route of the block-parallel test still applies when the
        # relation is between a pair of indicators.
        if (len(query.left) == 1 and len(query.right) == 1
                and all(graph.kind(v) == "R" for v in query.left | query.right)
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
        # On a valid graph no collider path reaches an indicator.
        colluders, crosses = identification_blockers(graph)
        structures = (
            [f"self-censoring {x} -> {r}" for x, r in _self_censoring_edges(graph)]
            + [f"colluder {x} -> {rj} <- {ri}" for x, rj, ri in colluders]
            + [f"criss-cross {a} -> {graph.indicator_of[b]}, {b} -> {graph.indicator_of[a]}"
               for a, b in map(sorted, crosses)])
        if not structures:
            return Testability(VERMA,
                               detail=f"holds after do({sorted(needed)} = 1) and all "
                                      "propensities are identified")
        return Testability(UNKNOWN,
                           detail="required intervention distribution may not be "
                                  f"identified: {'; '.join(structures)}")
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

    full = sum((cards[x] - 1) * _valid_parent_configs(graph, graph.parents(x), cards)
               for x in graph.substantive)
    full += sum(_valid_parent_configs(graph, graph.parents(r), cards)
                for r in graph.indicators)  # binary: one free parameter each
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
    for x, r, px in zip(graph.substantive, graph.indicators, graph.proxies):
        if x in parents:
            count *= cards[x]
        if px in parents:
            count *= cards[x] + 1
        elif r in parents:
            count *= 2
    return count


def count_parameters_no_self_censoring(cardinalities):
    """(full-law, saturated-observed-law) counts for the no-self-censoring
    model, which are equal at every K: the model is saturated.

    The model is a chain graph, not an m-DAG, so it gets its own counter.
    Its restriction R_k _||_ X_k | R_{-k}, X_{-k} lets the log-linear term
    of each nonempty indicator set S in p(R | X) depend on X_{-S}, so
    p(R | X) has sum over S of prod_{j not in S} c_j free parameters and
    the full law, with the prod c_k - 1 of p(X), has prod (1 + c_k) - 1:
    the saturated observed-law count.  Sadinle & Reiter (2017, Biometrika)
    call the model itemwise conditionally independent nonresponse and show
    that it is nonparametrically saturated.
    """
    saturated = _saturated_observed_count(cardinalities.values())
    return saturated, saturated


# ---------------------------------------------------------------------------
# JSON graph format
# ---------------------------------------------------------------------------

def _names(value, what, count=None):
    """``value``, a list of non-empty strings (``count`` of them, if
    given), as a tuple; otherwise a GraphError naming ``what``."""
    if (not isinstance(value, (list, tuple))
            or not all(isinstance(v, str) and v for v in value)
            or count not in (None, len(value))):
        names = "a list of non-empty names" if count is None else f"{count} names"
        raise GraphError(f"{what} must be {names}, got {value!r}")
    return tuple(value)


def graph_from_dict(obj):
    """Parse the on-disk graph format; returns (MDag, order or None)."""
    if not isinstance(obj, dict) or "variables" not in obj:
        raise GraphError("graph JSON must contain a 'variables' list")
    variables = _names(obj["variables"], "'variables'")
    repeated = sorted({v for v in variables if variables.count(v) > 1})
    if repeated:
        raise GraphError(f"'variables' must be distinct: repeated {', '.join(repeated)}")
    pairs = {}
    for key in ("edges", "bidirected"):
        entries = obj.get(key, [])
        if not isinstance(entries, (list, tuple)):
            raise GraphError(f"'{key}' must be a list of name pairs, got {entries!r}")
        pairs[key] = [_names(e, f"each '{key}' entry", 2) for e in entries]
    order = obj.get("order")
    if order is not None:
        order = _names(order, "'order'")
    graph = MDag.create(variables, pairs["edges"], pairs["bidirected"])
    violations = validate_mdag(graph)
    if violations:
        raise GraphError("invalid graph: " + "; ".join(violations))
    defects = "" if order is None else permutation_defects(order, variables)
    if defects:
        raise GraphError(f"'order' must be a permutation of 'variables': {defects}")
    return graph, order


def load_graph_json(path):
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def graph_to_dict(graph: MDag, order=None):
    det = set(_deterministic_edges(graph.substantive))
    obj = {
        "variables": list(graph.substantive),
        "edges": [list(e) for e in graph.directed_edges if e not in det],
        "bidirected": [sorted(p) for p in graph.bidirected_edges],
    }
    if order is not None:
        obj["order"] = list(order)
    return obj
