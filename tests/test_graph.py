"""Graph layer: validation, d-separation, classification, audits, counting."""

import itertools
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgof import graph as graph_module
from mdgof.graph import (GraphError, IndependenceQuery, MDag, _class_queries,
                         _valid_parent_configs, classify_model,
                         count_parameters, count_parameters_no_self_censoring,
                         d_separated, detect_structures, dsep_digraph,
                         graph_from_dict, graph_to_dict, indicator_name,
                         satisfied_model_classes, validate_mdag)
from mdgof.graph import testability_verdict as verdict_for

from oracles import (brute_force_dsep, enumerated_no_self_censoring_counts,
                     enumerated_parent_configs, random_digraph_instance,
                     random_mdag, random_mixed_graph, reference_colluding_paths,
                     scanned_validate_mdag, scanned_vertex, surgered_digraph)


def mar_graph():
    """K=2, X1 -> X2, and R2 driven by the observed proxy of X1."""
    return MDag.create(("X1", "X2"), edges=[("X1", "X2"), ("X1*", "R2")])


def permutation_graph():
    """K=2 saturated MNAR: R1 sees the future value, R2 the past proxy."""
    return MDag.create(("X1", "X2"),
                       edges=[("X1", "X2"), ("X2", "R1"), ("X1*", "R2")])


def block_parallel_graph():
    return MDag.create(("X1", "X2"), edges=[("X1", "R2"), ("X2", "R1")])


def fixing_graph(extra=()):
    """K=3, X1 -> R2 <- X3 and R2 -> R1, plus the edges ``extra``."""
    return MDag.create(("X1", "X2", "X3"),
                       edges=[("X1", "R2"), ("X3", "R2"), ("R2", "R1"), *extra])


def crisscross_graph():
    return MDag.create(("X1", "X2"),
                       edges=[("X1", "X2"), ("X2", "R1"), ("X1", "R2"),
                              ("R1", "R2")])


def with_bidirected(rng, g, p=0.5):
    """``g`` plus each X-X bidirected edge with probability ``p``."""
    xs = g.substantive
    return MDag(xs, g.directed_edges, [(a, b) for i, a in enumerate(xs)
                                       for b in xs[i + 1:] if rng.random() < p])


def renamed(g, names):
    """(``g`` with its variables renamed by ``names``, each indicator and
    proxy following its variable; the map of every vertex's new name)."""
    full = {}
    for x in g.substantive:
        y = names.get(x, x)
        full.update({x: y, indicator_name(x): indicator_name(y), f"{x}*": f"{y}*"})
    return MDag(tuple(full[x] for x in g.substantive),
                [(full[s], full[t]) for s, t in g.directed_edges],
                [{full[v] for v in pair} for pair in g.bidirected_edges]), full


def random_named_graph(rng):
    """A graph, valid or not, whose variables are drawn with repeats from
    names that collide across the layers (R1 is X1's indicator and R_A is
    A's; R_A* is both A*'s indicator and R_A's proxy), with random edges
    (some at a vertex no layer holds), deterministic edges dropped at
    random, and random bidirected pairs."""
    pool = ["X1", "X2", "R1", "X1*", "A", "R_A", "A*", "R_A*"]
    xs = tuple(str(v) for v in rng.choice(pool, size=int(rng.integers(1, 5))))
    names = sorted({*xs, *map(indicator_name, xs), *(f"{x}*" for x in xs), "Q"})
    edges = [(x, f"{x}*") for x in xs] + [(indicator_name(x), f"{x}*") for x in xs]
    edges = [e for e in edges if rng.random() < 0.9]
    edges += [(s, t) for s in names for t in names if rng.random() < 0.08]
    bidirected = [(s, t) for s in names for t in names
                  if s < t and rng.random() < 0.05]
    return MDag(xs, edges, bidirected)


class TestValidation:
    def test_valid_graphs_have_no_violations(self):
        for g in (mar_graph(), permutation_graph(), block_parallel_graph(),
                  crisscross_graph()):
            assert validate_mdag(g) == []

    def test_edge_into_substantive_rejected(self):
        g = MDag.create(("X1", "X2"), edges=[("R1", "X2")])
        assert any("forbidden edge" in v for v in validate_mdag(g))

    def test_proxy_cannot_drive_own_indicator(self):
        g = MDag.create(("X1",), edges=[("X1*", "R1")])
        assert any("own indicator" in v for v in validate_mdag(g))

    def test_explicit_deterministic_edge_rejected(self):
        with pytest.raises(GraphError):
            MDag.create(("X1",), edges=[("X1", "X1*")])

    def test_cycle_detected(self):
        g = MDag.create(("X1", "X2"), edges=[("R1", "R2"), ("R2", "R1")])
        assert any("cycle" in v for v in validate_mdag(g))

    def test_self_loop_is_a_cycle(self):
        g = MDag.create(("X1", "X2"), edges=[("R1", "R1")])
        assert validate_mdag(g) == ["directed edges contain a cycle"]

    def test_unknown_vertex_reported_not_raised(self):
        # The edge is left out of the cycle check and reported on its own.
        g = MDag.create(("X1", "X2"), edges=[("X1", "R9"), ("R9", "R1")])
        assert validate_mdag(g) == [
            "edge (X1, R9) references unknown vertex",
            "edge (R9, R1) references unknown vertex"]

    def test_bidirected_must_join_substantive(self):
        g = MDag.create(("X1", "X2"), bidirected=[("X1", "R2")])
        assert any("substantive" in v for v in validate_mdag(g))

    def test_deterministic_proxy_edges_present(self):
        g = mar_graph()
        assert g.parents("X1*") == {"X1", "R1"}
        assert g.parents("X2*") == {"X2", "R2"}


class TestStoredTables:
    """A graph's layers, vertex table, parent sets and post-surgery digraphs
    are computed once per graph object; every answer is the one the
    definitions, scanned afresh on every call, give."""

    @staticmethod
    def check_tables(g):
        xs = g.substantive
        assert g.indicators == tuple(map(indicator_name, xs))
        assert g.proxies == tuple(f"{x}*" for x in xs)
        assert g.vertices == xs + g.indicators + g.proxies
        assert g.indicator_of == {x: indicator_name(x) for x in xs}
        for v in {*g.vertices, *(t for _, t in g.directed_edges), "Q9"}:
            kind, base, parents = scanned_vertex(g, v)
            assert g.parents(v) == parents
            if kind is None:
                for method in (g.kind, g.base_variable):
                    with pytest.raises(GraphError, match=f"^unknown vertex {v!r}$"):
                        method(v)
            else:
                assert (g.kind(v), g.base_variable(v)) == (kind, base)
        assert validate_mdag(g) == scanned_validate_mdag(g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_tables_match_the_scanned_definitions(self, seed):
        # Valid m-DAGs, and graphs, mostly invalid, whose names repeat within
        # and across the layers.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        for g in (with_bidirected(rng, g, 0.3), random_named_graph(rng)):
            self.check_tables(g)

    def test_names_in_several_layers_resolve_as_they_always_have(self):
        # R_A* is A*'s indicator and R_A's proxy: an indicator, whose base is
        # the first variable it belongs to.  R_A is a variable and A's
        # indicator: a variable.
        g = MDag.create(("R_A", "A*"))
        assert (g.kind("R_A*"), g.base_variable("R_A*")) == ("R", "R_A")
        g = MDag.create(("A", "R_A", "A"))
        assert (g.kind("R_A"), g.base_variable("R_A")) == ("X", "R_A")
        assert validate_mdag(g)[0] == ("vertex names must be distinct across "
                                       "the three layers: repeated A, A*, R_A")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_one_graph_answers_interleaved_interventions(self, seed):
        # One graph object answers queries whose intervention sets, drawn
        # from a few, come in random order; each answer is brute force's on
        # the digraph built afresh for that query.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=3, max_card=2)
        g = with_bidirected(rng, g)
        pool = [frozenset()] + [frozenset(r for r in g.indicators if rng.random() < 0.5)
                                for _ in range(3)]
        for _ in range(20):
            fixed = pool[rng.integers(len(pool))]
            free = [v for v in g.vertices if v not in fixed]
            role = rng.integers(0, 4, size=len(free))
            sets = [{v for v, r in zip(free, role) if r == i} for i in range(3)]
            if not sets[0] or not sets[1]:
                continue
            parents, children, rename = surgered_digraph(g, fixed)
            left, right, given_set = ({rename.get(v, v) for v in vs} for vs in sets)
            if left & right or (left | right) & given_set:
                continue  # a proxy and its variable merged across two sets
            assert d_separated(g, IndependenceQuery(*sets, interventions=fixed)) == \
                brute_force_dsep(parents, children, left, right, given_set)

    def test_returned_tables_cannot_change_an_answer(self):
        g, twin = crisscross_graph(), crisscross_graph()
        for v in g.vertices:
            g.parents(v).add("X2")
        g.parents("R2").clear()
        assert g.parents("R2") == {"X1", "R1"}
        with pytest.raises(TypeError):
            g.indicator_of["X1"] = "R2"
        assert validate_mdag(g) == []
        assert detect_structures(g) == detect_structures(twin)
        assert count_parameters(g, {"X1": 2, "X2": 3}) == \
            count_parameters(twin, {"X1": 2, "X2": 3})
        q = IndependenceQuery({"X1"}, {"X2"}, {"R2"}, {"R1"})
        assert d_separated(g, q) == d_separated(twin, q)
        assert verdict_for(g, q) == verdict_for(twin, q)

    def test_equality_hash_and_pickle_ignore_the_tables(self):
        warm, cold = crisscross_graph(), crisscross_graph()
        state = pickle.dumps(warm)
        assert validate_mdag(warm) == []
        classify_model(warm, ("X1", "X2"))
        detect_structures(warm)
        verdict_for(warm, IndependenceQuery({"X1"}, {"X2"}))
        assert len(vars(warm)) > len(vars(cold))  # the tables are stored
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert pickle.dumps(warm) == state == pickle.dumps(cold)
        copy = pickle.loads(pickle.dumps(warm))
        assert vars(copy) == vars(cold)
        assert classify_model(copy, ("X1", "X2")) == classify_model(warm, ("X1", "X2"))


class TestDSeparation:
    def test_collider_opened_by_conditioning_on_descendant(self):
        # R1 -> X1* <- X1 -> X2 with R2 a descendant of X1*: conditioning on
        # R2 opens the collider, so R1 and X2 are connected.
        g = mar_graph()
        q = IndependenceQuery({"R1"}, {"X2"}, {"R2"})
        assert not d_separated(g, q)

    def test_marginal_separation(self):
        g = mar_graph()
        assert d_separated(g, IndependenceQuery({"R1"}, {"X2"}))

    def test_chain_blocked_by_middle(self):
        g = mar_graph()
        assert d_separated(g, IndependenceQuery({"R2"}, {"X2"}, {"X1*"}))

    def test_surgery_cuts_incoming_edges(self):
        # Fixing R1 removes X2 -> R1, separating R1's influence entirely.
        g = block_parallel_graph()
        q = IndependenceQuery({"X1"}, {"X2"}, interventions={"R1", "R2"})
        assert d_separated(g, q)

    def test_surgery_merges_proxy(self):
        # After do(R1 = 1) the proxy X1* is the variable X1 itself, so
        # separating from one separates from the other.
        g = mar_graph()
        q1 = IndependenceQuery({"X1*"}, {"R2"}, {"X1"}, interventions={"R1"})
        # X1* maps onto X1, which overlaps the conditioning set: the query
        # normalizes to separation.
        assert d_separated(g, q1)

    def test_surgery_cuts_a_latent_edge_into_a_fixed_indicator(self):
        # do(R1 = 1) deletes every edge into R1, the one from the latent
        # parent R1 shares with R2 included.
        g = MDag.create(("X1", "X2"), bidirected=[("R1", "R2")])
        assert d_separated(g, IndependenceQuery({"X1"}, {"X2"}, interventions={"R1"}))
        assert d_separated(g, IndependenceQuery({"X1"}, {"R2"}, interventions={"R1"}))
        assert not d_separated(g, IndependenceQuery({"R1"}, {"R2"}))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bidirected_edges_at_any_vertex_match_brute_force(self, seed):
        # Graphs validate_mdag rejects, with bidirected edges at indicators
        # and proxies too, are still answered as do() defines: brute force's
        # answer on the digraph built afresh for the query.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=3, max_card=2)
        pairs = [p for p in itertools.combinations(g.vertices, 2) if rng.random() < 0.15]
        g = MDag(g.substantive, g.directed_edges, pairs)
        for _ in range(10):
            fixed = {r for r in g.indicators if rng.random() < 0.5}
            free = [v for v in g.vertices if v not in fixed]
            role = rng.integers(0, 4, size=len(free))
            sets = [{v for v, r in zip(free, role) if r == i} for i in range(3)]
            parents, children, rename = surgered_digraph(g, fixed)
            left, right, given_set = ({rename.get(v, v) for v in vs} for vs in sets)
            if not left or not right or left & right or (left | right) & given_set:
                continue
            assert d_separated(g, IndependenceQuery(*sets, interventions=fixed)) == \
                brute_force_dsep(parents, children, left, right, given_set)

    def test_unknown_vertex_named_is_the_least(self):
        # Not the first in a frozenset's iteration order, which moves with
        # the string hash seed.
        g = mar_graph()
        for left in ({"Q7", "Q8", "Q9"}, {"Q9", "X1", "Q8"}):
            with pytest.raises(GraphError, match=f"^unknown vertex {min(left - {'X1'})!r}$"):
                d_separated(g, IndependenceQuery(left, {"X2"}))
        with pytest.raises(GraphError, match="^can only intervene on indicators, got 'X1'$"):
            d_separated(g, IndependenceQuery({"R1"}, {"R2"}, interventions={"X2", "X1*", "X1"}))

    def test_intervention_must_be_indicator(self):
        with pytest.raises(GraphError):
            d_separated(mar_graph(),
                        IndependenceQuery({"X1"}, {"X2"}, interventions={"X1*"}))

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            d_separated(mar_graph(), IndependenceQuery({"X9"}, {"X2"}))

    def test_unknown_vertex_rejected_by_testability(self):
        # The indicators X1 needs are given, so no d-separation is asked.
        with pytest.raises(GraphError, match="^unknown vertex 'Zed'$"):
            verdict_for(mar_graph(), IndependenceQuery({"X1"}, {"Zed"}, {"R1", "R2"}))
        with pytest.raises(GraphError, match="^can only intervene on indicators"):
            verdict_for(mar_graph(), IndependenceQuery({"R1"}, {"R2"}, {"X1*"}, {"X2"}))

    def test_latent_vertices_take_no_variable_name(self):
        # A variable named like a generated latent vertex is a variable.
        for name in ("__latent_0", "L"):
            g, _ = graph_from_dict({"variables": [name, "X2", "X3"],
                                    "bidirected": [["X2", "X3"]]})
            assert d_separated(g, IndependenceQuery({name}, {"X2"}))
            assert not d_separated(g, IndependenceQuery({"X3"}, {"X2"}))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_renaming_variables_to_latent_names_changes_no_answer(self, seed):
        # Up to two variables renamed __latent_0 and __latent_1, the names
        # the first two bidirected edges' latent vertices once had; every
        # pair of vertices asked given nothing and given a random set, each
        # with random indicators fixed.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        g = with_bidirected(rng, g)
        h, new = renamed(g, {x: f"__latent_{i}" for i, x in enumerate(g.substantive[:2])})
        assert not validate_mdag(h)
        order = tuple(rng.permutation(g.substantive))
        assert classify_model(g, order) == classify_model(h, [new[x] for x in order])
        for a, b in itertools.combinations(g.vertices, 2):
            rest = [v for v in g.vertices if v not in (a, b)]
            for given_set in (set(), {v for v in rest if rng.random() < 0.3}):
                fixed = {v for v in rest if v in g.indicators and v not in given_set
                         and rng.random() < 0.3}
                q = IndependenceQuery({a}, {b}, given_set, fixed)
                q2 = IndependenceQuery(*({new[v] for v in vs} for vs in (
                    q.left, q.right, q.given, q.interventions)))
                assert d_separated(g, q) == d_separated(h, q2)
                t, t2 = verdict_for(g, q), verdict_for(h, q2)
                assert (t.verdict, t.route) == (t2.verdict, t2.route)

    def test_overlapping_sets_rejected(self):
        with pytest.raises(GraphError):
            IndependenceQuery({"X1"}, {"X1"}, set())

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bidirected_edge_is_a_latent_common_parent(self, seed):
        # Every query, interventions included, has the answer it has once
        # each X-X bidirected edge becomes a fresh latent parent of both ends.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        xs = g.substantive
        pairs = [(a, b) for i, a in enumerate(xs) for b in xs[i + 1:]
                 if rng.random() < 0.5]
        with_bidirected = MDag(xs, g.directed_edges, pairs)
        latents = [f"L{i}" for i in range(len(pairs))]
        with_latents = MDag.create(
            xs + tuple(latents),
            graph_to_dict(g)["edges"] + [(u, v) for u, pair in zip(latents, pairs)
                                         for v in pair])
        assert not validate_mdag(with_bidirected) and not validate_mdag(with_latents)
        for _ in range(10):
            role = rng.integers(0, 4, size=len(g.vertices))
            sets = [{v for v, r in zip(g.vertices, role) if r == i} for i in range(3)]
            if not sets[0] or not sets[1]:
                continue
            fixed = {v for v in g.indicators
                     if role[g.vertices.index(v)] == 3 and rng.random() < 0.5}
            q = IndependenceQuery(*sets, interventions=fixed)
            assert d_separated(with_bidirected, q) == d_separated(with_latents, q)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_brute_force_on_random_digraphs(self, seed):
        rng = np.random.default_rng(seed)
        parents, children, left, right, given_set = random_digraph_instance(rng)
        fast = dsep_digraph(parents, children, left, right, given_set)
        slow = brute_force_dsep(parents, children, left, right, given_set)
        assert fast == slow


class TestClassification:
    def test_mar_graph_is_sequential_mar(self):
        assert classify_model(mar_graph(), ("X1", "X2")) == "sequential-MAR"

    def test_block_parallel_graph(self):
        g = block_parallel_graph()
        assert classify_model(g, ("X1", "X2")) == "block-parallel"

    def test_permutation_graph(self):
        g = permutation_graph()
        assert classify_model(g, ("X1", "X2")) == "permutation"

    def test_self_censoring_is_other(self):
        g = MDag.create(("X1", "X2"), edges=[("X1", "R1")])
        satisfied = satisfied_model_classes(g, ("X1", "X2"))
        assert "no-self-censoring-compatible" not in satisfied
        assert classify_model(g, ("X1", "X2")) == "other"

    def test_empty_mechanism_satisfies_everything(self):
        # No edges into any indicator: every class's restrictions hold, and
        # the priority rule reports the most specific one.
        g = MDag.create(("X1", "X2"), edges=[("X1", "X2")])
        satisfied = satisfied_model_classes(g, ("X1", "X2"))
        assert "sequential-MAR" in satisfied
        assert "block-parallel" in satisfied
        assert classify_model(g, ("X1", "X2")) == "sequential-MAR"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_classification_is_first_satisfied_class(self, seed):
        # The reported class is the first satisfied one in the defining
        # queries' order, on random m-DAGs and random orders.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        order = tuple(rng.permutation(g.substantive))
        satisfied = satisfied_model_classes(g, order)
        first = [c for c in _class_queries(g, order) if c in satisfied]
        assert classify_model(g, order) == (first[0] if first else "other")

    def test_order_must_cover_variables(self):
        with pytest.raises(GraphError, match="missing X2$"):
            classify_model(mar_graph(), ("X1",))
        with pytest.raises(GraphError, match="repeated X1$"):
            classify_model(mar_graph(), ("X1", "X1", "X2"))


class TestStructureDetection:
    def test_clean_graph(self):
        rep = detect_structures(permutation_graph())
        assert rep.clean

    def test_self_censoring(self):
        g = MDag.create(("X1", "X2"), edges=[("X1", "R1")])
        rep = detect_structures(g)
        assert rep.self_censoring_edges == (("X1", "R1"),)
        assert not rep.clean

    def test_colluder(self):
        g = MDag.create(("X1", "X2"), edges=[("X1", "R2"), ("R1", "R2")])
        rep = detect_structures(g)
        assert ("X1", "R2", "R1") in rep.colluders
        assert rep.criss_crosses == ()

    def test_crisscross(self):
        rep = detect_structures(crisscross_graph())
        assert frozenset({"X1", "X2"}) in rep.criss_crosses
        assert not rep.clean

    def test_proxy_sourced_edges_ignored(self):
        # X1* -> R2 keeps everything identified; must not look like a colluder.
        g = MDag.create(("X1", "X2"), edges=[("X1*", "R2"), ("R1", "R2")])
        rep = detect_structures(g)
        assert rep.clean

    def test_colluding_paths_match_the_reference_search(self):
        # Random mixed graphs, most of them invalid: directed edges among all
        # three layers, bidirected edges among X and R, some listed twice or
        # alongside a directed edge.  Each path is listed once.
        rng = np.random.default_rng(2020)
        with_paths = 0
        for _ in range(2000):
            g = random_mixed_graph(rng)
            got = detect_structures(g).colluding_paths
            assert len(set(got)) == len(got)
            assert set(got) == {path for x in g.substantive
                                for path in reference_colluding_paths(
                                    g, x, indicator_name(x))}
            with_paths += bool(got)
        assert with_paths > 1000

    def test_colluding_paths_come_sorted(self):
        # Every X_i -> R_j (i != j) and every pair of indicators bidirected.
        X = [f"X{i}" for i in range(1, 6)]
        R = [indicator_name(x) for x in X]
        g = MDag.create(X, [(x, r) for x in X for r in R if r != indicator_name(x)],
                        [(a, b) for i, a in enumerate(R) for b in R[i + 1:]])
        paths = detect_structures(g).colluding_paths
        assert paths and list(paths) == sorted(paths)
        assert ("X1", "R2", "R1") in paths

    def test_valid_graph_with_a_bidirected_clique_walks_nothing(self):
        # A chain X1 -> ... -> X10 with every pair of X's bidirected.  No
        # indicator has a bidirected edge, so no path ends at one.
        X = [f"X{i}" for i in range(1, 11)]
        g = MDag.create(X, list(zip(X, X[1:])),
                        [(a, b) for i, a in enumerate(X) for b in X[i + 1:]])
        assert validate_mdag(g) == []
        start = time.perf_counter()
        assert detect_structures(g).colluding_paths == ()
        assert time.perf_counter() - start < 5.0


class TestTestability:
    def test_direct_when_indicators_already_conditioned(self):
        q = IndependenceQuery({"R2"}, {"X1"}, {"X1*", "R1"})
        t = verdict_for(mar_graph(), q)
        assert t.verdict == "directly-testable"

    def test_direct_after_widening(self):
        q = IndependenceQuery({"R2"}, {"X1"}, {"X1*"})
        t = verdict_for(mar_graph(), q)
        assert t.verdict == "directly-testable"
        assert "R1" in t.detail

    def test_verma_via_odds_ratio(self):
        q = IndependenceQuery({"R1"}, {"R2"}, {"X2"})
        t = verdict_for(block_parallel_graph(), q)
        assert t.verdict == "testable-as-verma"
        assert t.route == "odds-ratio"

    def test_verma_after_fixing(self):
        # X1 and X3 are separated, but conditioning on R1 (required to see
        # X1) opens the collider R2 through R2 -> R1; fixing the indicators
        # instead keeps the separation, and all propensities are identified.
        t = verdict_for(fixing_graph(), IndependenceQuery({"X1"}, {"X3"}))
        assert t.verdict == "testable-as-verma"
        assert "do" in t.detail

    def test_fixing_searches_no_collider_path(self, monkeypatch):
        # On a valid graph no collider path reaches an indicator, so the
        # do() route decides from the three structures that can be there.
        def search(*args):
            raise AssertionError("colluding-path search")

        monkeypatch.setattr(graph_module, "_colluding_paths", search)
        t = verdict_for(fixing_graph(), IndependenceQuery({"X1"}, {"X3"}))
        assert t.verdict == "testable-as-verma"

    @pytest.mark.parametrize("extra, named", [
        ([("X2", "R2"), ("X1", "R3"), ("R1", "R3")],
         "self-censoring X2 -> R2; colluder X1 -> R3 <- R1"),
        ([("X2", "R3"), ("X3", "R2"), ("R2", "R3")],
         # A criss-cross's edge between its indicators makes a colluder too.
         "colluder X2 -> R3 <- R2; criss-cross X2 -> R3, X3 -> R2")])
    def test_fixing_names_the_unidentified_structures(self, extra, named):
        g = fixing_graph(extra)
        assert not validate_mdag(g)
        t = verdict_for(g, IndependenceQuery({"X1"}, {"X3"}))
        assert t.verdict == "untestable-by-criteria"
        assert t.detail == ("required intervention distribution may not be "
                            f"identified: {named}")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_fixing_is_testable_exactly_when_the_structure_report_is_clean(
            self, seed):
        # The do() route's verdict is the one the full structure report,
        # collider paths included, gives, on random valid m-DAGs with X-X
        # bidirected edges and random queries over X and X* given any
        # vertices; every other route is untouched by the structures.
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        xs = g.substantive
        g = MDag(xs, g.directed_edges,
                 [(a, b) for i, a in enumerate(xs) for b in xs[i + 1:]
                  if rng.random() < 0.5])
        assert not validate_mdag(g)
        clean = detect_structures(g).clean
        for _ in range(10):
            role = rng.integers(0, 4, size=len(g.vertices))
            left, right, given_set = (
                {v for v, r in zip(g.vertices, role)
                 if r == i and (i == 2 or v not in g.indicators)} for i in range(3))
            if not left or not right:
                continue
            fixed = {v for v in g.indicators if v not in given_set and rng.random() < 0.3}
            q = IndependenceQuery(left, right, given_set, fixed)
            needed = ({indicator_name(v) for v in left | right | given_set if v in xs}
                      - given_set - fixed)
            t = verdict_for(g, q)
            if (needed and not d_separated(g, IndependenceQuery(
                    left, right, given_set | needed, fixed))
                    and d_separated(g, IndependenceQuery(
                        left, right, given_set, fixed | needed))):
                assert (t.verdict, t.route) == (
                    ("testable-as-verma" if clean else "untestable-by-criteria"), "")

    def test_untestable_with_self_censoring(self):
        g = MDag.create(("X1", "X2"), edges=[("X1", "R1"), ("X2", "R1")])
        q = IndependenceQuery({"X1"}, {"X2"})
        t = verdict_for(g, q)
        assert t.verdict == "untestable-by-criteria"


class TestParameterCounting:
    def test_mar_graph_binary(self):
        assert count_parameters(mar_graph(), {"X1": 2, "X2": 2}) == (7, 8)

    def test_permutation_graph_binary(self):
        assert count_parameters(permutation_graph(), {"X1": 2, "X2": 2}) == (8, 8)

    def test_no_self_censoring_binary(self):
        assert count_parameters_no_self_censoring({"X1": 2, "X2": 2}) == (8, 8)

    @pytest.mark.parametrize("cards, counts", [
        ((2, 2, 2), (26, 26)), ((2, 2, 2, 2), (80, 80)), ((2, 3, 4), (59, 59)),
        ((3, 2), None), ((4, 2, 3), None), ((3, 2, 4, 2), None)])
    def test_no_self_censoring_is_saturated(self, cards, counts):
        # Every indicator set's log-linear term may depend on the X's outside
        # it, so the full law has exactly the observed law's parameters at
        # every K, as the enumeration counts them.
        got = count_parameters_no_self_censoring(
            {f"X{i + 1}": c for i, c in enumerate(cards)})
        assert got == enumerated_no_self_censoring_counts(cards)
        assert counts is None or got == counts

    def test_saturated_count_is_distribution_free(self):
        # The observed-law cell count only depends on cardinalities.
        a = count_parameters(mar_graph(), {"X1": 3, "X2": 2})[1]
        b = count_parameters(permutation_graph(), {"X1": 3, "X2": 2})[1]
        assert a == b == (1 + 3 + 2 + 6) - 1
        # Mixed cardinalities: prod(1 + c_k) - 1 = 3 * 4 * 5 - 1.
        cards = {"X1": 2, "X2": 3, "X3": 4}
        chain = MDag.create(("X1", "X2", "X3"),
                            edges=[("X1", "X2"), ("X2", "X3"), ("X1*", "R2")])
        assert count_parameters(chain, cards)[1] == 59
        assert count_parameters_no_self_censoring(cards)[1] == 59

    def test_parent_configurations_match_enumeration(self):
        # The product over base variables equals walking the product of the
        # parent domains, on random m-DAGs with K = 1-4 and cardinalities
        # 2-3, including parents that hold both an X and its proxy.
        rng = np.random.default_rng(0)
        cases = with_x_and_proxy = 0
        for _ in range(150):
            g, cards = random_mdag(rng, max_k=4, max_card=3)
            for v in g.substantive + g.indicators:
                parents = sorted(g.parents(v))
                assert _valid_parent_configs(g, parents, cards) == \
                    enumerated_parent_configs(g, parents, cards), (g, v)
                cases += 1
                with_x_and_proxy += any(x in parents and f"{x}*" in parents
                                        for x in g.substantive)
        assert cases > 700 and with_x_and_proxy > 50

    def test_bidirected_rejected(self):
        g = MDag.create(("X1", "X2"), bidirected=[("X1", "X2")])
        with pytest.raises(GraphError):
            count_parameters(g, {"X1": 2, "X2": 2})

    def test_cardinality_validation(self):
        with pytest.raises(GraphError):
            count_parameters(mar_graph(), {"X1": 2, "X2": 1})


class TestSerialization:
    def test_round_trip(self):
        g = permutation_graph()
        obj = graph_to_dict(g, order=("X1", "X2"))
        g2, order = graph_from_dict(obj)
        assert g2 == g
        assert order == ("X1", "X2")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_round_trip_is_exact_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g, _ = random_mdag(rng, max_k=4, max_card=2)
        xs = g.substantive
        bidirected = [(a, b) for i, a in enumerate(xs) for b in xs[i + 1:]
                      if rng.random() < 0.3]
        g = MDag(g.substantive, g.directed_edges, bidirected)
        order = tuple(rng.permutation(xs))
        obj = graph_to_dict(g, order)
        g2, order2 = graph_from_dict(obj)
        assert (g2, order2) == (g, order)
        assert graph_to_dict(g2, order2) == obj

    def test_deterministic_edges_not_serialized(self):
        obj = graph_to_dict(mar_graph())
        assert ["X1", "X1*"] not in obj["edges"]

    def test_missing_variables_key(self):
        with pytest.raises(GraphError):
            graph_from_dict({"edges": []})

    @pytest.mark.parametrize("obj, message", [
        ({"variables": ["X1", "X2"], "edges": [["X1"]]},
         "each 'edges' entry must be 2 names, got ['X1']"),
        ({"variables": ["X1", "X2"], "edges": "X1X2"},
         "'edges' must be a list of name pairs, got 'X1X2'"),
        ({"variables": ["X1", "X2"], "edges": [["X1", 2]]},
         "each 'edges' entry must be 2 names, got ['X1', 2]"),
        ({"variables": ["X1", "X2"], "bidirected": [["X1"]]},
         "each 'bidirected' entry must be 2 names, got ['X1']"),
        ({"variables": ["X1", "X2"], "bidirected": {"X1": "X2"}},
         "'bidirected' must be a list of name pairs, got {'X1': 'X2'}"),
        ({"variables": [1, 2]},
         "'variables' must be a list of non-empty names, got [1, 2]"),
        ({"variables": ["X1", ""]},
         "'variables' must be a list of non-empty names, got ['X1', '']"),
        ({"variables": "X1X2"},
         "'variables' must be a list of non-empty names, got 'X1X2'"),
        ({"variables": ["X1", "X2", "X1", "X2"]},
         "'variables' must be distinct: repeated X1, X2"),
        (["X1", "X2"], "graph JSON must contain a 'variables' list"),
        ({"variables": ["X1", "X2"], "order": 5},
         "'order' must be a list of non-empty names, got 5"),
        ({"variables": ["X1", "X2"], "order": "X1"},
         "'order' must be a list of non-empty names, got 'X1'")])
    def test_malformed_entry_named(self, obj, message):
        with pytest.raises(GraphError) as exc:
            graph_from_dict(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("variables, repeated", [
        (["X1", "R1"], "R1"), (["A", "R_A"], "R_A"), (["X1", "X1*"], "X1*")])
    def test_vertex_names_collide_across_layers(self, variables, repeated):
        # R1 is X1's indicator, R_A is A's and X1* is X1's proxy.
        with pytest.raises(GraphError) as exc:
            graph_from_dict({"variables": variables})
        assert str(exc.value).startswith(
            "invalid graph: vertex names must be distinct across the three "
            f"layers: repeated {repeated}")

    def test_bad_order_rejected(self):
        obj = graph_to_dict(mar_graph(), order=("X1", "X2"))
        obj["order"] = ["X1", "X9"]
        with pytest.raises(GraphError, match="missing X2; unknown X9$"):
            graph_from_dict(obj)
        obj["order"] = ["X1", "X1", "X2"]
        with pytest.raises(GraphError, match="repeated X1$"):
            graph_from_dict(obj)
