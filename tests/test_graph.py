"""Graph layer: validation, d-separation, classification, audits, counting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdgof.graph import (GraphError, IndependenceQuery, MDag, _class_queries,
                         _valid_parent_configs, classify_model,
                         count_parameters, count_parameters_no_self_censoring,
                         d_separated, detect_structures, dsep_digraph,
                         graph_from_dict, graph_to_dict,
                         satisfied_model_classes, validate_mdag)
from mdgof.graph import testability_verdict as verdict_for

from oracles import (brute_force_dsep, enumerated_parent_configs,
                     random_digraph_instance, random_mdag)


def mar_graph():
    """K=2, X1 -> X2, and R2 driven by the observed proxy of X1."""
    return MDag.create(("X1", "X2"), edges=[("X1", "X2"), ("X1*", "R2")])


def permutation_graph():
    """K=2 saturated MNAR: R1 sees the future value, R2 the past proxy."""
    return MDag.create(("X1", "X2"),
                       edges=[("X1", "X2"), ("X2", "R1"), ("X1*", "R2")])


def block_parallel_graph():
    return MDag.create(("X1", "X2"), edges=[("X1", "R2"), ("X2", "R1")])


def crisscross_graph():
    return MDag.create(("X1", "X2"),
                       edges=[("X1", "X2"), ("X2", "R1"), ("X1", "R2"),
                              ("R1", "R2")])


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

    def test_intervention_must_be_indicator(self):
        with pytest.raises(GraphError):
            d_separated(mar_graph(),
                        IndependenceQuery({"X1"}, {"X2"}, interventions={"X1*"}))

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            d_separated(mar_graph(), IndependenceQuery({"X9"}, {"X2"}))

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
        g = MDag.create(("X1", "X2", "X3"),
                        edges=[("X1", "R2"), ("X3", "R2"), ("R2", "R1")])
        q = IndependenceQuery({"X1"}, {"X3"})
        t = verdict_for(g, q)
        assert t.verdict == "testable-as-verma"
        assert "do" in t.detail

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

    def test_bad_order_rejected(self):
        obj = graph_to_dict(mar_graph(), order=("X1", "X2"))
        obj["order"] = ["X1", "X9"]
        with pytest.raises(GraphError, match="missing X2; unknown X9$"):
            graph_from_dict(obj)
        obj["order"] = ["X1", "X1", "X2"]
        with pytest.raises(GraphError, match="repeated X1$"):
            graph_from_dict(obj)
