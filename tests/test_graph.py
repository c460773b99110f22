"""Graph core: construction, mutation, neighborhoods, exact clique counting."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kremoval.graph import (
    Graph,
    as_vertex_set,
    bits_of,
    check_count_guard,
    count_cliques_in_mask,
    count_k_cliques,
    enumerate_cliques_in_mask,
    enumerate_k_cliques,
    mask_of,
)

from oracles import NaiveGraph, from_kremoval


def k6_minus_k4() -> Graph:
    g = Graph.new_complete(6)
    g.remove_clique_edges((0, 1, 2, 3))
    return g


class TestConstruction:
    def test_complete_6(self):
        assert Graph.new_complete(6).edge_count == 15

    def test_single_vertex(self):
        assert Graph.new_complete(1).edge_count == 0

    def test_complete_100(self):
        assert Graph.new_complete(100).edge_count == 4950

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            Graph.new_complete(0)

    def test_invariants(self):
        g = Graph.new_complete(7)
        g.check()
        g.remove_edge(0, 3)
        g.check()


class TestRemoveCliqueEdges:
    def test_k6_remove_k4(self):
        g = Graph.new_complete(6)
        g.remove_clique_edges((0, 1, 2, 3))
        assert g.edge_count == 9  # 15 - C(4,2)
        g.check()

    def test_k5_remove_all(self):
        g = Graph.new_complete(5)
        g.remove_clique_edges((0, 1, 2, 3, 4))
        assert g.edge_count == 0

    def test_second_removal_rejected(self):
        g = Graph.new_complete(6)
        g.remove_clique_edges((0, 1, 2, 3))
        with pytest.raises(ValueError):
            g.remove_clique_edges((0, 1, 2, 3))

    def test_only_inside_edges_touched(self):
        g = Graph.new_complete(6)
        before = {(u, v) for u in range(6) for v in range(u + 1, 6) if g.has_edge(u, v)}
        g.remove_clique_edges((0, 1, 2, 3))
        after = {(u, v) for u in range(6) for v in range(u + 1, 6) if g.has_edge(u, v)}
        gone = before - after
        assert gone == {(u, v) for u in range(4) for v in range(u + 1, 4)}

    @pytest.mark.parametrize("u", [
        (0, 1, 1),        # duplicate vertex
        (1, 0, 0, 2),     # duplicate vertex, unsorted
        (-1, 0, 1),       # negative vertex
        (0, 1, 6),        # vertex >= n
        (2,),             # fewer than 2 vertices
        (),
        (0, 1, 2, 4),     # incomplete: 2-4 is missing
        (4, 0, 2),        # incomplete, unsorted
    ])
    def test_rejected_input_leaves_graph_unchanged(self, u):
        g = Graph.new_complete(6)
        g.remove_edge(2, 4)
        rows, edges = list(g.rows), g.edge_count
        with pytest.raises(ValueError):
            g.remove_clique_edges(u)
        assert g.rows == rows and g.edge_count == edges

    def test_unsorted_input_removes_the_same_edges(self):
        for u in ([3, 0, 2], (2, 3, 0), iter([0, 3, 2]), np.array([3, 2, 0])):
            g, want = Graph.new_complete(6), Graph.new_complete(6)
            g.remove_clique_edges(u)
            want.remove_clique_edges((0, 2, 3))
            assert g.rows == want.rows and g.edge_count == want.edge_count == 12
            g.check()

    def test_large_numpy_vertex_ids(self):
        # shifts by numpy integers would overflow at 64 bits
        g = Graph.new_complete(300)
        g.remove_clique_edges(np.array([299, 70, 200]))
        assert not g.has_edge(70, 299) and not g.has_edge(200, 299) and not g.has_edge(70, 200)
        assert g.edge_count == comb(300, 2) - 3
        g.check()


class TestCommonNeighborhood:
    def test_complete(self):
        g = Graph.new_complete(6)
        assert bits_of(g.common_neighborhood_mask((0, 1))) == [2, 3, 4, 5]

    def test_after_removal(self):
        assert bits_of(k6_minus_k4().common_neighborhood_mask((0, 1))) == [4, 5]

    def test_all_vertices_empty(self):
        g = Graph.new_complete(5)
        assert bits_of(g.common_neighborhood_mask(range(5))) == []

    def test_excludes_query_always(self):
        g = k6_minus_k4()
        for u in [(0, 1), (4, 5), (0, 4)]:
            assert not set(u) & set(bits_of(g.common_neighborhood_mask(u)))


class TestIsComplete:
    def test_complete_graph(self):
        assert Graph.new_complete(6).is_complete((1, 2, 3))

    def test_after_removal(self):
        assert not k6_minus_k4().is_complete((0, 1, 4))

    def test_singleton_vacuous(self):
        assert k6_minus_k4().is_complete((0,))


class TestCountR:
    def test_k6_pair(self):
        assert Graph.new_complete(6).count_r((0, 1), 4) == 6

    def test_k6_triple(self):
        assert Graph.new_complete(6).count_r((0, 1, 2), 4) == 3

    def test_after_removal_pair(self):
        # only the pair {4,5} survives inside the common neighborhood
        assert k6_minus_k4().count_r((0, 1), 4) == 1

    def test_indicator_at_size_k(self):
        g = k6_minus_k4()
        assert g.count_r((0, 1, 4, 5), 4) == 0
        assert g.count_r((2, 4, 5), 3) == 1

    def test_codegree_specialization(self):
        g = k6_minus_k4()
        for u in [(0, 1, 4), (1, 4, 5), (2, 3, 4)]:
            assert g.count_r(u, 4) == len(bits_of(g.common_neighborhood_mask(u)))

    def test_incomplete_query_set_still_counts(self):
        # extension counts never require the query set itself to be complete
        g = Graph.new_complete(6)
        g.remove_edge(0, 1)
        assert g.count_r((0, 1), 4) == 6

    def test_rejects_bad_sizes(self):
        g = Graph.new_complete(6)
        with pytest.raises(ValueError):
            g.count_r((0,), 4)
        with pytest.raises(ValueError):
            g.count_r((0, 1, 2, 3, 4), 4)


class TestEnumerate:
    def test_complete(self):
        cliques = enumerate_k_cliques(Graph.new_complete(6), 4)
        assert len(cliques) == 15
        assert cliques == sorted(cliques)
        assert len(set(cliques)) == 15

    def test_after_removal_none_left(self):
        assert enumerate_k_cliques(k6_minus_k4(), 4) == []

    def test_edgeless(self):
        assert enumerate_k_cliques(Graph.empty(5), 3) == []

    def test_count_matches_enumeration(self):
        g = k6_minus_k4()
        for k in (3, 4):
            assert count_k_cliques(g, k) == len(enumerate_k_cliques(g, k))

    def test_rejects_bad_k(self):
        g = Graph.new_complete(6)
        with pytest.raises(ValueError):
            enumerate_k_cliques(g, 2)
        with pytest.raises(ValueError):
            enumerate_k_cliques(g, 7)

    def test_removal_filters_enumeration(self):
        # survivors are exactly the previous cliques edge-disjoint from the removed one
        g = Graph.new_complete(7)
        before = enumerate_k_cliques(g, 3)
        u = (0, 1, 2)
        g.remove_clique_edges(u)
        after = enumerate_k_cliques(g, 3)
        expected = [c for c in before if len(set(c) & set(u)) <= 1]
        assert after == expected


class TestDumpLoad:
    def test_roundtrip(self):
        g = k6_minus_k4()
        text = g.dump_edge_list()
        assert text.splitlines() == sorted(text.splitlines())
        h = Graph.from_edge_list(6, text)
        assert h.rows == g.rows and h.edge_count == g.edge_count


class TestGuards:
    def test_count_guard(self):
        check_count_guard(300, 4)
        with pytest.raises(ValueError):
            check_count_guard(20000, 8)

    def test_vertex_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            as_vertex_set((1, 1, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 9), st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))), st.integers(3, 4))
def test_matches_naive_oracle(n, pairs, k):
    g = Graph.new_complete(n)
    ng = NaiveGraph.complete(n)
    for a, b in pairs:
        if a != b and a < n and b < n:
            g.remove_edge(a, b)
            ng.remove_edge(a, b)
    g.check()
    assert from_kremoval(g).edges == ng.edges
    assert enumerate_k_cliques(g, k) == ng.cliques(k)
    for u in [(0, 1), (1, 2), (0, 1, 2)]:
        if len(u) <= k - 1:
            assert g.count_r(u, k) == ng.count_r(u, k)
            assert bits_of(g.common_neighborhood_mask(u)) == ng.common_neighborhood(u)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.randoms(use_true_random=False))
def test_double_counting_property(n, rnd):
    # sum of extension counts over complete m-sets equals C(k,m) * Q_k
    g = Graph.new_complete(n)
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < 0.3:
                g.remove_edge(a, b)
    full = (1 << n) - 1
    from math import comb
    for k in (3, 4):
        if k > n:
            continue
        q = count_k_cliques(g, k)
        for m in range(2, k):
            total = sum(g.count_r(um, k) for um in enumerate_cliques_in_mask(g, full, m))
            assert total == comb(k, m) * q


def test_mask_helpers():
    assert mask_of((0, 2, 5)) == 0b100101
    g = Graph.new_complete(6)
    assert count_cliques_in_mask(g, mask_of(range(6)), 2) == 15
    assert count_cliques_in_mask(g, mask_of((0, 1, 2)), 0) == 1
