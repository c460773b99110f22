"""Clique index: build, uniform sampling, removal deltas, rebuild equality."""

import gc
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from kremoval.graph import Graph, enumerate_k_cliques
from kremoval.index import CliqueIndex, ProcessTerminated, build_peak_bytes


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def assert_guard_fits_build(g, k):
    """The guard's charge is at least the peak traced bytes of a build, and at most twice it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idx = CliqueIndex.build(g, k)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(idx) > 1000
    assert peak <= build_peak_bytes(g.n, k, len(idx)) <= 2 * peak


class TestBuild:
    def test_k6(self):
        g = Graph.new_complete(6)
        assert len(CliqueIndex.build(g, 4)) == 15

    def test_k7_triangles(self):
        g = Graph.new_complete(7)
        assert len(CliqueIndex.build(g, 3)) == 35

    def test_edgeless(self):
        assert len(CliqueIndex.build(Graph.empty(5), 3)) == 0

    def test_guard_propagates(self):
        with pytest.raises(ValueError):
            CliqueIndex.build(Graph.new_complete(3), 8)

    @pytest.mark.parametrize("k, n", [(3, 40), (3, 60), (4, 20), (4, 26), (4, 34), (5, 14), (5, 24)])
    def test_memory_within_estimate(self, k, n):
        # peak traced bytes of a build on K_n, against the engine's memory guard
        assert_guard_fits_build(Graph.new_complete(n), k)

    @pytest.mark.parametrize("k, n, p", [(3, 800, 0.05), (4, 300, 0.2), (5, 200, 0.35)])
    def test_memory_within_estimate_sparse(self, k, n, p):
        # G(n, p) states like those at the strategy switch, with vertex ids above 256
        r = rng(n)
        g = Graph.new_complete(n)
        for a in range(n):
            for b in range(a + 1, n):
                if r.random() >= p:
                    g.remove_edge(a, b)
        assert_guard_fits_build(g, k)


class TestSampling:
    def test_single_clique_always(self):
        g = Graph.new_complete(4)
        idx = CliqueIndex.build(g, 4)
        r = rng(3)
        assert all(idx.sample_uniform(r) == (0, 1, 2, 3) for _ in range(20))

    def test_empty_raises(self):
        idx = CliqueIndex.build(Graph.empty(5), 3)
        with pytest.raises(ProcessTerminated):
            idx.sample_uniform(rng())

    def test_uniformity_k6(self):
        # 150000 draws over 15 cliques: each expected 10000, binomial sd ~ 97
        g = Graph.new_complete(6)
        idx = CliqueIndex.build(g, 4)
        r = rng(20240817)
        counts = {}
        for _ in range(150_000):
            c = idx.sample_uniform(r)
            counts[c] = counts.get(c, 0) + 1
        assert len(counts) == 15
        assert all(abs(v - 10_000) <= 500 for v in counts.values()), counts

    def test_uniformity_after_compaction(self):
        # Remove cliques from K_14 (1001 K_4) until fewer than 40% are left:
        # fewer than half the slots were alive at some removal, so the index
        # has compacted at least once.  Then 200 draws per clique; threshold
        # p >= 1e-3 for the chi-square goodness of fit to uniform.
        g = Graph.new_complete(14)
        idx = CliqueIndex.build(g, 4)
        r = rng(20261020)
        while len(idx) >= 0.4 * 1001:
            idx.apply_removal(g, idx.sample_uniform(r))
        current = idx.cliques
        counts = dict.fromkeys(current, 0)
        for _ in range(200 * len(current)):
            counts[idx.sample_uniform(r)] += 1
        assert len(counts) == len(current) > 100
        assert chisquare(list(counts.values())).pvalue >= 1e-3


class TestApplyRemoval:
    def test_k6_delta_by_size(self):
        g = Graph.new_complete(6)
        idx = CliqueIndex.build(g, 4)
        delta = idx.apply_removal(g, (0, 1, 2, 3))
        assert delta.by_size == {2: 6, 3: 8, 4: 1}
        assert delta.total == 15
        assert len(idx) == 0

    def test_k5_whole_graph(self):
        g = Graph.new_complete(5)
        idx = CliqueIndex.build(g, 5)
        delta = idx.apply_removal(g, (0, 1, 2, 3, 4))
        assert delta.by_size == {5: 1}
        assert len(idx) == 0

    def test_conservation(self):
        g = Graph.new_complete(8)
        idx = CliqueIndex.build(g, 3)
        r = rng(5)
        while len(idx):
            before = len(idx)
            delta = idx.apply_removal(g, idx.sample_uniform(r))
            assert sum(delta.by_size.values()) == delta.total == before - len(idx)

    def test_rejects_foreign_clique(self):
        g = Graph.new_complete(6)
        idx = CliqueIndex.build(g, 4)
        idx.apply_removal(g, (0, 1, 2, 3))
        with pytest.raises(ValueError):
            idx.apply_removal(g, (0, 1, 2, 3))
        for u in [(2, 3, 4), (1, 2, 3, 4, 5), (2, 3, 4, 6)]:   # wrong size, out of range
            with pytest.raises(ValueError):
                idx.apply_removal(g, u)
        idx.check_against(g)

    @pytest.mark.parametrize("u", [
        (0, 1, 1, 2),     # duplicate vertex
        (-1, 0, 1, 2),    # negative vertex
        (0, 1, 2, 8),     # vertex >= n
        (0, 1),           # wrong size
        (0, 1, 2, 4),     # not a clique any more: 2-4 is gone
    ])
    def test_rejected_input_leaves_index_and_graph_unchanged(self, u):
        g = Graph.new_complete(8)
        idx = CliqueIndex.build(g, 4)
        idx.apply_removal(g, (2, 4, 6, 7))
        rows, edges, count = list(g.rows), g.edge_count, len(idx)
        with pytest.raises(ValueError):
            idx.apply_removal(g, u)
        assert g.rows == rows and g.edge_count == edges and len(idx) == count
        idx.check_against(g)

    @pytest.mark.parametrize("k", [3, 4])
    def test_unsorted_input_gives_the_same_delta(self, k):
        u = tuple(range(1, k + 1))
        for order in (u[::-1], list(u[1:] + u[:1])):
            g, g_sorted = Graph.new_complete(8), Graph.new_complete(8)
            idx, idx_sorted = CliqueIndex.build(g, k), CliqueIndex.build(g_sorted, k)
            delta, want = idx.apply_removal(g, order), idx_sorted.apply_removal(g_sorted, u)
            assert delta.by_size == want.by_size and delta.total == want.total
            assert g.rows == g_sorted.rows and idx.cliques == idx_sorted.cliques
            idx.check_against(g)

    def test_survivors_share_at_most_one_vertex(self):
        g = Graph.new_complete(8)
        idx = CliqueIndex.build(g, 3)
        u = (0, 1, 2)
        before = set(idx.cliques)
        idx.apply_removal(g, u)
        after = set(idx.cliques)
        assert after == {c for c in before if len(set(c) & set(u)) <= 1}
        for c in before - after:
            assert len(set(c) & set(u)) >= 2


class TestRebuildEquality:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_rebuild_matches_after_every_step(self, k):
        r = rng(k * 101)
        for trial in range(30):
            n = int(r.integers(k, 13))
            g = Graph.new_complete(n)
            idx = CliqueIndex.build(g, k)
            while len(idx):
                idx.apply_removal(g, idx.sample_uniform(r))
                idx.check_against(g)
                g.check()
                assert set(idx.cliques) == set(enumerate_k_cliques(g, k))
