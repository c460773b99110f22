"""Process engine: runs, traces, determinism, stop rules, both strategies."""

import dataclasses
import gc
import math
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.stats import ks_2samp

from kremoval.engine import (
    RunConfig,
    _RejectionSampler,
    adjacency_matrix,
    default_stride,
    one_step_drop,
    panel_r_values,
    run,
)
from kremoval.graph import Graph, count_k_cliques, enumerate_k_cliques
from kremoval.identities import delta_q_formula
from kremoval.index import CliqueIndex, build_peak_bytes


class TestDeterministicInstance:
    def test_k6_every_seed(self):
        for seed in range(12):
            tr = run(RunConfig(n=6, k=4, seed=seed))
            assert tr.hitting_time == 1
            assert tr.final_edge_count == 9
            assert tr.max_step_drop_q == 15

    def test_single_clique_graph(self):
        tr = run(RunConfig(n=4, k=4, seed=0))
        assert tr.hitting_time == 1
        assert tr.final_edge_count == 0

    def test_run_leaves_no_cyclic_garbage(self):
        # n=30, k=4 enumerates all 27405 cliques to build its index
        gc.collect()
        gc.disable()
        try:
            run(RunConfig(n=30, k=4, seed=3, materialize_at=100_000))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_same_seed_identical_traces(self):
        cfg = RunConfig(n=20, k=4, seed=77)
        a, b = run(cfg), run(cfg)
        assert a.checkpoints == b.checkpoints
        assert a.summary() == b.summary()
        assert a.panel == b.panel

    def test_different_seeds_differ(self):
        a = run(RunConfig(n=20, k=4, seed=1))
        b = run(RunConfig(n=20, k=4, seed=2))
        assert a.checkpoints != b.checkpoints


class TestStopRules:
    def test_p_floor_stop_index(self):
        # first i with p <= 0.9 is ceil(0.1 * n^2 / 12)
        tr = run(RunConfig(n=100, k=4, seed=3, stop="p_floor", p_floor=0.9))
        assert tr.hitting_time is None
        assert tr.steps == math.ceil(0.1 * 100 * 100 / 12)
        assert tr.checkpoints[-1].i == tr.steps
        assert tr.final_q > 0

    def test_p_floor_after_natural_termination(self):
        # if the process dies before reaching the floor, M is still reported
        tr = run(RunConfig(n=6, k=4, seed=0, stop="p_floor", p_floor=0.1))
        assert tr.hitting_time == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n=6, k=2, seed=0).validate()
        with pytest.raises(ValueError):
            RunConfig(n=3, k=4, seed=0).validate()
        with pytest.raises(ValueError):
            RunConfig(n=6, k=4, seed=0, stop="p_floor", p_floor=0.0).validate()
        with pytest.raises(ValueError):
            RunConfig(n=6, k=4, seed=0, stop="bogus").validate()
        with pytest.raises(ValueError):
            RunConfig(n=20000, k=8, seed=0).validate()
        with pytest.raises(ValueError, match="panel_sizes"):
            RunConfig(n=12, k=4, seed=0, panel_sizes={5: 3}).validate()
        with pytest.raises(ValueError, match="memory budget"):
            RunConfig(n=30, k=4, seed=0, materialize_at=100_000, memory_budget_bytes=27405 * 16).validate()
        # the default rule charges its resolved threshold: 100,000 at n=800, k=4
        cfg = RunConfig(n=800, k=4, seed=0)
        assert cfg.resolved_materialize_at() == 100_000
        need = 4 * 800 * 800 + build_peak_bytes(800, 4, 100_000)
        dataclasses.replace(cfg, memory_budget_bytes=need).validate()
        with pytest.raises(ValueError, match="memory budget"):
            dataclasses.replace(cfg, memory_budget_bytes=need - 1).validate()
        for at in (-1, 2.5, True, "5"):
            with pytest.raises(ValueError, match="materialize_at"):
                RunConfig(n=12, k=4, seed=0, materialize_at=at).validate()
        for sizes in ({2.9: 3, 3.5: 2}, {2.0: 3, 3: 2}, {True: 3, 3: 2}, {"2.0": 3, "3": 2}, {" 2": 3, "3": 2}):
            with pytest.raises(ValueError, match="panel_sizes keys"):
                RunConfig(n=12, k=4, seed=0, panel_sizes=sizes).validate()
        for sizes in ({2: -3, 3: 5}, -1, 2.7, True, "5", {2: 2.0, 3: 5}):
            with pytest.raises(ValueError, match="panel_sizes for m=2"):
                RunConfig(n=12, k=4, seed=0, panel_sizes=sizes).validate()
        for sizes in ({"2": 3, "3": 2.5}, {2: 3, 3: False}):
            with pytest.raises(ValueError, match="panel_sizes for m=3"):
                RunConfig(n=12, k=4, seed=0, panel_sizes=sizes).validate()
        for stride in (0, 2.5, 3.0, True, "4"):
            with pytest.raises(ValueError, match="checkpoint_stride"):
                RunConfig(n=12, k=4, seed=0, checkpoint_stride=stride).validate()
        # JSON configs give string keys; numpy integers are integers
        RunConfig(n=12, k=4, seed=0, panel_sizes={"2": 3, "3": np.int64(2)},
                  checkpoint_stride=np.int64(2), materialize_at=np.int64(5)).validate()
        cfg = RunConfig(n=12, k=4, seed=0, panel_sizes={np.int64(2): 3, 3: 1})
        assert cfg.resolved_panel_sizes() == {2: 3, 3: 1}

    def test_memory_guard_charges_adjacency_matrix(self):
        # materialize_at=0 never builds the index, so the float32 adjacency
        # matrix every run keeps is the whole estimate
        n = 200
        for k in (3, 4):
            RunConfig(n=n, k=k, seed=0, materialize_at=0, memory_budget_bytes=4 * n * n).validate()
            with pytest.raises(ValueError, match="memory budget"):
                RunConfig(n=n, k=k, seed=0, materialize_at=0,
                          memory_budget_bytes=4 * n * n - 1).validate()
            # an index of up to materialize_at cliques adds its build peak
            need = 4 * n * n + build_peak_bytes(n, k, 5000)
            RunConfig(n=n, k=k, seed=0, materialize_at=5000, memory_budget_bytes=need).validate()
            with pytest.raises(ValueError, match="memory budget"):
                RunConfig(n=n, k=k, seed=0, materialize_at=5000,
                          memory_budget_bytes=need - 1).validate()


class TestTraceInvariants:
    def test_edge_identity_and_monotone(self):
        tr = run(RunConfig(n=16, k=3, seed=5, checkpoint_stride=1))
        e0 = comb(16, 2)
        qs = [cp.q_k for cp in tr.checkpoints]
        assert qs == sorted(qs, reverse=True)
        for cp in tr.checkpoints:
            assert cp.edge_count == e0 - 3 * cp.i
        # each step drops at least the removed clique itself
        drops = [a - b for a, b in zip(qs, qs[1:])]
        assert all(d >= 1 for d in drops)

    def test_panel_non_increasing_per_set(self):
        tr = run(RunConfig(n=14, k=4, seed=9, checkpoint_stride=1))
        for m in tr.panel:
            for prev, cur in zip(tr.checkpoints, tr.checkpoints[1:]):
                for a, b in zip(prev.panel_r[m], cur.panel_r[m]):
                    assert b <= a

    def test_panel_initial_values_exact(self):
        # at i = 0 every m-set of K_n has exactly C(n-m, k-m) extensions
        n, k = 12, 4
        tr = run(RunConfig(n=n, k=k, seed=2))
        cp0 = tr.checkpoints[0]
        for m, vals in cp0.panel_r.items():
            assert set(vals) == {comb(n - m, k - m)}

    @staticmethod
    def naive_max_drop_r(tr):
        # the largest panel-R decrease over consecutive checkpoints, and the
        # later checkpoint of the first pair that shows it
        best = {m: 0 for m in tr.panel}
        at = {m: None for m in tr.panel}
        for prev, cur in zip(tr.checkpoints, tr.checkpoints[1:]):
            for m in tr.panel:
                for a, b in zip(prev.panel_r[m], cur.panel_r[m]):
                    if a - b > best[m]:
                        best[m], at[m] = a - b, cur.i
        return best, at

    def test_max_step_drop_r_stride1(self):
        for k, n in ((3, 14), (4, 12), (5, 10)):
            for stride in (1, 3):
                tr = run(RunConfig(n=n, k=k, seed=4, checkpoint_stride=stride))
                best, at = self.naive_max_drop_r(tr)
                assert all(best.values()) and all(v is not None for v in at.values())
                assert (tr.max_step_drop_r, tr.max_step_drop_r_at) == (best, at)
            # no panel sets, and a stop before the first step
            for cfg in (RunConfig(n=n, k=k, seed=4, panel_sizes=0),
                        RunConfig(n=n, k=k, seed=4, stop="p_floor", p_floor=1.0)):
                tr = run(cfg)
                assert tr.max_step_drop_r == {m: 0 for m in range(2, k)}
                assert tr.max_step_drop_r_at == {m: None for m in range(2, k)}
                assert self.naive_max_drop_r(tr) == (tr.max_step_drop_r, tr.max_step_drop_r_at)

    def test_validate_rejects_raised_panel_value(self):
        tr = run(RunConfig(n=12, k=4, seed=4, checkpoint_stride=1))
        tr.validate()
        for m in (2, 3):
            cps = list(tr.checkpoints)
            prev, cur = cps[-2], cps[-1]
            vals = list(cur.panel_r[m])
            vals[0] = prev.panel_r[m][0] + 1
            cps[-1] = dataclasses.replace(cur, panel_r={**cur.panel_r, m: tuple(vals)})
            with pytest.raises(AssertionError, match=f"panel R increased for m={m}"):
                dataclasses.replace(tr, checkpoints=cps).validate()

    @pytest.mark.parametrize("k, n", [(3, 24), (4, 16), (5, 14)])
    def test_final_panel_matches_count_r(self, k, n, monkeypatch):
        # Capture each run's graph as it is built; after the run it holds the
        # state at the hitting time, and the last checkpoint's panel must
        # equal the oracle (panel sets need not be cliques, so R need not be 0).
        graphs = []
        new_complete = Graph.new_complete

        def capture(n):
            graphs.append(new_complete(n))
            return graphs[-1]

        monkeypatch.setattr(Graph, "new_complete", staticmethod(capture))
        q0 = comb(n, k)
        for materialize_at, switched in ((0, None), (q0, 0), (q0 // 4, "later")):
            tr = run(RunConfig(n=n, k=k, seed=8, materialize_at=materialize_at))
            if switched == "later":
                assert 0 < tr.switched_to_index_at < tr.steps
            else:
                assert tr.switched_to_index_at == switched
            g, last = graphs[-1], tr.checkpoints[-1]
            assert last.i == tr.hitting_time == tr.steps and last.edge_count == g.edge_count
            for m, sets in tr.panel.items():
                assert last.panel_r[m] == tuple(g.count_r(s, k) for s in sets)
                assert any(last.panel_r[m])

    def test_full_extremes(self):
        # a panel of at least C(n, m) sets tracks every m-set, so its min and
        # max are the exact extremes of R over all m-sets
        tr = run(RunConfig(n=10, k=4, seed=6, panel_sizes=comb(10, 3),
                           checkpoint_stride=2))
        for m in (2, 3):
            assert tr.panel[m] == tuple(combinations(range(10), m))
        cp0 = tr.checkpoints[0]
        assert {m: cp0.r_stats(m)[1:] for m in (2, 3)} == {2: (comb(8, 2), comb(8, 2)), 3: (7, 7)}


class TestInLoopChecks:
    def test_stale_sample_is_rejected(self, monkeypatch):
        # a sampler that keeps handing back its first, already removed, clique
        sample = _RejectionSampler.sample
        first = {}
        monkeypatch.setattr(_RejectionSampler, "sample",
                            lambda self, q: first.setdefault("u", sample(self, q)))
        with pytest.raises(ValueError, match="not a clique"):
            run(RunConfig(n=12, k=4, seed=1, materialize_at=0))

    @pytest.mark.parametrize("materialize_at", [0, 100_000])
    def test_edge_count_identity_catches_a_skipped_removal(self, monkeypatch, materialize_at):
        monkeypatch.setattr(Graph, "remove_clique_edges", lambda self, u: None)
        with pytest.raises(AssertionError, match="edge-count identity violated at step 1"):
            run(RunConfig(n=12, k=3, seed=1, materialize_at=materialize_at))


class TestSamplingStrategy:
    """The dense-phase strategy must be observably exact; enumeration is the oracle."""

    def test_pure_sampling_counts_exact(self):
        cfg = RunConfig(n=12, k=4, seed=11, materialize_at=0, checkpoint_stride=1)
        tr = run(cfg)
        assert tr.switched_to_index_at is None
        assert tr.final_q == 0
        assert tr.hitting_time == tr.steps
        # replay the trace's checkpoints against brute-force recounting
        g = Graph.new_complete(12)
        assert tr.checkpoints[0].q_k == count_k_cliques(g, 4)

    def test_sampling_checkpoints_match_enumeration(self):
        # run sampling-only and verify Q at every checkpoint by independent recount
        cfg = RunConfig(n=10, k=3, seed=13, materialize_at=0, checkpoint_stride=1)
        tr = run(cfg)
        # rebuild the run path: same seed gives the same removals
        tr2 = run(cfg)
        assert tr.checkpoints == tr2.checkpoints
        assert tr.final_q == 0

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_screened_sampler_matches_naive_rejection(self, k):
        # Draw as run() does: each drawn clique leaves g and adj before the
        # next draw, so tuples that passed a pool's screen go stale.  The
        # draws must be current cliques and equal a naive walk over the
        # unscreened, fully sorted pools of an identically seeded RNG.
        n, total = 12, comb(12, k)
        stale = 0
        for seed in range(3):
            g = Graph.new_complete(n)
            adj = adjacency_matrix(g)
            sampler = _RejectionSampler(g, k, np.random.Generator(np.random.PCG64(seed)), adj)
            screened = []
            while q := count_k_cliques(g, k):
                u = sampler.sample(q)
                assert g.is_complete(u)
                screened.append(u)
                g.remove_clique_edges(u)
                adj[np.ix_(u, u)] = 0

            rng = np.random.Generator(np.random.PCG64(seed))
            g = Graph.new_complete(n)
            pool, pos, naive = [], 0, []
            while q := count_k_cliques(g, k):
                while True:
                    if pos == len(pool):
                        count = min(max(256, 3 * total // q), 1 << 16)
                        pool = np.sort(rng.integers(0, n, size=(count, k)), axis=1).tolist()
                        pos, at_refill = 0, g.copy()
                    cand = tuple(pool[pos])
                    pos += 1
                    if len(set(cand)) == k:
                        if g.is_complete(cand):
                            break
                        stale += at_refill.is_complete(cand)
                naive.append(cand)
                g.remove_clique_edges(cand)
            assert screened == naive
        assert stale > 0

    def test_sampling_and_indexed_agree_in_distribution(self):
        # 300 seeded runs per strategy of K_4-removal on K_16 to the hitting
        # time: sampling only (materialize_at=0) and indexed only (C(16, 4) =
        # 1820 cliques materialized at the start).  Two-sample KS on M and on
        # the final edge count; threshold p >= 1e-3, fixed before running.
        def outcomes(materialize_at, seeds):
            traces = [run(RunConfig(n=16, k=4, seed=s, materialize_at=materialize_at,
                                    panel_sizes=0)) for s in seeds]
            return [t.hitting_time for t in traces], [t.final_edge_count for t in traces]

        sampling = outcomes(0, range(300))
        indexed = outcomes(100_000, range(1000, 1300))
        for a, b in zip(sampling, indexed):
            assert ks_2samp(a, b).pvalue >= 1e-3

    @pytest.mark.parametrize("n, k", [(60, 3), (40, 4)])
    def test_default_switch_by_acceptance_rate(self, n, k):
        # the default threshold is min(C(n, k) // 1000, 100_000): 34 and 91
        threshold = min(comb(n, k) // 1000, 100_000)
        assert RunConfig(n=n, k=k, seed=0).resolved_materialize_at() == threshold
        for seed in range(3):
            tr = run(RunConfig(n=n, k=k, seed=seed, checkpoint_stride=1))
            first = next(cp.i for cp in tr.checkpoints if cp.q_k <= threshold)
            assert tr.switched_to_index_at == first > 0
            assert tr.hitting_time == tr.steps

    @pytest.mark.parametrize("n, k", [(6, 4), (10, 3)])
    def test_default_rule_samples_only_below_1000_cliques(self, n, k, monkeypatch):
        # C(6, 4) = 15 and C(10, 3) = 120 resolve to threshold 0: never indexed
        assert RunConfig(n=n, k=k, seed=0).resolved_materialize_at() == 0

        def no_index(*args):
            raise AssertionError("index built")

        monkeypatch.setattr(CliqueIndex, "build", no_index)
        monkeypatch.setattr(CliqueIndex, "from_cliques", no_index)
        for seed in range(5):
            tr = run(RunConfig(n=n, k=k, seed=seed))
            assert tr.switched_to_index_at is None
            assert tr.hitting_time == tr.steps and tr.final_q == 0

    def test_hybrid_switch_self_check(self):
        cfg = RunConfig(n=14, k=3, seed=17, materialize_at=150)
        tr = run(cfg)
        assert tr.switched_to_index_at is not None and tr.switched_to_index_at > 0
        assert tr.hitting_time is not None

    def test_one_step_drop_matches_identity_formula(self):
        g = Graph.new_complete(9)
        g.remove_clique_edges((0, 1, 2))
        g.remove_clique_edges((3, 4, 5))
        for u in enumerate_k_cliques(g, 3)[:25]:
            assert one_step_drop(g, u, 3) == delta_q_formula(g, u, 3)
        for u in enumerate_k_cliques(g, 4)[:25]:
            assert one_step_drop(g, u, 4) == delta_q_formula(g, u, 4)
        # seeded random graphs: remove cliques one after another as run()
        # does, with the matrix built once and zeroed on the removed pairs,
        # and with adj=None; planted k-sets give sparse graphs cliques
        n = 14
        for k in (3, 4, 5):
            for density in (0.3, 0.6, 0.9):
                rng = np.random.Generator(np.random.PCG64(100 * k + int(10 * density)))
                g = Graph.empty(n)
                for a, b in combinations(range(n), 2):
                    if rng.random() < density:
                        g.add_edge(a, b)
                for _ in range(4):
                    for a, b in combinations(rng.choice(n, size=k, replace=False).tolist(), 2):
                        g.add_edge(a, b)
                adj = adjacency_matrix(g)
                removed = 0
                while removed < 8 and (cliques := enumerate_k_cliques(g, k)):
                    u = cliques[int(rng.integers(len(cliques)))]
                    want = delta_q_formula(g, u, k)
                    assert one_step_drop(g, u, k, adj) == want
                    assert one_step_drop(g, u, k) == want
                    g.remove_clique_edges(u)
                    adj[np.ix_(u, u)] = 0
                    assert np.array_equal(adj, adjacency_matrix(g))
                    removed += 1
                assert removed >= 1


class TestPanelAndExports:
    def test_panel_r_values_examples(self):
        g = Graph.new_complete(6)
        assert panel_r_values(g, [(0, 1)], 4) == [6]
        assert panel_r_values(g, [(0, 1, 2)], 4) == [3]
        g.remove_clique_edges((0, 1, 2, 3))
        assert panel_r_values(g, [(0, 1)], 4) == [1]
        assert panel_r_values(g, [], 4) == []

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_panel_r_values_match_count_r(self, k):
        # every m-set of seeded random graphs over a range of densities: the
        # popcount path (m = k-1), the matmul path (m = k-2) and the count_r
        # fallback (k = 5, m = 2)
        n = 13
        rng = np.random.Generator(np.random.PCG64(k))
        for density in (0.3, 0.6, 0.9):
            g = Graph.empty(n)
            for a, b in combinations(range(n), 2):
                if rng.random() < density:
                    g.add_edge(a, b)
            for m in range(2, k):
                sets = list(combinations(range(n), m))
                want = [g.count_r(s, k) for s in sets]
                assert panel_r_values(g, sets, k) == want
                assert panel_r_values(g, np.array(sets), k) == want
                assert panel_r_values(g, np.array(sets, dtype=np.int32)[::-1], k) == want[::-1]
                assert panel_r_values(g, np.empty((0, m), dtype=np.int64), k) == []

    @pytest.mark.parametrize("sets", [
        [(0, 1), (0, 1, 2)],    # mixed sizes
        [(1, 0)],               # not increasing
        [(2, 2)],               # repeated vertex
        [(0, 6)],               # vertex out of range
        [(-1, 2)],
        [(0,)],                 # m < 2
        [(0, 1, 2, 3)],         # m > k-1
        [(0.5, 1.7)],           # float ids, not truncated to (0, 1)
        [("1", "2")],           # string ids
        [(True, 2)],            # bool id mixed with ints
    ])
    def test_panel_r_values_rejects(self, sets):
        with pytest.raises(ValueError):
            panel_r_values(Graph.new_complete(6), sets, 4)

    def test_panel_sizes_dict_and_without_replacement(self):
        cfg = RunConfig(n=10, k=4, seed=1, panel_sizes={2: 5, 3: 7})
        tr = run(cfg)
        assert len(tr.panel[2]) == 5 and len(tr.panel[3]) == 7
        assert len(set(tr.panel[2])) == 5 and len(set(tr.panel[3])) == 7

    def test_panel_caps_at_all_sets(self):
        tr = run(RunConfig(n=6, k=4, seed=1, panel_sizes=200))
        assert len(tr.panel[2]) == comb(6, 2)
        assert len(tr.panel[3]) == comb(6, 3)

    def test_csv_and_summary(self):
        tr = run(RunConfig(n=10, k=4, seed=0))
        csv = tr.to_csv()
        header = csv.splitlines()[0].split(",")
        assert header[:4] == ["i", "p", "edges", "q_k"]
        assert "r_mean_m2" in header and "r_min_m3" in header and "r_max_m2" in header
        assert len(csv.splitlines()) == len(tr.checkpoints) + 1
        s = tr.summary()
        for key in ("n", "k", "seed", "M", "final_edges", "max_step_drop_q"):
            assert key in s

    def test_default_stride(self):
        assert default_stride(6, 4) == 1
        assert default_stride(300, 4) == 300 * 300 // (12 * 400)
