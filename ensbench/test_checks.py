"""Tests of the benchmark's output checks: valid outputs pass, planted faults fail.

    python3 -m pytest ensbench/test_checks.py -q

Final states come from a plain simulation of the removal process on small
graphs (itertools enumeration, numpy adjacency), so these tests need neither
kremoval nor a benchmark run.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from checks import (
    FinalState,
    check_panel_means,
    check_slope,
    check_trial,
    check_trials,
    count_cliques,
    extension_count,
    loglog_slope,
    r_prediction,
    stop_step,
)


def cliques_of(adj: np.ndarray, k: int) -> list[tuple[int, ...]]:
    n = adj.shape[0]
    return [c for c in combinations(range(n), k) if all(adj[a, b] for a, b in combinations(c, 2))]


def simulate(n: int, k: int, seed: int, max_steps: int | None = None) -> tuple[np.ndarray, int]:
    """Remove uniformly random K_k copies from K_n; stop when none is left."""
    rng = np.random.default_rng(seed)
    adj = ~np.eye(n, dtype=bool)
    steps = 0
    while max_steps is None or steps < max_steps:
        cl = cliques_of(adj, k)
        if not cl:
            break
        for a, b in combinations(cl[rng.integers(len(cl))], 2):
            adj[a, b] = adj[b, a] = False
        steps += 1
    return adj, steps


def trial(adj, k, steps, stop="hitting_time", p_floor=0.3, panel_sizes=(2,)):
    """(cfg, summary, final) as the benchmark hands them to check_trial."""
    n = adj.shape[0]
    q = len(cliques_of(adj, k))
    panel = {m: tuple(combinations(range(n), m))[:6] for m in panel_sizes if m < k}
    panel_r = {m: tuple(extension_count(adj, s, k) for s in sets) for m, sets in panel.items()}
    cfg = {"n": n, "k": k, "stop": stop, "p_floor": p_floor}
    summary = {"trial": 0, "steps": steps, "final_edges": int(adj.sum()) // 2, "final_q": q,
               "M": steps if q == 0 else None}
    return cfg, summary, FinalState(adj, panel, panel_r)


def with_edge(adj, a, b, present):
    adj = adj.copy()
    adj[a, b] = adj[b, a] = present
    return adj


@pytest.fixture(scope="module")
def k3_final():
    return simulate(9, 3, seed=1)


@pytest.fixture(scope="module")
def k4_tracking():
    n, k, p_floor = 11, 4, 0.7
    adj, steps = simulate(n, k, seed=2, max_steps=stop_step(n, k, p_floor))
    return trial(adj, k, steps, stop="p_floor", p_floor=p_floor, panel_sizes=(2, 3))


def test_count_cliques_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(5):
        upper = np.triu(rng.random((12, 12)) < 0.6, 1)
        adj = upper | upper.T
        for size in range(1, 6):
            assert count_cliques(adj, size) == len(cliques_of(adj, size) if size > 1 else range(12))


def test_stop_step_is_exact():
    assert stop_step(300, 4, 0.5) == 3750      # 1 - 12 i / n^2 hits 1/2 exactly
    assert stop_step(200, 4, 0.5) == 1667
    assert stop_step(11, 4, 0.7) == 4      # 1 - 12*3/121 = 0.702 is still above 0.7


def test_valid_outputs_pass(k3_final, k4_tracking):
    adj, steps = k3_final
    assert check_trial(*trial(adj, 3, steps)) == []
    assert check_trial(*k4_tracking) == []
    adj4, steps4 = simulate(10, 4, seed=3)
    assert check_trial(*trial(adj4, 4, steps4)) == []


def test_leftover_clique_fails(k3_final):
    adj, steps = simulate(9, 3, seed=1, max_steps=k3_final[1] - 1)
    cfg, summary, final = trial(adj, 3, steps)
    summary["final_q"], summary["M"] = 0, steps   # the report claims the run finished
    problems = check_trial(cfg, summary, final)
    assert any("still holds a K_3" in p for p in problems)
    assert not any("edges" in p or "degree" in p for p in problems)


def test_final_q_fault_fails(k3_final):
    cfg, summary, final = trial(k3_final[0], 3, k3_final[1])
    summary["final_q"] = 1
    assert any("final_q=1" in p for p in check_trial(cfg, summary, final))


def test_missing_edge_fails(k3_final):
    adj, steps = k3_final
    a, b = map(int, np.argwhere(np.triu(adj, 1))[0])
    cfg, summary, final = trial(with_edge(adj, a, b, False), 3, steps)
    summary["final_edges"] += 1
    problems = check_trial(cfg, summary, final)
    assert any("edges in the graph" in p for p in problems)


def test_moved_edge_breaks_degrees(k3_final):
    adj, steps = k3_final
    a, b = map(int, np.argwhere(np.triu(adj, 1))[0])
    c = next(v for v in range(9) if v != a and not adj[a, v])
    moved = with_edge(with_edge(adj, a, b, False), a, c, True)
    cfg, summary, final = trial(moved, 3, steps)
    problems = check_trial(cfg, summary, final)
    assert not any("edges in the graph" in p for p in problems)
    assert any("not congruent" in p for p in problems)


def test_wrong_step_count_breaks_degree_total(k3_final):
    cfg, summary, final = trial(k3_final[0], 3, k3_final[1])
    summary["steps"] += 1
    summary["M"] = summary["steps"]
    problems = check_trial(cfg, summary, final)
    assert any("counted from degrees" in p for p in problems)


def test_stop_step_fault_fails(k4_tracking):
    cfg, summary, final = k4_tracking
    adj, steps = simulate(11, 4, seed=2, max_steps=summary["steps"] - 1)
    problems = check_trial(*trial(adj, 4, steps, stop="p_floor", p_floor=cfg["p_floor"],
                                  panel_sizes=(2, 3)))
    assert problems and all("p_floor rule" in p for p in problems)


def test_q_count_fault_fails(k4_tracking):
    cfg, summary, final = k4_tracking
    assert any("independent count" in p
               for p in check_trial(cfg, dict(summary, final_q=summary["final_q"] + 1), final))


def test_panel_fault_fails(k4_tracking):
    cfg, summary, final = k4_tracking
    bad = dict(final.panel_r)
    bad[3] = (bad[3][0] + 1,) + bad[3][1:]
    problems = check_trial(cfg, summary, FinalState(final.adj, final.panel, bad))
    assert problems == ["n=11 trial=0: final panel R for m=3 differs from an independent count"]


def test_not_simple_graph_fails(k3_final):
    adj, steps = k3_final
    a, b = map(int, np.argwhere(np.triu(adj, 1))[0])
    lopsided = adj.copy()
    lopsided[a, b] = False
    assert "not a simple graph" in check_trial(*trial(lopsided, 3, steps))[0]


def test_check_trials_counts_errors_and_missing_graphs(k3_final):
    cfg, summary, final = trial(k3_final[0], 3, k3_final[1])
    second = dict(summary, trial=1)
    report = {"trials": 3, "configs": [dict(cfg, trial_summaries=[summary, second],
                                            errors=[{"trial": 2, "error": "boom"}])]}
    failed, problems = check_trials(report, [[final, None, None]])
    assert failed == 1
    assert problems == ["n=9 trial=1: no final graph observed"]


def slope_report(exponent: float, fitted: float | None = None) -> dict:
    ns = (100, 200, 400, 800)
    finals = [round(0.3 * n ** exponent) for n in ns]
    return {"configs": [{"n": n, "trial_summaries": [{"final_edges": f}]} for n, f in zip(ns, finals)],
            "exponent_fit": {"slope": loglog_slope(ns, finals) if fitted is None else fitted}}


def test_slope_window():
    assert check_slope(slope_report(1.5)) == []
    assert any("outside" in p for p in check_slope(slope_report(1.2)))
    assert any("outside" in p for p in check_slope(slope_report(1.8)))
    assert any("exponent_fit" in p for p in check_slope(slope_report(1.5, fitted=1.49)))


def panel_case(scale: float):
    n, k, steps = 200, 4, stop_step(200, 4, 0.5)
    p = 1 - 12 * steps / n ** 2
    panel_r = {m: (round(scale * r_prediction(n, k, m, p)),) * 4 for m in (2, 3)}
    report = {"configs": [{"n": n, "k": k, "trial_summaries": [{"trial": 0, "steps": steps}]}]}
    return report, [[FinalState(np.zeros((n, n), bool), {}, panel_r)]]


def test_panel_mean_window():
    assert check_panel_means(*panel_case(1.0)) == []
    assert len(check_panel_means(*panel_case(0.8))) == 2
    assert len(check_panel_means(*panel_case(1.2))) == 2
