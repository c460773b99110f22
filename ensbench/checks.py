"""Output checks for the ensemble benchmark, written apart from kremoval.

Nothing here imports kremoval.  The checks read the ensemble report (the
parsed ``report_to_json`` text) and, for every trial, the final graph as a
0/1 numpy adjacency matrix together with the final panel of tracked m-sets
and the extension counts the program reported for them.  Clique counts are
made by a different route from the program's bitset recursion: dense
matrix products, and the identity that every K_s is seen s times when
K_(s-1) copies are counted inside each vertex's neighbourhood.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

# k3_hitting: log-log slope of the mean final edge count against n.  The
# asymptotic exponent is 3/2; see README.md for the measured spread.
K3_SLOPE_WINDOW = (1.40, 1.65)
# k4_tracking: ensemble mean of (panel mean of R_m) / r_m(p) at the stop
# density, per (n, m); see README.md for the measured spread.
R_RATIO_WINDOW = (0.82, 1.06)


@dataclass(frozen=True)
class FinalState:
    """What one trial left behind: its final graph and final panel values."""

    adj: np.ndarray                          # (n, n) bool, symmetric, zero diagonal
    panel: dict[int, tuple[tuple[int, ...], ...]]
    panel_r: dict[int, tuple[int, ...]]      # values the program reported at the end


def count_cliques(adj: np.ndarray, size: int) -> int:
    """Number of complete ``size``-subsets of the graph ``adj``.

    Sizes 1 and 2 are vertex and edge counts, size 3 is the trace identity
    sum((A @ A) * A) = 6 * triangles, and each larger size counts the
    (size-1)-cliques in every neighbourhood and divides by ``size``.  All
    sums stay far below 2**53, so float64 products are exact.
    """
    n = adj.shape[0]
    if size == 1:
        return n
    if size == 2:
        return int(adj.sum()) // 2
    if size == 3:
        a = adj.astype(np.float64)
        return int(round(float(((a @ a) * a).sum()))) // 6
    total = 0
    for v in range(n):
        nb = np.flatnonzero(adj[v])
        if len(nb) >= size - 1:
            total += count_cliques(adj[np.ix_(nb, nb)], size - 1)
    assert total % size == 0, "neighbourhood clique total not divisible by the clique size"
    return total // size


def extension_count(adj: np.ndarray, s: tuple[int, ...], k: int) -> int:
    """K_(k-|s|) copies inside the common neighbourhood of ``s``."""
    common = np.logical_and.reduce(adj[list(s)], axis=0)
    nb = np.flatnonzero(common)
    return count_cliques(adj[np.ix_(nb, nb)], k - len(s)) if len(nb) else 0


def stop_step(n: int, k: int, p_floor: float) -> int:
    """First i with 1 - k(k-1) i / n^2 <= p_floor, in exact arithmetic."""
    need = (1 - Fraction(p_floor)) * n * n / (k * (k - 1))
    return math.ceil(need)


def check_trial(cfg: dict, summary: dict, final: FinalState) -> list[str]:
    """Checks on one completed trial; ``cfg`` is its report config entry."""
    n, k, steps = cfg["n"], cfg["k"], summary["steps"]
    adj = final.adj
    tag = f"n={n} trial={summary['trial']}"
    out: list[str] = []
    if adj.shape != (n, n) or not np.array_equal(adj, adj.T) or adj.diagonal().any():
        return [f"{tag}: final graph is not a simple graph on {n} vertices"]

    edges = int(adj.sum()) // 2
    want_edges = comb(n, 2) - comb(k, 2) * steps
    if edges != want_edges or summary["final_edges"] != edges:
        out.append(f"{tag}: {edges} edges in the graph, report says {summary['final_edges']}, "
                   f"C(n,2) - C(k,2)*steps = {want_edges}")
    deg = adj.sum(axis=1).astype(np.int64)
    if np.any((n - 1 - deg) % (k - 1)):
        out.append(f"{tag}: a degree is not congruent to n-1 mod k-1")
    elif int(((n - 1 - deg) // (k - 1)).sum()) != k * steps:
        out.append(f"{tag}: removed cliques counted from degrees differ from k*steps")

    if cfg["stop"] == "hitting_time":
        if count_cliques(adj, k) != 0:
            out.append(f"{tag}: final graph still holds a K_{k}")
        if summary["final_q"] != 0 or summary["M"] != steps:
            out.append(f"{tag}: final_q={summary['final_q']}, M={summary['M']} at {steps} steps")
    else:
        want_steps = stop_step(n, k, cfg["p_floor"])
        if steps != want_steps or summary["M"] is not None:
            out.append(f"{tag}: stopped after {steps} steps, p_floor rule gives {want_steps}")
        q = count_cliques(adj, k)
        if summary["final_q"] != q:
            out.append(f"{tag}: final_q={summary['final_q']}, independent count {q}")

    for m, sets in final.panel.items():
        mine = tuple(extension_count(adj, s, k) for s in sets)
        if mine != tuple(final.panel_r[m]):
            out.append(f"{tag}: final panel R for m={m} differs from an independent count")
    return out


def check_trials(report: dict, finals: list[list[FinalState | None]]) -> tuple[int, list[str]]:
    """All per-trial checks; returns (failed trials, failure messages).

    ``finals[gi][ti]`` belongs to trial ``ti`` of config ``gi``.  A trial the
    report lists under ``errors`` counts as failed and is not checked.
    """
    failed = 0
    out: list[str] = []
    for gi, cfg in enumerate(report["configs"]):
        failed += len(cfg["errors"])
        if len(cfg["trial_summaries"]) + len(cfg["errors"]) != report["trials"]:
            out.append(f"n={cfg['n']}: trial count does not add up")
        for s in cfg["trial_summaries"]:
            final = finals[gi][s["trial"]]
            if final is None:
                out.append(f"n={cfg['n']} trial={s['trial']}: no final graph observed")
                continue
            out.extend(check_trial(cfg, s, final))
    return failed, out


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def check_slope(report: dict, window: tuple[float, float] = K3_SLOPE_WINDOW) -> list[str]:
    """Final-size exponent: slope of mean final edges against n in ``window``."""
    ns, means = [], []
    for cfg in report["configs"]:
        finals = [s["final_edges"] for s in cfg["trial_summaries"]]
        if finals:
            ns.append(cfg["n"])
            means.append(sum(finals) / len(finals))
    if len(ns) < 3:
        return [f"slope needs 3 sizes with completed trials, got {len(ns)}"]
    slope = loglog_slope(ns, means)
    out = []
    if not window[0] <= slope <= window[1]:
        out.append(f"final-size slope {slope:.4f} outside {list(window)}")
    fitted = report.get("exponent_fit", {}).get("slope")
    if fitted is None or abs(fitted - slope) > 1e-9:
        out.append(f"report's exponent_fit slope {fitted} differs from {slope:.12f}")
    return out


def r_prediction(n: int, k: int, m: int, p: float) -> float:
    """n^(k-m) p^(C(k,2)-C(m,2)) / (k-m)!, the predicted extension count."""
    return n ** (k - m) * p ** (comb(k, 2) - comb(m, 2)) / factorial(k - m)


def panel_ratios(report: dict, finals: list[list[FinalState | None]]) -> dict[tuple[int, int], float]:
    """Per (n, m): ensemble mean of (final panel mean) / r_m(p at the stop)."""
    out: dict[tuple[int, int], float] = {}
    for gi, cfg in enumerate(report["configs"]):
        n, k = cfg["n"], cfg["k"]
        per_m: dict[int, list[float]] = {}
        for s in cfg["trial_summaries"]:
            final = finals[gi][s["trial"]]
            if final is None:
                continue
            p = 1 - k * (k - 1) * s["steps"] / (n * n)
            for m, vals in final.panel_r.items():
                per_m.setdefault(m, []).append(sum(vals) / len(vals) / r_prediction(n, k, m, p))
        for m, rs in per_m.items():
            out[(n, m)] = sum(rs) / len(rs)
    return out


def check_panel_means(report: dict, finals: list[list[FinalState | None]],
                      window: tuple[float, float] = R_RATIO_WINDOW) -> list[str]:
    """The R panel mean tracks n^(k-m) p^(C(k,2)-C(m,2)) / (k-m)!."""
    ratios = panel_ratios(report, finals)
    if not ratios:
        return ["no panel values to compare"]
    return [f"n={n} m={m}: panel mean / prediction = {r:.4f} outside {list(window)}"
            for (n, m), r in sorted(ratios.items()) if not window[0] <= r <= window[1]]
