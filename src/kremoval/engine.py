"""Runs the removal process from the complete graph to its hitting time.

One step samples a uniformly random K_k, deletes its edges, and updates the
exact clique count.  Two interchangeable execution strategies produce the
same observable semantics (exact Q_k at every step, uniform sampling, exact
per-step drops):

* ``indexed``: the materialized ``CliqueIndex`` (numpy clique rows, an alive
  mask and edge buckets).  Building it costs ``index.build_peak_bytes``, so
  it is only viable while the clique count is modest.
* ``sampling``: used while Q_k is too large to materialize (Q_k(0) = C(n, k)
  reaches 3.3e8 already at n = 300, k = 4).  A uniform clique is drawn by
  rejection over uniform k-subsets, screened a batch at a time against the
  run's adjacency matrix, and Q_k is advanced exactly through the
  alternating-sum identity that expresses the one-step drop via the extension
  counts R of the removed clique's subsets.  The identity is exercised
  exhaustively by the identity suites, and every run re-validates it at the
  moment it materializes: the maintained count must equal a fresh enumeration
  or the run aborts.

A run auto-selects ``sampling`` when the initial count exceeds
``materialize_at`` and switches to ``indexed`` as soon as Q_k falls to that
threshold, so runs to the hitting time stay fast at the end where rejection
would stall.  For a fixed config the strategy schedule is deterministic, and
identical seeds give bit-identical traces.

Every run keeps one float32 0/1 adjacency matrix (``adjacency_matrix``,
4 n^2 bytes) beside the graph's bitset rows and zeroes the removed clique's
pairs after every step; the sampler's screen, the one-step drop and the
checkpoint panels all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable

import numpy as np

from .graph import (
    Graph,
    VertexSet,
    check_count_guard,
    count_cliques_in_mask,
    count_k_cliques,
    enumerate_k_cliques,
)
from .index import CliqueIndex, build_peak_bytes

FULL_EXTREMES_MAX_N = 60

def default_stride(n: int, k: int) -> int:
    """Roughly 400 checkpoints per full run, uniform in p."""
    return max(1, n * n // (k * (k - 1) * 400))


@dataclass(frozen=True)
class RunConfig:
    n: int
    k: int
    seed: int
    stop: str = "hitting_time"              # "hitting_time" | "p_floor"
    p_floor: float = 0.3
    checkpoint_stride: int | None = None    # None -> default_stride(n, k)
    panel_sizes: int | dict[int, int] = 200  # tracked U_m sets per m in [2, k-1]
    record_full_extremes: bool = False       # exact min/max R scan, n <= 60 only
    p_start: float = 1.0                     # < 1: approximation mode, see below
    materialize_at: int = 100_000
    memory_budget_bytes: int = 8 << 30

    # p_start < 1 first applies independent random edge deletions to emulate a
    # mid-process state.  The process itself is only defined from the complete
    # graph; this mode is an explicitly flagged approximation for scales where
    # the initial clique count is out of reach, and is OFF by default.

    def validate(self) -> None:
        if self.k < 3:
            raise ValueError(f"k must be >= 3, got {self.k}")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        if self.stop not in ("hitting_time", "p_floor"):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        if self.stop == "p_floor" and not 0 < self.p_floor <= 1:
            raise ValueError(f"p_floor must be in (0, 1], got {self.p_floor}")
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")
        if not 0 < self.p_start <= 1:
            raise ValueError(f"p_start must be in (0, 1], got {self.p_start}")
        if self.record_full_extremes and self.n > FULL_EXTREMES_MAX_N:
            raise ValueError(
                f"record_full_extremes scans all C(n, m) sets; refusing n={self.n} > {FULL_EXTREMES_MAX_N}"
            )
        if self.materialize_at < 0:
            raise ValueError("materialize_at must be nonnegative")
        self.resolved_panel_sizes()
        check_count_guard(self.n, self.k)
        est_q0 = comb(self.n, self.k) * self.p_start ** comb(self.k, 2)
        peak = int(min(est_q0, self.materialize_at))
        # every run keeps adjacency_matrix(g) for the whole run
        adj_bytes = 4 * self.n * self.n
        index_bytes = build_peak_bytes(self.n, self.k, peak) if peak else 0
        if index_bytes + adj_bytes > self.memory_budget_bytes:
            raise ValueError(
                f"building an index of {peak:.3g} materialized cliques plus a "
                f"{adj_bytes} B adjacency matrix exceeds the "
                f"{self.memory_budget_bytes / 2**30:.1f} GiB memory budget; "
                "lower materialize_at or raise memory_budget_bytes"
            )

    def resolved_stride(self) -> int:
        return self.checkpoint_stride if self.checkpoint_stride is not None else default_stride(self.n, self.k)

    def resolved_panel_sizes(self) -> dict[int, int]:
        ms = range(2, self.k)
        if isinstance(self.panel_sizes, dict):
            sizes = {int(m): int(c) for m, c in self.panel_sizes.items()}
            if set(sizes) != set(ms):
                raise ValueError(f"panel_sizes keys must be 2..{self.k - 1}")
        else:
            sizes = {m: int(self.panel_sizes) for m in ms}
        for m, count in sizes.items():
            if count < 0:
                raise ValueError(f"panel_sizes for m={m} must be >= 0, got {count}")
        return sizes


@dataclass(frozen=True)
class Checkpoint:
    i: int
    p: float
    edge_count: int
    q_k: int
    panel_r: dict[int, tuple[int, ...]]           # per m, values for the fixed panel
    exact_r_extremes: dict[int, tuple[int, int]] | None = None

    def r_stats(self, m: int) -> tuple[float, int, int]:
        vals = self.panel_r[m]
        if not vals:
            raise ValueError(f"empty panel for m={m}")
        return (sum(vals) / len(vals), min(vals), max(vals))


@dataclass
class ProcessTrace:
    config: RunConfig
    panel: dict[int, tuple[VertexSet, ...]]
    checkpoints: list[Checkpoint]
    hitting_time: int | None
    steps: int
    final_edge_count: int
    final_q: int
    max_step_drop_q: int
    max_step_drop_q_at: int | None
    # Max observed panel-R decrease between consecutive checkpoints, per m.
    # Equals the max one-step drop when checkpoint_stride == 1; with a larger
    # stride it aggregates that many steps (R is recomputed only at
    # checkpoints).
    max_step_drop_r: dict[int, int] = field(default_factory=dict)
    max_step_drop_r_at: dict[int, int | None] = field(default_factory=dict)
    switched_to_index_at: int | None = None

    def validate(self) -> None:
        cps = self.checkpoints
        assert cps, "trace has no checkpoints"
        ck2 = comb(self.config.k, 2)
        e0 = comb(self.config.n, 2) if self.config.p_start == 1.0 else None
        for prev, cur in zip(cps, cps[1:]):
            assert prev.i < cur.i, "checkpoint steps not strictly increasing"
            assert cur.q_k <= prev.q_k, "Q_k increased"
        for m in cps[0].panel_r:
            assert (_panel_drops(cps, m) >= 0).all(), f"panel R increased for m={m}"
        for cp in cps:
            if e0 is not None:
                assert cp.edge_count == e0 - ck2 * cp.i, "edge-count identity violated"

    def summary(self) -> dict:
        cfg = self.config
        return {
            "n": cfg.n,
            "k": cfg.k,
            "seed": cfg.seed,
            "stop": cfg.stop,
            "p_floor": cfg.p_floor if cfg.stop == "p_floor" else None,
            "p_start": cfg.p_start,
            "M": self.hitting_time,
            "steps": self.steps,
            "final_edges": self.final_edge_count,
            "final_q": self.final_q,
            "max_step_drop_q": self.max_step_drop_q,
            "max_step_drop_q_at": self.max_step_drop_q_at,
            "max_step_drop_r": {str(m): v for m, v in self.max_step_drop_r.items()},
            "max_step_drop_r_at": {str(m): v for m, v in self.max_step_drop_r_at.items()},
            "switched_to_index_at": self.switched_to_index_at,
            "checkpoints": len(self.checkpoints),
        }

    def to_csv(self) -> str:
        ms = sorted(self.panel)
        header = ["i", "p", "edges", "q_k"]
        for m in ms:
            header += [f"r_mean_m{m}", f"r_min_m{m}", f"r_max_m{m}"]
        lines = [",".join(header)]
        for cp in self.checkpoints:
            row = [str(cp.i), repr(cp.p), str(cp.edge_count), str(cp.q_k)]
            for m in ms:
                if cp.panel_r[m]:
                    mean, lo, hi = cp.r_stats(m)
                    row += [repr(mean), str(lo), str(hi)]
                else:
                    row += ["", "", ""]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, indent=2)


def _panel_drops(checkpoints: list[Checkpoint], m: int) -> np.ndarray:
    """(C-1, P) decrease of each size-m panel value between consecutive checkpoints."""
    return -np.diff(np.array([cp.panel_r[m] for cp in checkpoints], dtype=np.int64), axis=0)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The graph's 0/1 adjacency as an (n, n) float32 matrix (4 n^2 bytes)."""
    n = g.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in g.rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").astype(np.float32)


def _extension_counts(g: Graph, sets: np.ndarray | Iterable[VertexSet], m: int, k: int,
                      adj: np.ndarray | None) -> list[int]:
    """R for strictly increasing sets of one size m in [2, k-1]; unvalidated.

    ``sets`` is an int ``(P, m)`` array or an iterable of vertex tuples.

    * m = k-1: R is the size of the common neighbourhood, the popcount of the
      AND of the sets' rows (rows are irreflexive, so it excludes the set).
    * m = k-2: R is the number of edges inside the common neighbourhood.  With
      A the 0/1 adjacency matrix and C the stacked products of the rows A[v]
      over each set's vertices, R = rowsum((C @ A) * C) / 2, one matmul.
      ``adj`` must be the current A; None builds it.
    * otherwise (k >= 5, m <= k-3): the mask recursion per set.
    """
    rows = g.rows
    if m == k - 2:
        if adj is None:
            adj = adjacency_matrix(g)
        cols = (sets if isinstance(sets, np.ndarray) else np.array(list(sets))).T
        common = adj[cols[0]]
        for col in cols[1:]:
            common *= adj[col]
        # Exact: every entry of common @ adj is an integer of at most
        # n < 2^24, and the row sums are taken in float64.
        twice = ((common @ adj) * common).sum(axis=1, dtype=np.float64)
        return (twice.astype(np.int64) // 2).tolist()
    out = []
    for s in sets.tolist() if isinstance(sets, np.ndarray) else sets:
        nb = rows[s[0]]
        for v in s[1:]:
            nb &= rows[v]
        out.append(nb.bit_count() if m == k - 1 else count_cliques_in_mask(g, nb, k - m))
    return out


def panel_r_values(g: Graph, panel: np.ndarray | Iterable[VertexSet], k: int,
                   adj: np.ndarray | None = None) -> list[int]:
    """Exact extension counts R for a panel of m-sets of one size m, in panel order.

    ``panel`` is an int ``(P, m)`` array, used as it is, or an iterable of
    integer tuples.  All sets must share one size m in [2, k-1] and be
    strictly increasing with vertices in [0, n); ``ValueError`` otherwise,
    also for float, string or bool vertex ids.  The whole panel is evaluated
    at once by ``_extension_counts``, the kernel ``one_step_drop`` also uses;
    ``adj``, if given, must be the current ``adjacency_matrix(g)``, and None
    builds it when m = k-2 needs it.
    """
    sets = panel if isinstance(panel, np.ndarray) else list(panel)
    arr = np.asarray(sets)
    if arr.shape[:1] == (0,):
        return []
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"panel vertex ids must be integers, got dtype {arr.dtype}")
    if arr.ndim != 2 or not 2 <= arr.shape[1] <= k - 1:
        raise ValueError(f"panel sets must share one size m in [2, k-1={k - 1}]")
    if sets is not panel and any(isinstance(v, (bool, np.bool_)) for s in sets for v in s):
        raise ValueError("panel vertex ids must be integers, not bools")
    if np.any(arr[:, 1:] <= arr[:, :-1]):
        raise ValueError("panel sets must be strictly increasing")
    if arr[:, 0].min() < 0 or arr[:, -1].max() >= g.n:
        raise ValueError(f"panel vertex out of range [0, {g.n})")
    return _extension_counts(g, arr, arr.shape[1], k, adj)


def _select_panel(rng, n: int, sizes: dict[int, int]) -> dict[int, tuple[VertexSet, ...]]:
    """Fixed random panels of m-sets, drawn without replacement from the seed."""
    panel: dict[int, tuple[VertexSet, ...]] = {}
    for m, want in sorted(sizes.items()):
        total = comb(n, m)
        if want >= total:
            panel[m] = tuple(combinations(range(n), m))
            continue
        seen: dict[VertexSet, None] = {}
        while len(seen) < want:
            s = tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
            seen.setdefault(s, None)
        panel[m] = tuple(seen)
    return panel


class _RejectionSampler:
    """Uniform K_k sampling by rejection over uniform k-subsets.

    Candidate k-tuples are drawn in deterministic batches sized from the
    current acceptance rate Q_k / C(n, k).  ``_refill`` screens a whole batch
    with C(k, 2) gathers from ``adj``, the run's current adjacency matrix;
    its diagonal is zero, so a tuple with a repeated vertex fails too.  The
    passing tuples are kept, sorted, in draw order.  Edges are only ever
    removed, so a tuple that failed the screen would fail later too, and
    ``sample`` re-checks only the kept ones against ``g.rows``: the first
    that is still complete is exactly the sequential-rejection result, so
    every current clique is returned with probability 1/Q_k.
    """

    def __init__(self, g: Graph, k: int, rng, adj: np.ndarray):
        self.g = g
        self.k = k
        self.rng = rng
        self.adj = adj
        self.total = comb(g.n, k)
        self._pool: list[list[int]] = []
        self._pos = 0

    def _refill(self, q: int) -> None:
        n = self.g.n
        count = min(max(256, 3 * self.total // max(q, 1)), 1 << 16)
        draws = self.rng.integers(0, n, size=(count, self.k))
        flat = self.adj.ravel()
        ok = np.ones(count, dtype=bool)
        for i, j in combinations(range(self.k), 2):
            ok &= flat.take(draws[:, i] * n + draws[:, j]) != 0
        self._pool = np.sort(draws[ok], axis=1).tolist()
        self._pos = 0

    def sample(self, q: int) -> VertexSet:
        rows = self.g.rows
        while True:
            pool = self._pool
            while self._pos < len(pool):
                cand = pool[self._pos]
                self._pos += 1
                if all(rows[a] >> b & 1 for a, b in combinations(cand, 2)):
                    return tuple(cand)
            self._refill(q)


def one_step_drop(g: Graph, u: VertexSet, k: int, adj: np.ndarray | None = None) -> int:
    """Exact Q_k(i) - Q_k(i+1) for removing clique ``u``, via extension counts.

    Alternating sum over the proper subsets of ``u``: coefficient
    (-1)^m (m-1) on the size-m extension counts, plus the constant
    (-1)^k (k-1).  Exact for any graph state in which ``u`` is complete.
    The counts come from the panel kernel (``_extension_counts``) without
    validation; ``adj``, if given, must be the current
    ``adjacency_matrix(g)``, and None builds it for k >= 4.  The identity
    suites pin this route against ``identities.delta_q_formula``.
    """
    total = (-1) ** k * (k - 1)
    for m in range(2, k):
        total += (-1) ** m * (m - 1) * sum(_extension_counts(g, combinations(u, m), m, k, adj))
    return total


def run(cfg: RunConfig) -> ProcessTrace:
    """Execute one trial; identical config and seed give a bit-identical trace."""
    cfg.validate()
    n, k = cfg.n, cfg.k
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))

    g = Graph.new_complete(n)
    if cfg.p_start < 1.0:
        us = rng.random(comb(n, 2))
        e = 0
        for a in range(n):
            for b in range(a + 1, n):
                if us[e] >= cfg.p_start:
                    g.remove_edge(a, b)
                e += 1

    panel = _select_panel(rng, n, cfg.resolved_panel_sizes())
    panel_arrays = {m: np.array(sets, dtype=np.int64).reshape(-1, m) for m, sets in panel.items()}
    stride = cfg.resolved_stride()
    ck2 = comb(k, 2)
    e_start = g.edge_count
    nominal = cfg.p_start == 1.0

    q = comb(n, k) if nominal else count_k_cliques(g, k)

    adj = adjacency_matrix(g)
    idx: CliqueIndex | None = None
    sampler: _RejectionSampler | None = None
    switched_at: int | None = None
    if q <= cfg.materialize_at:
        idx = CliqueIndex.build(g, k)
        if len(idx) != q:
            raise AssertionError("initial clique count mismatch")
        switched_at = 0
    else:
        sampler = _RejectionSampler(g, k, rng, adj)

    def current_p(i: int) -> float:
        if nominal:
            return 1.0 - k * (k - 1) * i / (n * n)
        # effective density from the exact edge count, matching the nominal
        # formula exactly when p_start == 1
        return (2 * g.edge_count + n) / (n * n)

    checkpoints: list[Checkpoint] = []

    def record(i: int) -> None:
        panel_r = {m: tuple(panel_r_values(g, arr, k, adj)) for m, arr in panel_arrays.items()}
        extremes = None
        if cfg.record_full_extremes:
            extremes = {}
            for m in range(2, k):
                vals = panel_r_values(g, np.array(list(combinations(range(n), m))), k, adj)
                extremes[m] = (min(vals), max(vals))
        checkpoints.append(Checkpoint(i=i, p=current_p(i), edge_count=g.edge_count,
                                      q_k=q, panel_r=panel_r, exact_r_extremes=extremes))

    record(0)
    steps = 0
    hit: int | None = None
    max_drop = 0
    max_drop_at: int | None = None

    while True:
        if q == 0:
            hit = steps
            break
        if cfg.stop == "p_floor" and current_p(steps) <= cfg.p_floor:
            break
        if idx is None and q <= cfg.materialize_at:
            idx = CliqueIndex.from_cliques(g, k, enumerate_k_cliques(g, k))
            if len(idx) != q:
                raise AssertionError(
                    f"maintained count {q} disagrees with enumeration {len(idx)} at step {steps}"
                )
            sampler = None
            switched_at = steps

        if idx is not None:
            u = idx.sample_uniform(rng)
            delta = idx.apply_removal(g, u)
            drop = delta.total
        else:
            assert sampler is not None
            u = sampler.sample(q)
            drop = one_step_drop(g, u, k, adj)
            g.remove_clique_edges(u)
        for a, b in combinations(u, 2):
            adj[a, b] = adj[b, a] = 0
        steps += 1
        q -= drop
        if drop < 1 or q < 0:
            raise AssertionError(f"impossible drop {drop} at step {steps}")
        if g.edge_count != e_start - ck2 * steps:
            raise AssertionError(f"edge-count identity violated at step {steps}")
        if drop > max_drop:
            max_drop = drop
            max_drop_at = steps - 1
        if steps % stride == 0:
            record(steps)

    if checkpoints[-1].i != steps:
        record(steps)

    # the largest drop per checkpoint pair; argmax keeps the first such pair
    worst = {m: _panel_drops(checkpoints, m).max(axis=1, initial=0) for m in panel}
    max_drop_r = {m: int(w.max(initial=0)) for m, w in worst.items()}
    max_drop_r_at = {m: checkpoints[w.argmax() + 1].i if max_drop_r[m] else None for m, w in worst.items()}

    trace = ProcessTrace(
        config=cfg,
        panel=panel,
        checkpoints=checkpoints,
        hitting_time=hit,
        steps=steps,
        final_edge_count=g.edge_count,
        final_q=q,
        max_step_drop_q=max_drop,
        max_step_drop_q_at=max_drop_at,
        max_step_drop_r=max_drop_r,
        max_step_drop_r_at=max_drop_r_at,
        switched_to_index_at=switched_at,
    )
    trace.validate()
    return trace
