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

A run samples while Q_k exceeds ``RunConfig.resolved_materialize_at()`` and
then switches to ``indexed``: by default once a rejection draw would need
``CANDIDATES_PER_DRAW`` candidates in expectation (C(n, k) / Q_k), with at most
100,000 cliques indexed.  The strategy schedule is deterministic for a fixed
config, and identical seeds give bit-identical traces.

A step validates its clique once, in ``Graph.remove_clique_edges``; its drop
is k popcounts of prefix-and-suffix ANDs plus one panel-kernel call per
smaller subset size (``one_step_drop``).  The float32 0/1 adjacency matrix
(``adjacency_matrix``, 4 n^2 B), zeroed on the removed pairs after each step,
serves the sampler, the drop and the m = k-2 panels; indexed k = 3 drops it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable

import numpy as np

from .graph import (
    Graph,
    VertexSet,
    check_count_guard,
    count_cliques_in_mask,
    enumerate_k_cliques,
)
from .index import CliqueIndex, build_peak_bytes
from .trajectory import p_of

CANDIDATES_PER_DRAW = 1000  # by default a run samples while C(n, k) / Q_k is below this


def default_stride(n: int, k: int) -> int:
    """Roughly 400 checkpoints per full run, uniform in p."""
    return max(1, n * n // (k * (k - 1) * 400))


def _is_count(x, least: int) -> bool:
    """True for a Python or numpy integer (not a bool) that is at least ``least``."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


@dataclass(frozen=True)
class RunConfig:
    n: int
    k: int
    seed: int
    stop: str = "hitting_time"              # "hitting_time" | "p_floor"
    p_floor: float = 0.3
    checkpoint_stride: int | None = None    # None -> default_stride(n, k)
    panel_sizes: int | dict[int, int] = 200  # tracked U_m sets per m in [2, k-1]
    materialize_at: int | None = None       # None -> resolved_materialize_at()
    memory_budget_bytes: int = 8 << 30

    def validate(self) -> None:
        if not _is_count(self.k, 3):
            raise ValueError(f"k must be an integer >= 3, got {self.k!r}")
        if not _is_count(self.n, self.k):
            raise ValueError(f"n must be an integer >= k = {self.k}, got {self.n!r}")
        if self.stop not in ("hitting_time", "p_floor"):
            raise ValueError(f"unknown stop rule {self.stop!r}")
        if self.stop == "p_floor" and not 0 < self.p_floor <= 1:
            raise ValueError(f"p_floor must be in (0, 1], got {self.p_floor}")
        if self.checkpoint_stride is not None and not _is_count(self.checkpoint_stride, 1):
            raise ValueError(f"checkpoint_stride must be an integer >= 1, got {self.checkpoint_stride!r}")
        if self.materialize_at is not None and not _is_count(self.materialize_at, 0):
            raise ValueError(f"materialize_at must be None or an integer >= 0, got {self.materialize_at!r}")
        self.resolved_panel_sizes()
        check_count_guard(self.n, self.k)
        peak = min(comb(self.n, self.k), self.resolved_materialize_at())
        # adjacency_matrix(g), charged for the whole run
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

    def resolved_materialize_at(self) -> int:
        default = min(comb(self.n, self.k) // CANDIDATES_PER_DRAW, 100_000)
        return self.materialize_at if self.materialize_at is not None else default

    def resolved_panel_sizes(self) -> dict[int, int]:
        ms = range(2, self.k)
        if isinstance(self.panel_sizes, dict):
            # JSON config files give decimal-integer string keys such as "2"
            sizes = {int(m) if isinstance(m, str) and m.isdecimal() else m: c for m, c in self.panel_sizes.items()}
            if not all(_is_count(m, 2) for m in sizes) or set(sizes) != set(ms):
                raise ValueError(f"panel_sizes keys must be the integers 2..{self.k - 1}")
        else:
            sizes = dict.fromkeys(ms, self.panel_sizes)
        for m, count in sizes.items():
            if not _is_count(count, 0):
                raise ValueError(f"panel_sizes for m={m} must be an integer >= 0, got {count!r}")
        return sizes


@dataclass(frozen=True)
class Checkpoint:
    i: int
    p: float
    edge_count: int
    q_k: int
    panel_r: dict[int, tuple[int, ...]]           # per m, values for the fixed panel

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
        e0, ck2 = comb(self.config.n, 2), comb(self.config.k, 2)
        assert all(cp.edge_count == e0 - ck2 * cp.i for cp in cps), "edge-count identity violated"
        for prev, cur in zip(cps, cps[1:]):
            assert prev.i < cur.i, "checkpoint steps not strictly increasing"
            assert cur.q_k <= prev.q_k, "Q_k increased"
        for m in cps[0].panel_r:
            assert (_panel_drops(cps, m) >= 0).all(), f"panel R increased for m={m}"

    def summary(self) -> dict:
        cfg = self.config
        return {
            "n": cfg.n,
            "k": cfg.k,
            "seed": cfg.seed,
            "stop": cfg.stop,
            "p_floor": cfg.p_floor if cfg.stop == "p_floor" else None,
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


def _extension_counts(g: Graph, sets: np.ndarray, m: int, k: int,
                      adj: np.ndarray | None) -> list[int]:
    """R for the strictly increasing sets of an int ``(P, m)`` array, m in [2, k-1]; unvalidated.

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
        cols = sets.T
        common = adj[cols[0]]
        for col in cols[1:]:
            common *= adj[col]
        # Exact: every entry of common @ adj is an integer of at most
        # n < 2^24, and the row sums are taken in float64.
        twice = ((common @ adj) * common).sum(axis=1, dtype=np.float64)
        return (twice.astype(np.int64) // 2).tolist()
    out = []
    for s in sets.tolist():
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


@cache
def _subset_table(k: int, m: int) -> np.ndarray:
    """Positions of the m-subsets of a k-tuple, lexicographic, as an ``(C(k, m), m)`` array."""
    return np.array(list(combinations(range(k), m)), dtype=np.intp).reshape(-1, m)


class _RejectionSampler:
    """Uniform K_k sampling by rejection over uniform k-subsets.

    Candidate k-tuples are drawn in deterministic batches sized from the
    current acceptance rate Q_k / C(n, k).  ``_refill`` screens a whole batch
    with one gather of its C(k, 2) pairs from ``adj``, the run's current
    adjacency matrix; its diagonal is zero, so a tuple with a repeated vertex
    fails too.  The passing tuples are kept in draw order.  Edges are only
    ever removed, so a tuple that failed the screen would fail later too, and
    ``sample`` re-checks only the kept ones against ``g.rows``: the first that
    is still complete, sorted, is exactly the sequential-rejection result, so
    every current clique is returned with probability 1/Q_k.
    """

    def __init__(self, g: Graph, k: int, rng, adj: np.ndarray):
        self.g = g
        self.k = k
        self.rng = rng
        self.adj = adj
        self.total = comb(g.n, k)
        self._pairs = _subset_table(k, 2).tolist()
        self._pool: list[list[int]] = []
        self._pos = 0

    def _refill(self, q: int) -> None:
        n = self.g.n
        count = min(max(256, 3 * self.total // max(q, 1)), 1 << 16)
        draws = self.rng.integers(0, n, size=(count, self.k))
        ends, by_pos = _subset_table(self.k, 2).T, draws.T
        ok = (self.adj.take(by_pos[ends[0]] * n + by_pos[ends[1]]) != 0).all(axis=0)
        self._pool = draws[ok].tolist()
        self._pos = 0

    def sample(self, q: int) -> VertexSet:
        rows, pairs = self.g.rows, self._pairs
        while True:
            pool = self._pool
            while self._pos < len(pool):
                cand = pool[self._pos]
                self._pos += 1
                for i, j in pairs:
                    if not rows[cand[i]] >> cand[j] & 1:
                        break
                else:
                    return tuple(sorted(cand))
            self._refill(q)


def one_step_drop(g: Graph, u: VertexSet, k: int, adj: np.ndarray | None = None) -> int:
    """Exact Q_k(i) - Q_k(i+1) for removing clique ``u``, via extension counts.

    Alternating sum over the proper subsets of ``u``: coefficient
    (-1)^m (m-1) on the size-m extension counts, plus the constant
    (-1)^k (k-1); exact, unvalidated, whenever ``u`` is complete.  The
    size-(k-1) counts are popcounts of prefix-and-suffix ANDs of u's rows,
    each smaller size one ``_extension_counts`` call.  ``adj``, if given,
    must be the current ``adjacency_matrix(g)``; None builds it for k >= 4.
    The identity suites pin this route against ``identities.delta_q_formula``.
    """
    rows = g.rows
    prefixes, prefix = [], -1     # prefixes[i]: the AND of the rows of u[:i]
    for v in u:
        prefixes.append(prefix)
        prefix &= rows[v]
    suffix, codegrees = -1, 0     # suffix: the AND of the rows after the popped vertex
    for v in reversed(u):
        codegrees += (prefixes.pop() & suffix).bit_count()
        suffix &= rows[v]
    total = (-1) ** k * (k - 1) + (-1) ** (k - 1) * (k - 2) * codegrees
    for m in range(2, k - 1):
        total += (-1) ** m * (m - 1) * sum(_extension_counts(g, np.array(u)[_subset_table(k, m)], m, k, adj))
    return total


def run(cfg: RunConfig) -> ProcessTrace:
    """Execute one trial; identical config and seed give a bit-identical trace."""
    cfg.validate()
    n, k = cfg.n, cfg.k
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))

    g = Graph.new_complete(n)
    panel = _select_panel(rng, n, cfg.resolved_panel_sizes())
    panel_arrays = {m: np.array(sets, dtype=np.int64).reshape(-1, m) for m, sets in panel.items()}
    stride = cfg.resolved_stride()
    ck2 = comb(k, 2)
    e_start = g.edge_count
    q = comb(n, k)
    materialize_at = cfg.resolved_materialize_at()

    adj = adjacency_matrix(g) if k > 3 or q > materialize_at else None
    idx: CliqueIndex | None = None
    sampler: _RejectionSampler | None = None
    switched_at: int | None = None
    if q <= materialize_at:
        idx = CliqueIndex.build(g, k)
        if len(idx) != q:
            raise AssertionError("initial clique count mismatch")
        switched_at = 0
    else:
        sampler = _RejectionSampler(g, k, rng, adj)

    checkpoints: list[Checkpoint] = []

    def record(i: int) -> None:
        panel_r = {m: tuple(panel_r_values(g, arr, k, adj)) for m, arr in panel_arrays.items()}
        checkpoints.append(Checkpoint(i, p_of(i, n, k), g.edge_count, q, panel_r))

    record(0)
    steps = 0
    hit: int | None = None
    max_drop = 0
    max_drop_at: int | None = None

    while True:
        if q == 0:
            hit = steps
            break
        if cfg.stop == "p_floor" and p_of(steps, n, k) <= cfg.p_floor:
            break
        if idx is None and q <= materialize_at:
            idx = CliqueIndex.from_cliques(g, k, enumerate_k_cliques(g, k))
            if len(idx) != q:
                raise AssertionError(
                    f"maintained count {q} disagrees with enumeration {len(idx)} at step {steps}"
                )
            sampler, switched_at = None, steps
            adj = adj if k > 3 else None

        if idx is not None:
            u = idx.sample_uniform(rng)
            drop = idx.apply_removal(g, u).total
        else:
            u = sampler.sample(q)
            drop = one_step_drop(g, u, k, adj)
            g.remove_clique_edges(u)
        if adj is not None:
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
