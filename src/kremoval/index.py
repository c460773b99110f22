"""Incrementally maintained set of all current K_k copies, in numpy arrays.

Every K_k of the companion graph is a row of an int32 ``(Q, k)`` array with
an alive flag, and a CSR map sends each edge key ``a * n + b`` (a < b) to the
slots of the cliques containing that edge.  Removing clique u gathers the
slots in u's C(k, 2) edge buckets: a live clique sharing j vertices with u
appears there C(j, 2) times, so one count gives the deletions by overlap
size, and u itself is the slot seen C(k, 2) times.  Dead slots stay in the
buckets until fewer than half the slots are alive; then the arrays are
rebuilt from the live rows.  A uniform draw retries random slots until one
is alive, fewer than two draws in expectation.

Building costs :func:`build_peak_bytes` for a moment, so the caller (see
``engine``) only materializes an index when the clique count is modest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .graph import Graph, VertexSet, check_count_guard, enumerate_k_cliques


def build_peak_bytes(n: int, k: int, q: int) -> int:
    """Upper estimate of the peak bytes of enumerating q cliques and indexing them.

    Per clique: its enumerated tuple with its list slot (48 + 8k B), up to
    k - 1 int objects of its own for vertex ids above 256 (32 B each), its
    int32 row (4k B) and alive flag, and for each of its C(k, 2) edges an
    int64 key, the int64 positions added to it for the sort, and an int32
    bucket slot, with room for an int32 gather temporary (24 B).  Per pair of
    vertices: the int64 bucket counts and the int32 pointer array (12 B).
    """
    return q * (17 + 44 * k + 24 * comb(k, 2)) + 12 * (n * n + 1)


class ProcessTerminated(RuntimeError):
    """Raised when sampling is requested but no clique remains (Q_k = 0)."""


@dataclass(frozen=True)
class RemovalDelta:
    """Per-step breakdown of deleted cliques by overlap with the removed one.

    ``by_size[m]`` counts deleted cliques whose intersection with the removed
    clique has exactly m vertices, for m in [2, k]; the removed clique itself
    lands in m = k.  ``total`` is the exact one-step drop of Q_k.
    """

    removed: VertexSet
    by_size: dict[int, int]
    total: int

    def __post_init__(self):
        if sum(self.by_size.values()) != self.total:
            raise AssertionError("removal delta does not conserve the total drop")


class CliqueIndex:
    def __init__(self, k: int, n: int, rows: np.ndarray):
        self.k = k
        self.n = n
        self._ck2 = comb(k, 2)
        self._pairs = np.array(list(combinations(range(k), 2)), dtype=np.intp).T
        # a clique meeting the removed one in j vertices shares C(j, 2) edges with it
        self._overlaps = [(j, comb(j, 2)) for j in range(2, k + 1)]
        self._reset(rows)

    def _reset(self, rows: np.ndarray) -> None:
        """Index the clique rows ``rows`` (int32, each strictly increasing)."""
        self._ptr = self._slots = None    # free the old buckets first
        span = len(rows) * self._ck2
        if span >= 2**31 or self.n**2 * span >= 2**63:
            raise ValueError(f"{len(rows)} cliques on {self.n} vertices overflow the edge buckets")
        keys = (rows[:, self._pairs[0]] * np.int64(self.n) + rows[:, self._pairs[1]]).ravel()
        ptr = np.zeros(self.n * self.n + 1, dtype=np.int32)
        ptr[1:] = np.bincount(keys, minlength=self.n * self.n)
        np.cumsum(ptr, out=ptr)
        # sorted key * span + position is the stable argsort of the keys, several times faster
        keys *= span
        keys += np.arange(span)
        keys.sort()
        keys %= span
        slots = keys.astype(np.int32)
        del keys
        slots //= self._ck2
        self._rows = rows
        self._alive = np.ones(len(rows), dtype=bool)
        self._count = len(rows)
        self._ptr, self._slots = ptr, slots

    @classmethod
    def build(cls, g: Graph, k: int) -> "CliqueIndex":
        """Index every current K_k of ``g`` by full enumeration."""
        check_count_guard(g.n, k)
        return cls.from_cliques(g, k, enumerate_k_cliques(g, k))

    @classmethod
    def from_cliques(cls, g: Graph, k: int, cliques: list[VertexSet]) -> "CliqueIndex":
        """Index ``cliques``, strictly increasing k-tuples that are all the K_k of ``g``."""
        rows = np.fromiter(chain.from_iterable(cliques), dtype=np.int32, count=len(cliques) * k)
        return cls(k, g.n, rows.reshape(len(cliques), k))

    def __len__(self) -> int:
        return self._count

    @property
    def cliques(self) -> list[VertexSet]:
        """The current cliques, a fresh list of tuples in slot order."""
        return [tuple(r) for r in self._rows[self._alive].tolist()]

    def sample_uniform(self, rng) -> VertexSet:
        """A uniformly random current clique (probability exactly 1/Q_k)."""
        if self._count == 0:
            raise ProcessTerminated("no K_k remains; the process has terminated")
        alive = self._alive
        while True:
            slot = int(rng.integers(len(alive)))
            if alive[slot]:
                return tuple(self._rows[slot].tolist())

    def apply_removal(self, g: Graph, u) -> RemovalDelta:
        """Remove clique ``u``'s edges from ``g`` and purge invalidated cliques.

        A clique dies iff it shares at least one edge (two vertices) with
        ``u``.  Returns the exact per-overlap-size counts of the deletions;
        ``ValueError`` if ``u``, in any order, is not a current clique.
        """
        u = tuple(u)
        k, n = self.k, self.n
        if len(u) != k or min(u) < 0 or max(u) >= n:
            raise ValueError(f"{u} is not a {k}-set of vertices in [0, {n})")
        ptr, keys = self._ptr, [a * n + b if a < b else b * n + a for a, b in combinations(u, 2)]
        hit = np.concatenate([self._slots[ptr[key]:ptr[key + 1]] for key in keys])
        # shared[slot]: edges a live clique shares with u; per_shared[c]: cliques sharing c
        shared = Counter(hit[self._alive[hit]].tolist())
        per_shared = Counter(shared.values())
        if per_shared[self._ck2] != 1:   # u alone shares all its edges
            raise ValueError(f"{u} is not a current clique in the index")
        by_size = {j: per_shared[c] for j, c in self._overlaps if per_shared[c]}

        g.remove_clique_edges(u)
        self._alive[list(shared)] = False
        self._count -= len(shared)
        if 2 * self._count < len(self._alive):
            self._reset(self._rows[self._alive])
        return RemovalDelta(removed=u, by_size=by_size, total=len(shared))

    def check_against(self, g: Graph) -> None:
        """Assert set equality with a fresh enumeration of ``g`` (tests only)."""
        fresh = set(enumerate_k_cliques(g, self.k))
        listed = self.cliques
        mine = set(listed)
        assert len(listed) == len(mine) == self._count, "duplicate clique slots"
        assert mine == fresh, (
            f"index diverged: {len(mine - fresh)} stale, {len(fresh - mine)} missing"
        )
        # every slot sits in the bucket of each of its C(k, 2) edges, and nowhere else
        keys = np.repeat(np.arange(self.n * self.n), np.diff(self._ptr))
        a, b = np.divmod(keys, self.n)
        rows = self._rows[self._slots]
        assert ((rows == a[:, None]).any(axis=1) & (rows == b[:, None]).any(axis=1)).all(), (
            "edge bucket lists a clique without that edge")
        per_slot = np.bincount(self._slots, minlength=len(self._rows))
        assert (per_slot == self._ck2).all(), "clique missing from an edge bucket"
