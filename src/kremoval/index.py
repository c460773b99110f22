"""Incrementally maintained set of all current K_k copies.

The index holds every K_k of its companion graph in a dense array, which
makes uniform sampling a single array draw, plus an edge-keyed reverse map so
that removing one clique's edges invalidates exactly the cliques sharing an
edge with it.  Deletion uses swap-remove on the dense array with position
fix-up; per-step deduplication of doomed slots uses a visit stamp so a clique
hit through several edge buckets is counted once.

Memory is O(Q_k * k^2), about :func:`bytes_per_clique` bytes per clique, so
the caller (see ``engine``) only materializes an index when the current
clique count is modest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .graph import Graph, VertexSet, as_vertex_set, check_count_guard, enumerate_k_cliques


def bytes_per_clique(k: int) -> int:
    """Upper estimate of the memory one clique costs a built ``CliqueIndex``.

    It covers the clique's tuple in the enumeration, its slots in the dense
    and stamp lists, its slot int, its ``position`` entry and one entry in
    each of its C(k, 2) edge buckets.  tracemalloc measured, in bytes per
    clique: 275-450 (k=3), 347-607 (k=4) and 551-1016 (k=5) building on K_n,
    and 434-618, 553-709 and 766-928 on the sparser graphs met at the
    strategy switch.  Dict and set tables grow in powers of two, so the
    figure moves with the clique count; the estimate stays above all of them.
    """
    return 400 + 80 * comb(k, 2)


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


@dataclass
class CliqueIndex:
    k: int
    n: int
    cliques: list[VertexSet] = field(default_factory=list)
    position: dict[VertexSet, int] = field(default_factory=dict)
    edge_to_cliques: dict[int, set[int]] = field(default_factory=dict)
    _stamps: list[int] = field(default_factory=list, repr=False)
    _stamp_clock: int = field(default=0, repr=False)

    @classmethod
    def build(cls, g: Graph, k: int) -> "CliqueIndex":
        """Index every current K_k of ``g`` by full enumeration."""
        check_count_guard(g.n, k)
        return cls.from_cliques(g, k, enumerate_k_cliques(g, k))

    @classmethod
    def from_cliques(cls, g: Graph, k: int, cliques: list[VertexSet]) -> "CliqueIndex":
        idx = cls(k=k, n=g.n)
        idx.cliques = list(cliques)
        idx._stamps = [0] * len(idx.cliques)
        for slot, c in enumerate(idx.cliques):
            idx.position[c] = slot
            for key in idx._edge_keys(c):
                idx.edge_to_cliques.setdefault(key, set()).add(slot)
        return idx

    def __len__(self) -> int:
        return len(self.cliques)

    def _edge_keys(self, c: VertexSet):
        n = self.n
        for i, a in enumerate(c):
            for b in c[i + 1:]:
                yield a * n + b

    def __contains__(self, u) -> bool:
        return as_vertex_set(u) in self.position

    def sample_uniform(self, rng) -> VertexSet:
        """A uniformly random current clique (probability exactly 1/Q_k)."""
        q = len(self.cliques)
        if q == 0:
            raise ProcessTerminated("no K_k remains; the process has terminated")
        return self.cliques[int(rng.integers(q))]

    def apply_removal(self, g: Graph, u) -> RemovalDelta:
        """Remove clique ``u``'s edges from ``g`` and purge invalidated cliques.

        A clique dies iff it shares at least one edge (two vertices) with
        ``u``.  Returns the exact per-overlap-size counts of the deletions.
        """
        u = as_vertex_set(u)
        if u not in self.position:
            raise ValueError(f"{u} is not a current clique in the index")

        self._stamp_clock += 1
        clock = self._stamp_clock
        doomed: list[VertexSet] = []
        for key in self._edge_keys(u):
            for slot in self.edge_to_cliques.get(key, ()):
                if self._stamps[slot] != clock:
                    self._stamps[slot] = clock
                    doomed.append(self.cliques[slot])

        u_mask = 0
        for v in u:
            u_mask |= 1 << v
        by_size: dict[int, int] = {}
        for c in doomed:
            overlap = 0
            for v in c:
                overlap += u_mask >> v & 1
            by_size[overlap] = by_size.get(overlap, 0) + 1

        g.remove_clique_edges(u)
        for c in doomed:
            self._delete(c)
        return RemovalDelta(removed=u, by_size=by_size, total=len(doomed))

    def _delete(self, c: VertexSet) -> None:
        slot = self.position.pop(c)
        for key in self._edge_keys(c):
            bucket = self.edge_to_cliques[key]
            bucket.discard(slot)
            if not bucket:
                del self.edge_to_cliques[key]
        last = len(self.cliques) - 1
        if slot != last:
            moved = self.cliques[last]
            self.cliques[slot] = moved
            self._stamps[slot] = self._stamps[last]
            self.position[moved] = slot
            for key in self._edge_keys(moved):
                bucket = self.edge_to_cliques[key]
                bucket.discard(last)
                bucket.add(slot)
        self.cliques.pop()
        self._stamps.pop()

    def check_against(self, g: Graph) -> None:
        """Assert set equality with a fresh enumeration of ``g`` (tests only)."""
        fresh = set(enumerate_k_cliques(g, self.k))
        mine = set(self.cliques)
        assert len(self.cliques) == len(mine), "duplicate clique slots"
        assert mine == fresh, (
            f"index diverged: {len(mine - fresh)} stale, {len(fresh - mine)} missing"
        )
        for c, slot in self.position.items():
            assert self.cliques[slot] == c
        for key, bucket in self.edge_to_cliques.items():
            a, b = divmod(key, self.n)
            for slot in bucket:
                c = self.cliques[slot]
                assert a in c and b in c, "edge bucket lists a clique without that edge"
