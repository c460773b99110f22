"""Dynamic simple graph with bit-packed adjacency and exact clique counting.

Vertices are dense 0-based integers in ``[0, n)``.  Each adjacency row is an
arbitrary-precision Python integer used as a bitset, so neighborhood
intersection is a single word-wise AND and cardinalities come from
``int.bit_count()``.  Everything in this module is computed by explicit
enumeration over bitsets with exact integer arithmetic; it is the slow,
trustworthy layer that the incremental structures are checked against.

Vertex sets are plain sorted tuples of ints.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb

VertexSet = tuple[int, ...]

COUNT_GUARD = 2**63  # initial clique counts must stay below this


def as_vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Canonicalize to a strictly increasing tuple, rejecting duplicates."""
    vs = tuple(sorted(int(v) for v in vertices))
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a} in vertex set")
    return vs


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """Vertex ids of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Simple graph on [n) with one int bitset per vertex.

    Invariants: rows are symmetric and irreflexive, and ``edge_count`` is half
    the total popcount of all rows (checked by :meth:`check`).
    """

    __slots__ = ("n", "rows", "edge_count")

    def __init__(self, n: int, rows: list[int], edge_count: int):
        self.n = n
        self.rows = rows
        self.edge_count = edge_count

    @classmethod
    def new_complete(cls, n: int) -> "Graph":
        """The complete graph K_n; the process always starts here."""
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        full = (1 << n) - 1
        rows = [full ^ (1 << u) for u in range(n)]
        return cls(n, rows, n * (n - 1) // 2)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        return cls(n, [0] * n, 0)

    def copy(self) -> "Graph":
        return Graph(self.n, list(self.rows), self.edge_count)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("no loops in a simple graph")
        if not self.has_edge(u, v):
            self.rows[u] |= 1 << v
            self.rows[v] |= 1 << u
            self.edge_count += 1

    def remove_edge(self, u: int, v: int) -> None:
        if self.has_edge(u, v):
            self.rows[u] &= ~(1 << v)
            self.rows[v] &= ~(1 << u)
            self.edge_count -= 1

    def is_complete(self, s: Iterable[int]) -> bool:
        """True iff every pair inside ``s`` is adjacent (vacuous for |s|=1)."""
        vs = as_vertex_set(s)
        if not vs:
            raise ValueError("empty vertex set")
        self._check_vertex(vs[-1])
        m = mask_of(vs)
        return all((self.rows[v] | 1 << v) & m == m for v in vs)

    def remove_clique_edges(self, u: Iterable[int]) -> None:
        """Delete every edge inside ``u``; ``u`` must currently be complete.

        ``u`` may come in any order.  An incomplete ``u``, a repeated vertex or
        one outside [0, n) signals a caller bug and is rejected, never applied.
        """
        vs = tuple(map(int, u))
        n, rows = self.n, self.rows
        if len(vs) < 2 or min(vs) < 0 or max(vs) >= n:
            raise ValueError(f"{vs} is not a set of at least 2 vertices in [0, {n})")
        m = 0
        for v in vs:
            m |= 1 << v
        if m.bit_count() != len(vs):
            raise ValueError(f"{vs} repeats a vertex")
        for v in vs:
            if (rows[v] | 1 << v) & m != m:
                raise ValueError(f"vertex set {vs} is not a clique in the current graph")
        for v in vs:
            rows[v] &= ~m
        self.edge_count -= len(vs) * (len(vs) - 1) // 2

    def common_neighborhood_mask(self, u: Iterable[int]) -> int:
        """Bitset of vertices adjacent to every member of ``u``, minus ``u``."""
        vs = as_vertex_set(u)
        if not vs:
            raise ValueError("empty vertex set")
        self._check_vertex(vs[-1])
        m = self.rows[vs[0]]
        for v in vs[1:]:
            m &= self.rows[v]
        return m & ~mask_of(vs)

    def count_r(self, u: Iterable[int], k: int) -> int:
        """Number of complete (k-m)-sets inside the common neighborhood of ``u``.

        For ``|u| = m <= k-1`` this is the number of ways to extend ``u`` to a
        K_k assuming ``u`` itself is complete; for ``m = k-1`` it degenerates
        to the codegree.  For ``|u| = k`` it is the 0/1 indicator that ``u``
        induces a complete subgraph.  ``u`` itself is never required to be
        complete.  Exhaustive within the neighborhood; no caching.
        """
        vs = as_vertex_set(u)
        m = len(vs)
        if k < 3:
            raise ValueError(f"clique order k must be >= 3, got {k}")
        if not 2 <= m <= k:
            raise ValueError(f"|u| must be in [2, k={k}], got {m}")
        if m == k:
            return 1 if self.is_complete(vs) else 0
        mask = self.common_neighborhood_mask(vs)
        return count_cliques_in_mask(self, mask, k - m)

    def dump_edge_list(self) -> str:
        """Edge list text, one ``u v`` pair per line, lexicographically sorted."""
        lines = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)  # only v > u
            for v in bits_of(row):
                lines.append(f"{u} {v}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_edge_list(cls, n: int, text: str) -> "Graph":
        g = cls.empty(n)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            g.add_edge(int(u), int(v))
        return g

    def check(self) -> None:
        """Validate structural invariants; raises AssertionError on corruption."""
        total = 0
        full = (1 << self.n) - 1
        for u in range(self.n):
            row = self.rows[u]
            assert row & ~full == 0, f"row {u} has bits beyond n"
            assert row >> u & 1 == 0, f"row {u} has a loop"
            total += row.bit_count()
        assert total % 2 == 0
        assert self.edge_count == total // 2, "edge_count out of sync"
        for u in range(self.n):
            for v in bits_of(self.rows[u]):
                assert self.rows[v] >> u & 1, f"asymmetric edge ({u},{v})"

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def count_cliques_in_mask(g: Graph, mask: int, size: int) -> int:
    """Number of complete ``size``-subsets of the vertices in ``mask``."""
    if size < 0:
        raise ValueError("size must be nonnegative")
    if size == 0:
        return 1
    if size == 1:
        return mask.bit_count()
    if size == 2:
        # every adjacent pair inside mask is seen from both endpoints
        total = 0
        rows = g.rows
        m = mask
        while m:
            low = m & -m
            m ^= low
            total += (rows[low.bit_length() - 1] & mask).bit_count()
        return total // 2
    if mask.bit_count() < size:
        return 0
    total = 0
    rows = g.rows
    m = mask
    while m:
        low = m & -m
        m ^= low
        # vertices above the pivot that are adjacent to it
        total += count_cliques_in_mask(g, rows[low.bit_length() - 1] & m, size - 1)
    return total


def enumerate_cliques_in_mask(g: Graph, mask: int, size: int) -> list[VertexSet]:
    """All complete ``size``-subsets of ``mask``, lexicographic."""
    out: list[VertexSet] = []
    _enumerate_into(g.rows, (), mask, size, out)
    return out


def _enumerate_into(rows: list[int], prefix: VertexSet, cand: int, left: int,
                    out: list[VertexSet]) -> None:
    """Append ``prefix`` extended by every complete ``left``-subset of ``cand``.

    A module-level function, not a closure: a recursive closure refers to
    itself through its cell, and that cycle would keep ``out`` alive until a
    full garbage collection.
    """
    if left == 0:
        out.append(prefix)
        return
    if cand.bit_count() < left:
        return
    m = cand
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        _enumerate_into(rows, prefix + (v,), rows[v] & m, left - 1, out)


def enumerate_k_cliques(g: Graph, k: int) -> list[VertexSet]:
    """Every K_k copy exactly once, lexicographic, by ordered backtracking."""
    if not 3 <= k <= g.n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={g.n}")
    return enumerate_cliques_in_mask(g, (1 << g.n) - 1, k)


def count_k_cliques(g: Graph, k: int) -> int:
    """|K_k(G)| without materializing the cliques."""
    if not 3 <= k <= g.n:
        raise ValueError(f"need 3 <= k <= n, got k={k}, n={g.n}")
    return count_cliques_in_mask(g, (1 << g.n) - 1, k)


def check_count_guard(n: int, k: int) -> None:
    """Reject (n, k) whose initial clique count cannot be held in 64 bits."""
    if comb(n, k) >= COUNT_GUARD:
        raise ValueError(
            f"C({n},{k}) = {comb(n, k)} exceeds the 64-bit count guard; "
            "this scale is far outside the supported envelope"
        )
