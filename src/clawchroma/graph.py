"""Immutable simple undirected graphs with bitset adjacency.

Vertices are dense 0-based ids; 1-based external formats are shifted at the
I/O boundary. Each vertex stores its neighbor set as an integer bitmask, so
membership, intersection and popcount are single word-parallel operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .bitops import iter_bits
from .errors import ScaleExceededError, SelfLoopError, VertexOutOfRangeError

MAX_VERTICES = 1024


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction and safe to share across threads. Build
    instances through build_graph / from_edge_mask / the generators rather
    than calling the constructor with hand-rolled masks.
    """

    __slots__ = ("n", "adj", "edge_count")

    def __init__(self, n: int, adj: tuple[int, ...], edge_count: int | None = None):
        self.n = n
        self.adj = adj
        if edge_count is None:
            edge_count = sum(m.bit_count() for m in adj) // 2
        self.edge_count = edge_count

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        return tuple(iter_bits(self.adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] & (-1 << (u + 1))):
                yield (u, v)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def check_vertex_count(n: int) -> None:
    """Raise ScaleExceededError unless 0 <= n <= MAX_VERTICES."""
    if n < 0 or n > MAX_VERTICES:
        raise ScaleExceededError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges collapse silently; self-loops and out-of-range endpoints
    are hard errors.
    """
    check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_edge_mask(n: int, mask: int) -> Graph:
    """Decode a graph from its edge bitmask.

    Bit p of mask is the p-th vertex pair in lexicographic order
    (0,1), (0,2), ..., (0,n-1), (1,2), ... This is the encoding used by the
    exhaustive enumeration sweeps.
    """
    adj = [0] * n
    p = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> p & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            p += 1
    return Graph(n, tuple(adj))


def edge_mask_of(g: Graph) -> int:
    """Inverse of from_edge_mask."""
    mask = 0
    p = 0
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i] >> j & 1:
                mask |= 1 << p
            p += 1
    return mask


def degree_profile(g: Graph) -> tuple[tuple[int, ...], int]:
    """Per-vertex degrees and the maximum degree (0 for the empty graph)."""
    degs = tuple(m.bit_count() for m in g.adj)
    return degs, max(degs, default=0)
