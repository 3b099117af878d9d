"""Graph families for the verification sweeps.

Wheels and blown-up odd cycles are the two tightness families; line graphs
supply claw-free inputs for the component-shape sweeps; the seeded random
and exhaustive generators drive the stress harness. Every generator is
deterministic given its parameters, with randomness drawn from an explicit
splitmix64 stream so sampled suites reproduce bit-for-bit.

splitmix64 is a counter: the t-th value after state s is mix(s + t*gamma),
so any value of a draw can be read at the cost of one mix. The random
sweeps use that to build a draw vertex by vertex and drop it at its first
claw (random_claw_free_graph). Claw-freeness is hereditary, so the early
stop never changes the verdict, and the graphs kept are exactly those of
random_graph on the same stream, which is advanced by the same amount.
random_in_class_graph then searches only the kept draws for K5-P3.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from . import _kernels as K
from .errors import ParamRangeError, ScaleExceededError
from .graph import MAX_VERTICES, Graph, build_graph, from_edge_mask

ENUMERATION_MAX_VERTICES = 7

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The splitmix64 pseudo-random stream (Steele-Lea-Flood finalizer)."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _M64
        z = ((z ^ (z >> 27)) * _MIX2) & _M64
        return z ^ (z >> 31)

    def skip(self, count: int) -> int:
        """Advance past the next count values; return the state before.

        The t-th skipped value (t = 1..count) is the mix of
        (returned state + t * gamma) mod 2^64.
        """
        base = self._state
        self._state = (base + count * _GAMMA) & _M64
        return base

    def next_below(self, bound: int) -> int:
        return self.next_u64() % bound

    def next_unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def wheel(k: int) -> Graph:
    """Hub 0 joined to a k-cycle rim 1..k; k+1 vertices.

    wheel(5) is the 6-vertex wheel: hub plus a 5-cycle.
    """
    if k < 3:
        raise ParamRangeError(f"wheel rim size {k} < 3")
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    return build_graph(k + 1, edges)


def blown_up_odd_cycle(n: int, m: int) -> Graph:
    """Odd cycle of length 2n+1 with every other vertex blown up to K_m.

    Positions 1, 3, ..., 2n-1 of the cycle become m-cliques, each completely
    joined to both neighboring positions; the remaining n+1 positions stay
    single vertices. Vertex count is (2n+1) + (m-1)*n.
    """
    if n < 2:
        raise ParamRangeError(f"half-length {n} < 2")
    if m < 1:
        raise ParamRangeError(f"blow-up size {m} < 1")
    length = 2 * n + 1
    blocks: list[list[int]] = []
    nxt = 0
    for pos in range(1, length + 1):
        size = m if pos % 2 == 1 and pos < length else 1
        blocks.append(list(range(nxt, nxt + size)))
        nxt += size
    edges = []
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                edges.append((u, v))
    for pos in range(length):
        for u in blocks[pos]:
            for v in blocks[(pos + 1) % length]:
                edges.append((u, v))
    return build_graph(nxt, edges)


def line_graph(h: Graph) -> Graph:
    """Line graph of a simple graph: vertices are edges of h, adjacent when
    they share an endpoint. Always claw-free."""
    edges_h = list(h.edges())
    n = len(edges_h)
    out = []
    for i in range(n):
        a, b = edges_h[i]
        for j in range(i + 1, n):
            c, d = edges_h[j]
            if a == c or a == d or b == c or b == d:
                out.append((i, j))
    return build_graph(n, out)


def _edge_threshold(n: int, edge_prob: float) -> int:
    """Validate a draw's arguments; a pair is an edge iff its value is below
    the returned threshold."""
    if n < 0:
        raise ParamRangeError(f"vertex count {n} < 0")
    if n > MAX_VERTICES:
        raise ScaleExceededError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ParamRangeError(f"edge probability {edge_prob} outside [0, 1]")
    return min(int(edge_prob * 2.0**64), 1 << 64)


def random_graph(n: int, edge_prob: float, stream: SplitMix64) -> Graph:
    """One Erdos-Renyi draw; consumes exactly n*(n-1)/2 stream values.

    Pair (i, j), i < j, takes the values in lexicographic pair order.
    """
    threshold = _edge_threshold(n, edge_prob)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if stream.next_u64() < threshold:
                edges.append((i, j))
    return build_graph(n, edges)


def random_claw_free_graph(
    n: int, edge_prob: float, stream: SplitMix64
) -> Graph | None:
    """random_graph(n, edge_prob, stream) if that draw is claw-free, else None.

    Consumes exactly the n*(n-1)/2 stream values of random_graph either way.
    Vertex k is added with its edges to 0..k-1, read from the stream by pair
    index, and only the claws through k are looked for: k as the center
    (three pairwise non-adjacent neighbors) or as a leaf (a neighbor u with
    two non-adjacent neighbors outside N[k]). The draw is dropped at the
    first claw, before the values of the later vertices are mixed.
    """
    threshold = _edge_threshold(n, edge_prob)
    base = stream.skip(n * (n - 1) // 2)
    # pair (i, k) takes value t = i*(2n-i-1)/2 - i + k, the mix of base + t*gamma
    rows = [
        (base + (i * (2 * n - i - 1) // 2 - i) * _GAMMA) & _M64 for i in range(n)
    ]
    adj = [0] * n
    for k in range(1, n):
        kg = k * _GAMMA
        nk = 0
        for i in range(k):
            z = (rows[i] + kg) & _M64
            z = ((z ^ (z >> 30)) * _MIX1) & _M64
            z = ((z ^ (z >> 27)) * _MIX2) & _M64
            if z ^ (z >> 31) < threshold:
                nk |= 1 << i
        if not nk:
            continue
        kbit = 1 << k
        adj[k] = nk
        m = nk
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            adj[u] |= kbit
            # k as a leaf of a claw centered at u
            r = adj[u] & ~nk & ~kbit
            while r:
                bx = r & -r
                r ^= bx
                if r & ~adj[bx.bit_length() - 1]:
                    return None
            # k as the center, with u as its least leaf
            mb = nk & ~adj[u] & (-1 << (u + 1))
            while mb:
                bb = mb & -mb
                mb ^= bb
                if mb & ~adj[bb.bit_length() - 1]:
                    return None
    return Graph(n, tuple(adj))


def random_in_class_graph(
    n: int, edge_prob: float, stream: SplitMix64
) -> Graph | None:
    """random_graph(n, edge_prob, stream) if that draw is in the class, else None."""
    g = random_claw_free_graph(n, edge_prob, stream)
    if g is None or K.find_k5_minus_p3(g.adj, n) is not None:
        return None
    return g


def random_in_class(
    n: int, edge_prob: float, seed: int, max_tries: int = 10000
) -> Graph | None:
    """First seeded random graph that avoids both forbidden subgraphs.

    Returns None when max_tries draws all fail. Same arguments, same graph,
    bit-for-bit.
    """
    if max_tries < 1:
        raise ParamRangeError(f"max_tries {max_tries} < 1")
    stream = SplitMix64(seed)
    for _ in range(max_tries):
        g = random_in_class_graph(n, edge_prob, stream)
        if g is not None:
            return g
    return None


def enumerate_labeled(
    n: int, predicate: Callable[[Graph], bool] | None = None
) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, in ascending edge-mask order.

    The full sweep has 2^(n*(n-1)/2) graphs, so n is capped at 7.
    """
    if n < 0:
        raise ParamRangeError(f"vertex count {n} < 0")
    if n > ENUMERATION_MAX_VERTICES:
        raise ScaleExceededError(
            f"exhaustive enumeration capped at {ENUMERATION_MAX_VERTICES} vertices"
        )
    total = 1 << (n * (n - 1) // 2)
    for mask in range(total):
        g = from_edge_mask(n, mask)
        if predicate is None or predicate(g):
            yield g


def seeded_line_graphs(samples: int, seed: int) -> Iterator[Graph]:
    """Line graphs of seeded random source graphs (2..8 vertices).

    Sources have at most 28 edges, so every yielded graph has at most 28
    vertices. Used by the component-shape property sweeps.
    """
    if samples < 0:
        raise ParamRangeError(f"sample count {samples} < 0")
    stream = SplitMix64(seed)
    for _ in range(samples):
        n_src = 2 + stream.next_below(7)
        p = stream.next_unit()
        yield line_graph(random_graph(n_src, p, stream))
