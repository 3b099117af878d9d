"""Graph families for the verification sweeps.

Wheels and blown-up odd cycles are the two tightness families; line graphs
are claw-free inputs; the seeded random draws drive the random sweep and
`gen random` (the exhaustive sweep grows its graphs by in_class_extensions
instead). Every generator is deterministic given its parameters, with
randomness drawn from an explicit splitmix64 stream so sampled suites
reproduce bit-for-bit.

splitmix64 is a counter: the t-th value after state s is mix(s + t*gamma),
so any value of a draw can be computed without the ones before it. The
random sweeps use that to build a draw vertex by vertex and drop it at its
first claw (random_claw_free_graph). Claw-freeness is hereditary, so the
early stop never changes the verdict, and the graphs kept are exactly those
of random_graph on the same stream, which is advanced by the same amount.
random_in_class_graph then decides K5-P3 on the kept draws only, with a
yes/no rule that needs claw-freeness (claw_free_has_k5_minus_p3), not the
least-witness search.

Each claw has one newest vertex k, its center or one of its leaves, so
looking only for the claws through k finds the first claw. Two rules look
for them, chosen by the draw's edge probability p:

  p < 1/2   from N = N(k), by K.claw_through, before k is added (the
            exhaustive sweep's extensions hold the same rule as a truth
            table over every N, K.claw_table).
  p >= 1/2  from the complement side, C = {0..k-1} - N, keeping a list of
            the prefix's independent triples. k is a leaf iff some
            non-adjacent pair a < b in C has a common neighbor in N, which
            is the center; when a pair has none, {a, b, k} is an
            independent triple and is stored. k is the center iff a stored
            triple lies inside N: the leaves are an independent triple, and
            when its newest vertex z < k was added, the other two were a
            non-adjacent pair of z's C with no common neighbor in N(z),
            since the draw was not dropped at z: the triple was stored.

A step of the complement side costs about |C|^2 plus the number of stored
triples, both small in a dense draw; in a sparse draw the triples blow up,
which is why claw_through keeps p < 1/2. The complement side keeps each
vertex's non-neighbors, not its neighbors, so a step touches |C| masks,
and the adjacency is built once, from them, when the draw is kept.

random_claw_free_graph mixes many values with a few big-int operations. The
values of pairs (i, k), i < k, for a block of vertices k0 <= k < k1 are held
in one int, one 128-bit lane per pair in column-major order: pair (i, k) is
lane k(k-1)/2 + i, counted from the block's first lane, so vertex k's edges
to 0..k-1 come out as one contiguous bit field. Pair (i, k) is value
T(i, k) = i(2n-i-1)/2 - i + k of the draw, so its lane starts as
base + T*gamma mod 2^64: base times the constant with 1 in every lane, plus
a per-(n, block) constant with T*gamma (below 2^84) in every lane, masked
to 64 bits. Each mixing step then runs on all lanes at once. A lane holds
64 bits and the multipliers have 64, so a product stays below 2^128 and
never carries into the next lane; every step masks the lanes back to their
low 64 bits, which also clears the bits that a right shift brings down from
the lane above. A value is an edge iff it is below the threshold, that is,
iff adding 2^64 - threshold to its lane does not carry into bit 64. Those
carry bits are read out in one pass through to_bytes, a byte slice,
translate and int(_, 2).

Blocks are mixed only when the draw reaches their first vertex, since
dropped draws stop early (at a median of vertex 7 in the random sweep). The
first block is vertices 1..7; later ones double, capped at 1024 lanes but at
least one vertex. The block constants are built from bytes on first use and
kept in small bounded caches, which stay under 2 MB even after a
1024-vertex draw.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from . import _kernels as K
from .errors import ParamRangeError
from .graph import MAX_VERTICES, Graph, build_graph, check_vertex_count

# draws random_in_class makes before it gives up
RANDOM_IN_CLASS_TRIES = 10000

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# lane layout of random_claw_free_graph; see the module docstring
_LANE_BYTES = 16
_FIRST_BLOCK_END = 8
_MAX_BLOCK_LANES = 1024
_CACHED_BLOCKS = 32
_CARRY_TO_EDGE = bytes.maketrans(b"\x00\x01", b"10")


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
    check_vertex_count(k + 1)
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
    check_vertex_count(2 * n + 1 + (m - 1) * n)
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
    check_vertex_count(h.edge_count)
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
    check_vertex_count(n)
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


@lru_cache(maxsize=1)
def _block_bounds() -> tuple[int, ...]:
    """Column blocks of a draw: vertices 1..7 first, then doubling, each block
    capped at _MAX_BLOCK_LANES lanes (but holding at least one column)."""
    bounds = [1, _FIRST_BLOCK_END]
    while bounds[-1] < MAX_VERTICES:
        k0 = bounds[-1]
        # largest k1 with k1(k1-1)/2 - k0(k0-1)/2 <= _MAX_BLOCK_LANES
        capped = (isqrt(4 * k0 * (k0 - 1) + 8 * _MAX_BLOCK_LANES + 1) + 1) // 2
        bounds.append(max(k0 + 1, min(2 * k0, capped)))
    return tuple(bounds)


@lru_cache(maxsize=_CACHED_BLOCKS)
def _lane_masks(lanes: int) -> tuple[int, int]:
    """(one, low) for a block of lanes: 1 and 2^64-1 in every lane."""
    one = int.from_bytes((b"\x01" + bytes(_LANE_BYTES - 1)) * lanes, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(_LANE_BYTES - 8)) * lanes, "little")
    return one, low


@lru_cache(maxsize=_CACHED_BLOCKS)
def _row_offsets(n: int) -> bytes:
    """Lane bytes of T(i, 0) = i(2n-i-1)/2 - i, i < n, for an n-vertex draw."""
    return b"".join(
        (i * (2 * n - i - 1) // 2 - i).to_bytes(_LANE_BYTES, "little")
        for i in range(n)
    )


@lru_cache(maxsize=_CACHED_BLOCKS)
def _block_steps(n: int, k0: int, k1: int) -> int:
    """T(i, k) * gamma in lane k(k-1)/2 + i - k0(k0-1)/2, for the pairs
    i < k, k0 <= k < k1, of an n-vertex draw."""
    rows = _row_offsets(n)
    cols = range(k0, k1)
    t = int.from_bytes(b"".join(rows[: _LANE_BYTES * k] for k in cols), "little")
    t += int.from_bytes(
        b"".join(k.to_bytes(_LANE_BYTES, "little") * k for k in cols), "little"
    )
    # T < 2^20, so each lane's product stays below 2^84
    return _GAMMA * t


def _block_edges(n: int, k0: int, k1: int, base: int, above: int) -> int:
    """Edge bits of columns k0..k1-1 of a draw, lane order; see the module
    docstring."""
    lanes = (k1 * (k1 - 1) - k0 * (k0 - 1)) // 2
    one, low = _lane_masks(lanes)
    z = (base * one + _block_steps(n, k0, k1)) & low
    z = ((z ^ (z >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    z = ((z ^ (z >> 31)) & low) + above * one
    # bit 64 of each lane is its carry; big-endian, lane j's is in byte 7 of
    # its 16, and the top lane comes first, as int(_, 2) reads it
    carries = z.to_bytes(_LANE_BYTES * lanes, "big")[7::_LANE_BYTES]
    return int(carries.translate(_CARRY_TO_EDGE), 2)


def _sparse_claw_free(n: int, base: int, above: int) -> list[int] | None:
    """Adjacency of the draw, or None at its first claw, found from N(k)."""
    claw_through = K.claw_through
    adj = [0] * n
    bounds = _block_bounds()
    bits = block = 0
    for k in range(1, n):
        if k == bounds[block]:
            block += 1
            bits = _block_edges(n, k, min(bounds[block], n), base, above)
        nk = bits & ((1 << k) - 1)
        bits >>= k
        if not nk:
            continue
        if claw_through(adj, nk):
            return None
        kbit = 1 << k
        adj[k] = nk
        m = nk
        while m:
            b = m & -m
            adj[b.bit_length() - 1] |= kbit
            m ^= b
    return adj


def _dense_claw_free(n: int, base: int, above: int) -> list[int] | None:
    """Adjacency of the draw, or None at its first claw, found from the
    complement: co[v] holds v's non-neighbors so far, and triples the
    independent triples of the prefix (see the module docstring)."""
    co = [0] * n
    triples: list[int] = []
    bounds = _block_bounds()
    bits = block = 0
    for k in range(1, n):
        if k == bounds[block]:
            block += 1
            bits = _block_edges(n, k, min(bounds[block], n), base, above)
        nk = bits & ((1 << k) - 1)
        bits >>= k
        kbit = 1 << k
        c = (kbit - 1) ^ nk
        co[k] = c
        # k as the center: a stored triple inside N(k)
        for t in triples:
            if not t & c:
                return None
        # k as a leaf, with a non-adjacent pair a < b of C as the others
        m = c
        while m:
            ba = m & -m
            a = ba.bit_length() - 1
            m ^= ba
            co[a] |= kbit
            mb = m & co[a]
            while mb:
                bb = mb & -mb
                mb ^= bb
                if nk & ~(co[a] | co[bb.bit_length() - 1]):
                    return None
                triples.append(ba | bb | kbit)
    full = (1 << n) - 1
    return [full ^ co[v] ^ (1 << v) for v in range(n)]


def random_claw_free_graph(
    n: int, edge_prob: float, stream: SplitMix64
) -> Graph | None:
    """random_graph(n, edge_prob, stream) if that draw is claw-free, else None.

    Consumes exactly the n*(n-1)/2 stream values of random_graph either way.
    Vertex k is added with its edges to 0..k-1 and only the claws through k
    are looked for; the draw is dropped at the first claw. Below edge
    probability 1/2 they are found from N(k) by K.claw_through, from 1/2 up
    from the complement side, through the prefix's independent triples (see
    the module docstring). The edge values are mixed one block of vertices at
    a time, each pair in its own lane of one int (module docstring again);
    they, and so the graph and the verdict, are those of random_graph.
    """
    threshold = _edge_threshold(n, edge_prob)
    base = stream.skip(n * (n - 1) // 2)
    above = (1 << 64) - threshold
    if threshold >= 1 << 63:
        adj = _dense_claw_free(n, base, above)
    else:
        adj = _sparse_claw_free(n, base, above)
    return None if adj is None else Graph(n, tuple(adj))


def random_in_class_graph(
    n: int, edge_prob: float, stream: SplitMix64
) -> Graph | None:
    """random_graph(n, edge_prob, stream) if that draw is in the class, else None.

    K5-P3 is decided by claw_free_has_k5_minus_p3, whose rule holds only on
    claw-free graphs, so it runs only on a draw that random_claw_free_graph
    kept. It is near-linear on near-complete draws and finds no witness.
    """
    g = random_claw_free_graph(n, edge_prob, stream)
    if g is None or K.claw_free_has_k5_minus_p3(g.adj, n):
        return None
    return g


def random_in_class(n: int, edge_prob: float, seed: int) -> Graph | None:
    """First seeded random graph that avoids both forbidden subgraphs.

    Returns None when RANDOM_IN_CLASS_TRIES draws all fail. Same arguments,
    same graph, bit-for-bit.
    """
    stream = SplitMix64(seed)
    for _ in range(RANDOM_IN_CLASS_TRIES):
        g = random_in_class_graph(n, edge_prob, stream)
        if g is not None:
            return g
    return None
