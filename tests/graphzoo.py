"""Named small graphs and reference oracles for the test suite.

The naive oracles are deliberately independent of the library's kernels:
brute-force subset scans and assignment enumeration only, so they can
cross-validate the fast paths. The enumerators and exact references after
them serve only the tests: the labeled enumeration, seeded line graphs,
induced subgraphs, a one-k exact colorability test, and the per-clique
reading of the four neighborhood shapes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations, product

from clawchroma import _kernels as K
from clawchroma.bitops import iter_bits, universal_vertices
from clawchroma.coloring import Coloring
from clawchroma.errors import (
    ParamRangeError,
    ScaleExceededError,
    VertexOutOfRangeError,
)
from clawchroma.generators import SplitMix64, line_graph, random_graph
from clawchroma.graph import Graph, build_graph, from_edge_mask
from clawchroma.recognition import _is_c5, _is_p4


def bits_tuple(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    return tuple(iter_bits(mask))


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def empty(n: int) -> Graph:
    return build_graph(n, [])


def claw() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


def w_graph() -> Graph:
    """K5-minus-P3 built literally from its role labels (a,b,c,d,e)=(0..4)."""
    return build_graph(
        5, [(0, 1), (3, 4), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
    )


def gem() -> Graph:
    """Path 1-2-3-4 plus the universal vertex 0."""
    return build_graph(
        5, [(1, 2), (2, 3), (3, 4), (0, 1), (0, 2), (0, 3), (0, 4)]
    )


def prism() -> Graph:
    """Two triangles joined by a perfect matching; 3-regular."""
    return build_graph(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    )


def k4_minus_edge() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


# ------------------------------------------------------------- naive oracles


def naive_omega(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def naive_has_claw(g: Graph) -> bool:
    for sub in combinations(range(g.n), 4):
        for center in sub:
            leaves = [v for v in sub if v != center]
            if all(g.has_edge(center, v) for v in leaves) and not any(
                g.has_edge(u, v) for u, v in combinations(leaves, 2)
            ):
                return True
    return False


def naive_has_w(g: Graph) -> bool:
    # K5-minus-P3 is the unique 5-vertex graph with 8 edges whose two
    # non-edges share a vertex
    for sub in combinations(range(g.n), 5):
        non_edges = [
            (u, v) for u, v in combinations(sub, 2) if not g.has_edge(u, v)
        ]
        if len(non_edges) == 2 and len(set(non_edges[0]) & set(non_edges[1])) == 1:
            return True
    return False


def naive_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


# ----------------------------------------- enumerators and exact references


ENUMERATION_MAX_VERTICES = 7


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
    for mask in range(1 << (n * (n - 1) // 2)):
        g = from_edge_mask(n, mask)
        if predicate is None or predicate(g):
            yield g


def seeded_line_graphs(samples: int, seed: int) -> Iterator[Graph]:
    """Line graphs of seeded random source graphs (2..8 vertices).

    Sources have at most 28 edges, so every yielded graph has at most 28
    vertices.
    """
    stream = SplitMix64(seed)
    for _ in range(samples):
        n_src = 2 + stream.next_below(7)
        p = stream.next_unit()
        yield line_graph(random_graph(n_src, p, stream))


def induced_subgraph(
    g: Graph, vertices: Iterable[int]
) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by a vertex set, plus the old->new index map.

    New ids follow the ascending order of the selected vertices.
    """
    sel = sorted(set(vertices))
    for v in sel:
        if not (0 <= v < g.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(sel)}
    adj = [0] * len(sel)
    for v in sel:
        i = index[v]
        for w in iter_bits(g.adj[v]):
            if w in index:
                adj[i] |= 1 << index[w]
    return Graph(len(sel), tuple(adj)), index


def k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k colors iff one exists; exact, by the
    kernel search the oracle uses, run for one k."""
    if k < 0:
        return None
    # n colors always suffice, so larger palettes decide identically
    full = g.full_mask()
    clique = K.lex_min_max_clique(g.adj, g.n, full)
    raw = K.k_color(g.adj, g.n, full, min(k, g.n), clique)
    if raw is None:
        return None
    return Coloring(tuple(raw)).canonical()


def unique_miss_map(adj, clique: int, rest: int):
    """(r, q) pairs when every r misses exactly one q, injectively; else None."""
    if universal_vertices(adj, rest) != rest:
        return None
    pairs = []
    seen = 0
    for r in iter_bits(rest):
        non = clique & ~adj[r]
        if non.bit_count() != 1:
            return None
        if non & seen:
            return None
        seen |= non
        pairs.append((r, non.bit_length() - 1))
    return tuple(pairs)


def is_isolated_rest(adj, clique: int, rest: int) -> bool:
    if universal_vertices(adj, rest) != rest:
        return False
    for r in iter_bits(rest):
        if adj[r] & clique:
            return False
    return True


def all_cliques_by_enumeration(g: Graph, u: int) -> bool:
    """Per-clique reading of the four neighborhood shapes: list every maximum
    clique Q of <N(u)> and test the shapes against each, with rest
    R = N(u) - Q. The reference for verify_neighborhood_all_cliques."""
    adj = g.adj
    nb = adj[u]
    if _is_c5(adj, nb) or _is_p4(adj, nb):
        return True
    for clique in K.max_cliques(adj, g.n, nb):
        rest = nb & ~clique
        if rest and unique_miss_map(adj, clique, rest) is not None:
            continue
        if not is_isolated_rest(adj, clique, rest):
            return False
    return True
