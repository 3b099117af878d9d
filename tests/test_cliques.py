import gc
from itertools import combinations

import pytest

from clawchroma._kernels import pure
from clawchroma.bitops import bits_tuple
from clawchroma.cliques import (
    max_clique,
    max_clique_in_neighborhood,
    max_clique_through,
    omega,
)
from clawchroma.errors import VertexOutOfRangeError
from clawchroma.generators import SplitMix64, enumerate_labeled, random_graph
from clawchroma.graph import induced_subgraph
from graphzoo import complete, cycle, empty, naive_omega, petersen

from clawchroma import blown_up_odd_cycle, wheel


def _brute_max_cliques(adj, sub):
    """Clique number and maximum cliques of sub, as masks in ascending-tuple
    order, by subset enumeration."""
    verts = [v for v in range(sub.bit_length()) if sub >> v & 1]
    for size in range(len(verts), 0, -1):
        found = [
            sum(1 << v for v in c)
            for c in combinations(verts, size)
            if all(adj[u] >> v & 1 for u, v in combinations(c, 2))
        ]
        if found:
            return size, found
    return 0, [0]


def test_omega_examples():
    assert omega(complete(5)) == 5
    assert omega(wheel(5)) == 3
    assert omega(blown_up_odd_cycle(2, 2)) == 3
    assert omega(blown_up_odd_cycle(2, 3)) == 4
    assert omega(empty(3)) == 1
    assert omega(empty(0)) == 0
    assert omega(cycle(5)) == 2


def test_omega_matches_naive_up_to_n6():
    for n in range(7):
        for g in enumerate_labeled(n):
            assert omega(g) == naive_omega(g)


def test_max_clique_is_lex_least():
    stream = SplitMix64(17)
    for _ in range(300):
        n = stream.next_below(9)
        g = random_graph(n, stream.next_unit(), stream)
        result = max_clique(g)
        w, brute = _brute_max_cliques(g.adj, g.full_mask())
        assert result.size == w
        assert result.vertices == bits_tuple(brute[0])


def test_max_clique_verifies_complete():
    g = wheel(5)
    result = max_clique(g)
    assert result.size == 3
    assert all(g.has_edge(u, v) for u, v in combinations(result.vertices, 2))


def test_monotone_under_induced_subgraphs():
    stream = SplitMix64(5)
    for _ in range(100):
        n = 1 + stream.next_below(9)
        g = random_graph(n, stream.next_unit(), stream)
        keep = [v for v in range(n) if stream.next_u64() & 1]
        sub, _ = induced_subgraph(g, keep)
        assert omega(sub) <= omega(g)


def test_neighborhood_clique_examples():
    assert max_clique_in_neighborhood(complete(5), 0).vertices == (1, 2, 3, 4)
    assert max_clique_in_neighborhood(wheel(5), 0).size == 2
    assert max_clique_in_neighborhood(cycle(4), 0).size == 1


def test_clique_through_examples():
    assert max_clique_through(complete(5), 0).size == 5
    assert max_clique_through(wheel(5), 0).size == 3
    for v in range(1, 6):
        assert max_clique_through(wheel(5), v).size == 3


def test_clique_through_contains_vertex_and_consistent():
    stream = SplitMix64(23)
    for _ in range(150):
        n = 1 + stream.next_below(8)
        g = random_graph(n, stream.next_unit(), stream)
        for u in range(g.n):
            through = max_clique_through(g, u)
            assert u in through.vertices
            assert through.size == 1 + max_clique_in_neighborhood(g, u).size
            if g.degree(u) >= 1:
                assert through.size >= 2


def test_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        max_clique_in_neighborhood(complete(3), 3)
    with pytest.raises(VertexOutOfRangeError):
        max_clique_through(complete(3), -1)


def test_pure_clique_kernels_match_brute_force():
    stream = SplitMix64(31)
    for _ in range(400):
        n = stream.next_below(11)
        g = random_graph(n, stream.next_unit(), stream)
        full = g.full_mask()
        for sub in (full, stream.next_u64() & full, stream.next_u64() & full):
            w, cliques = _brute_max_cliques(g.adj, sub)
            assert pure.clique_number(g.adj, n, sub) == w
            assert pure.max_cliques(g.adj, n, sub) == cliques
            for k in range(w + 2):
                assert pure.has_clique(g.adj, n, sub, k) == (k <= w)


def test_pure_clique_kernels_with_universal_vertices():
    # dense sub masks where some vertices are joined to all the rest of sub
    stream = SplitMix64(37)
    for _ in range(300):
        n = 1 + stream.next_below(11)
        g = random_graph(n, 0.6 + 0.4 * stream.next_unit(), stream)
        full = g.full_mask()
        sub = full & ~(stream.next_u64() & stream.next_u64())
        planted = sub & stream.next_u64() & stream.next_u64()
        adj = list(g.adj)
        for v in bits_tuple(planted):
            adj[v] |= sub & ~(1 << v)
            for u in bits_tuple(sub & ~(1 << v)):
                adj[u] |= 1 << v
        w, cliques = _brute_max_cliques(adj, sub)
        assert pure.clique_number(adj, n, sub) == w
        assert pure.max_cliques(adj, n, sub) == cliques
        assert pure.lex_min_max_clique(adj, n, sub) == cliques[0]
        assert all(c & planted == planted for c in cliques)


def test_pure_kernels_leave_no_cyclic_garbage():
    graphs = [wheel(5), blown_up_odd_cycle(2, 3), petersen(), complete(5), cycle(7)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            adj, n, full = g.adj, g.n, g.full_mask()
            w = pure.clique_number(adj, n, full)
            pure.has_clique(adj, n, full, w + 1)
            clique = pure.lex_min_max_clique(adj, n, full)
            for v in range(n):
                pure.max_cliques(adj, n, full & ~(1 << v))
            pure.k_color(adj, n, full, w, clique)
            pure.k_color(adj, n, full, w + 1, clique)
        assert gc.collect() == 0
    finally:
        gc.enable()
