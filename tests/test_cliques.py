import ast
import gc
import time
from itertools import combinations
from pathlib import Path

import pytest

from clawchroma import _kernels as K
from clawchroma.cliques import omega
from clawchroma.generators import SplitMix64, random_graph
from clawchroma.graph import build_graph
from graphzoo import (
    bits_tuple,
    complete,
    cycle,
    empty,
    enumerate_labeled,
    induced_subgraph,
    naive_omega,
    petersen,
)

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
    assert omega(empty(80)) == 1
    assert omega(cycle(5)) == 2


def test_omega_matches_naive_up_to_n6():
    for n in range(7):
        for g in enumerate_labeled(n):
            assert omega(g) == naive_omega(g)


def test_monotone_under_induced_subgraphs():
    stream = SplitMix64(5)
    for _ in range(100):
        n = 1 + stream.next_below(9)
        g = random_graph(n, stream.next_unit(), stream)
        keep = [v for v in range(n) if stream.next_u64() & 1]
        sub, _ = induced_subgraph(g, keep)
        assert omega(sub) <= omega(g)


def test_pure_clique_kernels_match_brute_force():
    stream = SplitMix64(31)
    for _ in range(400):
        n = stream.next_below(11)
        g = random_graph(n, stream.next_unit(), stream)
        full = g.full_mask()
        for sub in (full, stream.next_u64() & full, stream.next_u64() & full):
            w, cliques = _brute_max_cliques(g.adj, sub)
            assert K.clique_number(g.adj, n, sub) == w
            assert K.max_cliques(g.adj, n, sub) == cliques
            for k in range(w + 2):
                assert K.has_clique(g.adj, n, sub, k) == (k <= w)


def test_has_clique_matches_clique_number_on_every_subgraph_up_to_n5():
    checked = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            for sub in range(1 << n):
                w = K.clique_number(g.adj, n, sub)
                for k in range(n + 2):
                    assert K.has_clique(g.adj, n, sub, k) == (w >= k)
                cliques = K.max_cliques(g.adj, n, sub)
                assert (w, cliques) == _brute_max_cliques(g.adj, sub)
                assert K.lex_min_max_clique(g.adj, n, sub) == cliques[0]
                checked += 1
    assert checked == 1 + 2 + 2 * 4 + 8 * 8 + 64 * 16 + 1024 * 32


def _assert_clique_table(adj, k):
    """Bit s of K.clique_table is set iff s holds a clique of size omega."""
    w = K.clique_number(adj, k, (1 << k) - 1)
    table = K.clique_table(adj, k)
    assert table >> (1 << k) == 0
    for s in range(1 << k):
        assert table >> s & 1 == K.has_clique(adj, k, s, w)


def test_clique_table_matches_has_clique():
    # every labeled graph with k <= 5, and a seeded sample at k = 7, the
    # parents of an n = 8 sweep
    for k in range(6):
        for g in enumerate_labeled(k):
            _assert_clique_table(g.adj, k)
    stream = SplitMix64(8)
    for _ in range(200):
        g = random_graph(7, stream.next_unit(), stream)
        _assert_clique_table(g.adj, 7)


@pytest.mark.slow
def test_clique_kernels_match_brute_force_at_n6():
    n = 6
    for g in enumerate_labeled(n):
        full = g.full_mask()
        w, cliques = _brute_max_cliques(g.adj, full)
        assert K.clique_number(g.adj, n, full) == w
        assert K.lex_min_max_clique(g.adj, n, full) == cliques[0]
        assert K.max_cliques(g.adj, n, full) == cliques
        for k in range(n + 2):
            assert K.has_clique(g.adj, n, full, k) == (k <= w)


@pytest.fixture(scope="module")
def k1000_plus_k24():
    """K_1000 and K_24 side by side: in the class, 1,024 vertices, and a
    clique far deeper than the recursion limit."""
    blocks = ((0, 1000), (1000, 1024))
    return build_graph(
        1024,
        ((i, j) for lo, hi in blocks for i in range(lo, hi) for j in range(i + 1, hi)),
    )


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_clique_kernels_on_a_1000_clique(k1000_plus_k24):
    adj, n, full = k1000_plus_k24.adj, k1000_plus_k24.n, k1000_plus_k24.full_mask()
    k1000 = (1 << 1000) - 1
    for fn, args, expected in (
        (K.clique_number, (adj, n, full), 1000),
        (K.has_clique, (adj, n, full, 1000), True),
        (K.has_clique, (adj, n, full, 1001), False),
        (K.lex_min_max_clique, (adj, n, full), k1000),
        (K.max_cliques, (adj, n, full), [k1000]),
    ):
        result, elapsed = _timed(fn, *args)
        assert result == expected, fn.__name__
        assert elapsed < 1.0, fn.__name__


def test_graph_clique_queries_on_a_1000_clique(k1000_plus_k24):
    w, elapsed = _timed(omega, k1000_plus_k24)
    assert w == 1000
    assert elapsed < 1.0


def test_clique_kernels_at_scale():
    # K1 + CP(127): hub 254 joined to K_254 minus the matching {0, 1},
    # {2, 3}, ...; N(hub) has 2^127 maximum cliques
    n = 255
    full = (1 << n) - 1
    adj = [full & ~(1 << v | 1 << (v ^ 1)) for v in range(n - 1)]
    adj.append(full & ~(1 << (n - 1)))
    start = time.perf_counter()
    lex = K.lex_min_max_clique(adj, n, adj[n - 1])
    w = K.clique_number(adj, n, full)
    elapsed = time.perf_counter() - start
    assert lex == sum(1 << v for v in range(0, n - 1, 2))
    assert w == 128
    assert elapsed < 1.0


def test_lex_min_max_clique_at_1023():
    # the hub of K1 + CP(511): N(hub) is K_1022 minus a perfect matching
    n = 1023
    full = (1 << n) - 1
    adj = [full & ~(1 << v | 1 << (v ^ 1)) for v in range(n - 1)]
    adj.append(full & ~(1 << (n - 1)))
    start = time.perf_counter()
    lex = K.lex_min_max_clique(adj, n, adj[n - 1])
    elapsed = time.perf_counter() - start
    assert lex == sum(1 << v for v in range(0, n - 1, 2))
    assert elapsed < 1.5


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
        assert K.clique_number(adj, n, sub) == w
        assert K.max_cliques(adj, n, sub) == cliques
        assert K.lex_min_max_clique(adj, n, sub) == cliques[0]
        assert all(c & planted == planted for c in cliques)


def test_pure_kernels_leave_no_cyclic_garbage():
    graphs = [wheel(5), blown_up_odd_cycle(2, 3), petersen(), complete(5), cycle(7)]
    gc.collect()
    gc.disable()
    try:
        for g in graphs:
            adj, n, full = g.adj, g.n, g.full_mask()
            w = K.clique_number(adj, n, full)
            K.has_clique(adj, n, full, w + 1)
            clique = K.lex_min_max_clique(adj, n, full)
            for v in range(n):
                K.max_cliques(adj, n, full & ~(1 << v))
            K.k_color(adj, n, full, w, clique)
            K.k_color(adj, n, full, w + 1, clique)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_no_kernel_recurses():
    # every search is a loop over an explicit stack, so no input size can
    # reach the recursion limit
    tree = ast.parse(Path(K.__file__).read_text())
    recursive = [
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for call in ast.walk(f)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == f.name
    ]
    assert recursive == []
