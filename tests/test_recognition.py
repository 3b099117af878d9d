import time
from itertools import combinations

import pytest

from clawchroma import _kernels as K
from clawchroma.errors import VertexOutOfRangeError
from clawchroma.generators import (
    SplitMix64,
    random_claw_free_graph,
    random_graph,
    random_in_class_graph,
)
from clawchroma.bitops import iter_bits
from clawchroma.graph import Graph, build_graph
from clawchroma.recognition import (
    ClassVerdict,
    find_claw,
    find_k5_minus_p3,
    is_in_class,
    verify_neighborhood_all_cliques,
)
from graphzoo import (
    all_cliques_by_enumeration,
    claw,
    complete,
    cycle,
    empty,
    enumerate_labeled,
    naive_has_claw,
    naive_has_w,
    petersen,
    w_graph,
)

from clawchroma import wheel


def _witness_is_induced_claw(g, w):
    center, *leaves = w.vertices
    assert len(set(w.vertices)) == 4
    assert all(g.has_edge(center, v) for v in leaves)
    assert not any(g.has_edge(u, v) for u, v in combinations(leaves, 2))


def _witness_is_induced_w(g, w):
    a, b, c, d, e = w.vertices
    assert len(set(w.vertices)) == 5
    edges = {(a, b), (d, e), (a, d), (a, e), (b, d), (b, e), (c, d), (c, e)}
    for u, v in combinations(sorted(w.vertices), 2):
        expected = (u, v) in edges or (v, u) in edges
        assert g.has_edge(u, v) == expected


def test_find_claw_examples():
    w = find_claw(claw())
    assert w is not None and w.vertices == (0, 1, 2, 3)
    assert find_claw(cycle(5)) is None
    assert find_claw(empty(80)) is None
    w = find_claw(petersen())
    assert w is not None
    _witness_is_induced_claw(petersen(), w)


def test_find_w_examples():
    w = find_k5_minus_p3(w_graph())
    assert w is not None and w.vertices == (0, 1, 2, 3, 4)
    _witness_is_induced_w(w_graph(), w)
    assert find_k5_minus_p3(complete(5)) is None


def test_w6_has_no_w_exhaustive():
    # independent check over all 5-subsets of the 6-vertex wheel
    assert not naive_has_w(wheel(5))
    assert find_k5_minus_p3(wheel(5)) is None


def test_is_in_class_examples():
    assert is_in_class(cycle(5))
    assert is_in_class(wheel(5))
    verdict = is_in_class(claw())
    assert not verdict and verdict.witness.kind == "claw"
    verdict = is_in_class(w_graph())
    assert not verdict and verdict.witness.kind == "k5_minus_p3"


def test_finders_match_naive_up_to_n6():
    # is_in_class decides K5-P3 first on dense claw-free graphs; its verdict
    # and witness stay those of the claw search, then the K5-P3 search
    for n in range(7):
        for g in enumerate_labeled(n):
            claw_w, k5_w = find_claw(g), find_k5_minus_p3(g)
            assert (claw_w is not None) == naive_has_claw(g)
            assert (k5_w is not None) == naive_has_w(g)
            w = claw_w or k5_w
            assert is_in_class(g) == ClassVerdict(w is None, w)


def _brute_least_w(adj, n):
    """Least role-labeled induced K5-minus-P3 in (d, e, a, b, c) order."""

    def edge(u, v):
        return bool(adj[u] >> v & 1)

    for d, e in combinations(range(n), 2):
        if not edge(d, e):
            continue
        for a, b in combinations(range(n), 2):
            if {a, b} & {d, e} or not edge(a, b):
                continue
            if not all(edge(x, y) for x in (a, b) for y in (d, e)):
                continue
            for c in range(n):
                if c in (a, b, d, e):
                    continue
                if edge(c, d) and edge(c, e) and not edge(c, a) and not edge(c, b):
                    return (a, b, c, d, e)
    return None


def test_pure_k5_minus_p3_is_least_witness():
    stream = SplitMix64(41)
    hits = misses = 0
    for _ in range(400):
        n = 5 + stream.next_below(6)
        g = random_graph(n, 0.55 + 0.45 * stream.next_unit(), stream)
        expected = _brute_least_w(g.adj, n)
        assert K.find_k5_minus_p3(g.adj, n) == expected
        hits += expected is not None
        misses += expected is None and find_claw(g) is None
    assert hits > 50 and misses > 50


def _claw_free_decision_agrees_on_all_labeled(n):
    """Compare the claw-free K5-P3 decision with the witness search on every
    claw-free labeled graph with n vertices; (claw-free count, yes count)."""
    kept = yes = 0
    for g in enumerate_labeled(n):
        if K.find_claw(g.adj, n) is not None:
            continue
        got = K.claw_free_has_k5_minus_p3(g.adj, n)
        assert got == (K.find_k5_minus_p3(g.adj, n) is not None), g
        kept += 1
        yes += got
    return kept, yes


def test_claw_free_k5_minus_p3_decision_up_to_n6():
    counts = [_claw_free_decision_agrees_on_all_labeled(n) for n in range(7)]
    assert counts[5:] == [(769, 30), (15272, 2865)]
    # the exhaustive sweep's in-class count for n = 1..6
    assert sum(kept - yes for kept, yes in counts[1:]) == 13217


@pytest.mark.slow
def test_claw_free_k5_minus_p3_decision_n7():
    kept, yes = _claw_free_decision_agrees_on_all_labeled(7)
    assert kept - yes == 238085  # the in-class labeled graphs with n = 7
    assert yes > 0


def test_claw_free_k5_minus_p3_decision_on_sweep_draws():
    # the random sweep's sizes, at sparse and at dense edge probabilities
    stream = SplitMix64(43)
    verdicts = {True: 0, False: 0}
    for i in range(1200):
        n = 13 + stream.next_below(10)
        u = stream.next_unit()
        g = random_claw_free_graph(n, 0.5 * u if i % 2 else 0.75 + 0.25 * u, stream)
        if g is None:
            continue
        got = K.claw_free_has_k5_minus_p3(g.adj, n)
        assert got == (K.find_k5_minus_p3(g.adj, n) is not None), (i, n)
        verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_claw_free_k5_minus_p3_decision_near_complete():
    # K_n and K_n minus an edge have none (the complement has no path on
    # three vertices); K_n minus a path on three vertices has one for n >= 5
    start = time.perf_counter()
    for n in (5, 6, 17, 64, 256, 1024):
        full = (1 << n) - 1
        kn = [full ^ 1 << v for v in range(n)]
        minus_edge = kn[:]
        minus_edge[0] ^= 2
        minus_edge[1] ^= 1
        minus_p3 = minus_edge[:]
        minus_p3[1] ^= 4
        minus_p3[2] ^= 2
        cases = ((kn, False), (minus_edge, False), (minus_p3, True))
        for adj, expected in cases:
            assert K.claw_free_has_k5_minus_p3(adj, n) is expected, n
            if n <= 64:
                assert (K.find_k5_minus_p3(adj, n) is not None) is expected, n
    assert time.perf_counter() - start < 1.0


def test_claw_free_k5_minus_p3_decision_needs_claw_free():
    # K2 joined to 3K1: the rule reads the claw at 0 as a K5-P3
    g = build_graph(5, [(0, 1)] + [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    assert K.claw_free_has_k5_minus_p3(g.adj, 5) is True
    assert K.find_k5_minus_p3(g.adj, 5) is None
    assert find_claw(g) is not None


def test_claw_through_matches_find_claw_up_to_n5():
    # every claw-free labeled graph on n <= 5 vertices plus a vertex n
    # joined to each mask s: claw_through reads exactly the grown graph's claw
    checked = hits = 0
    for n in range(6):
        vbit = 1 << n
        for g in enumerate_labeled(n):
            if K.find_claw(g.adj, n) is not None:
                continue
            for s in range(vbit):
                child = [a | vbit if s >> u & 1 else a for u, a in enumerate(g.adj)]
                child.append(s)
                got = K.claw_through(g.adj, s)
                assert got == (K.find_claw(child, n + 1) is not None), (g.adj, s)
                checked += 1
                hits += got
    assert checked == 1 + 2 + 2 * 4 + 8 * 8 + 60 * 16 + 769 * 32
    assert 0 < hits < checked


def _extensions_agree(adj, n):
    """in_class_extensions of a graph adj on n vertices, asserted to list
    exactly the masks s whose grown graph (vertex n joined to s) has no
    claw and no K5-P3, each as that graph's adjacency, in ascending s;
    returns the number of children."""
    vbit = 1 << n
    expected = []
    for s in range(vbit):
        child = (*[a | vbit if s >> u & 1 else a for u, a in enumerate(adj)], s)
        if K.find_claw(child, n + 1) is None:
            if K.find_k5_minus_p3(child, n + 1) is None:
                expected.append(child)
    assert K.in_class_extensions(adj, n + 1) == expected, adj
    return len(expected)


def _in_class_parents(n):
    """The adjacencies of the in-class labeled graphs on n vertices."""
    return [
        g.adj
        for g in enumerate_labeled(n)
        if K.find_claw(g.adj, n) is None and K.find_k5_minus_p3(g.adj, n) is None
    ]


def _in_class_children(n):
    """The children listed for every in-class labeled graph on n vertices,
    each checked against the grown graphs' witness searches."""
    return sum(_extensions_agree(adj, n) for adj in _in_class_parents(n))


def test_in_class_extensions_match_witness_search_up_to_n5():
    # the parents of the exhaustive sweep's graphs up to n = 6; the
    # children are the in-class labeled graphs with one more vertex
    assert [_in_class_children(n) for n in range(6)] == [1, 2, 8, 60, 739, 12407]


@pytest.mark.slow
def test_in_class_extensions_match_witness_search_n6():
    assert _in_class_children(6) == 238085  # the in-class labeled graphs with n = 7


def test_in_class_extensions_on_seeded_parents():
    # seeded in-class draws with n 7..10, at sparse and at dense edge
    # probabilities, every mask of each
    stream = SplitMix64(47)
    parents = children = 0
    for i in range(96):
        n = 7 + i % 4
        u = stream.next_unit()
        g = random_in_class_graph(n, 0.5 * u if i % 2 else 0.75 + 0.25 * u, stream)
        if g is not None:
            parents += 1
            children += _extensions_agree(g.adj, n)
    assert (parents, children) == (41, 1177)


def test_claw_table_matches_claw_through():
    # the extensions' claw table and the random draw's claw_through are two
    # codings of one rule: equal on every mask of every graph on n <= 5
    # vertices, claws and all, and of seeded draws with n 6..9
    graphs = [(g.adj, n) for n in range(6) for g in enumerate_labeled(n)]
    stream = SplitMix64(53)
    for i in range(64):
        n = 6 + i % 4
        graphs.append((random_graph(n, stream.next_unit(), stream).adj, n))
    for adj, n in graphs:
        table = K.claw_table(adj, n)
        assert [table >> s & 1 for s in range(1 << n)] == [
            K.claw_through(adj, s) for s in range(1 << n)
        ], adj


def _shape_table_agrees(adj, n):
    """K.shape_table of a graph adj on n vertices, asserted to equal, at
    every mask s, verify_neighborhood_all_cliques at each vertex of N[v]
    of the grown graph (vertex n joined to s)."""
    vbit = 1 << n
    expected = 0
    for s in range(vbit):
        g = Graph(n + 1, [a | vbit if s >> u & 1 else a for u, a in enumerate(adj)] + [s])
        if not all(verify_neighborhood_all_cliques(g, u) for u in iter_bits(s | vbit)):
            expected |= 1 << s
    assert K.shape_table(adj, n) == expected, adj


def test_shape_table_matches_the_per_vertex_check_on_seeded_parents():
    # seeded draws with n 0..7 at every edge probability, claws and all
    stream = SplitMix64(59)
    for _ in range(3000):
        n = stream.next_below(8)
        _shape_table_agrees(random_graph(n, stream.next_unit(), stream).adj, n)


def test_shape_table_matches_the_per_vertex_check_up_to_n5():
    # every parent of the exhaustive sweep up to n = 6, at every mask
    parents = [(adj, n) for n in range(6) for adj in _in_class_parents(n)]
    assert len(parents) == 1 + 1 + 2 + 8 + 60 + 739
    for adj, n in parents:
        _shape_table_agrees(adj, n)


@pytest.mark.slow
def test_shape_table_matches_the_per_vertex_check_n6():
    parents = _in_class_parents(6)
    assert len(parents) == 12407  # every parent of the n = 7 level
    for adj in parents:
        _shape_table_agrees(adj, 6)


def test_witness_soundness_over_enumeration():
    for g in enumerate_labeled(5):
        w = find_claw(g)
        if w is not None:
            _witness_is_induced_claw(g, w)
        w = find_k5_minus_p3(g)
        if w is not None:
            _witness_is_induced_w(g, w)


def test_no_violation_for_in_class_small():
    for g in enumerate_labeled(5, lambda h: bool(is_in_class(h))):
        for u in range(g.n):
            assert verify_neighborhood_all_cliques(g, u)


def test_all_cliques_verifier_examples():
    assert verify_neighborhood_all_cliques(wheel(5), 0)
    assert verify_neighborhood_all_cliques(complete(5), 0)
    with pytest.raises(VertexOutOfRangeError):
        verify_neighborhood_all_cliques(cycle(4), 4)


def test_all_cliques_verifier_matches_enumeration_up_to_n6():
    # every labeled graph, in the class or not, at every vertex
    pairs = false = 0
    for n in range(7):
        for g in enumerate_labeled(n):
            for u in range(n):
                got = verify_neighborhood_all_cliques(g, u)
                assert got == all_cliques_by_enumeration(g, u), (n, g.adj, u)
                pairs += 1
                false += not got
    assert (pairs, false) == (202_013, 30_645)


def _hub_over(n, edges):
    """Hub 0 joined to all of 1..n-1, plus the given edges among those."""
    hub = [(0, v) for v in range(1, n)]
    return build_graph(n, hub + edges)


def _clique_edges(vertices):
    return list(combinations(vertices, 2))


def test_all_cliques_verifier_at_scale():
    n = 255
    # K1 + CP(127), CP(127) being K_254 minus the perfect matching
    # {1,2}, {3,4}, ...: the hub's N(u) has 2^127 maximum cliques
    pairs = _clique_edges(range(1, n))
    cocktail = [(a, b) for a, b in pairs if not (a % 2 and b == a + 1)]
    # vertex 1 then misses both 2 and 3
    broken = [e for e in cocktail if e != (1, 3)]
    two = _clique_edges(range(1, 128)) + _clique_edges(range(128, n))
    three = (
        _clique_edges(range(1, 86))
        + _clique_edges(range(86, 171))
        + _clique_edges(range(171, n))
    )
    cases = [(cocktail, True), (two, True), (broken, False), (three, False)]
    graphs = [(_hub_over(n, edges), expected) for edges, expected in cases]
    start = time.perf_counter()
    got = [verify_neighborhood_all_cliques(g, 0) for g, _ in graphs]
    elapsed = time.perf_counter() - start
    assert got == [expected for _, expected in graphs]
    assert elapsed < 0.1


def test_all_cliques_verifier_reads_the_claw():
    # the centre's neighborhood is three isolated vertices: no shape holds
    g = claw()
    assert [verify_neighborhood_all_cliques(g, u) for u in range(4)] == [
        False, True, True, True,
    ]


def test_deterministic_witnesses():
    g = petersen()
    assert find_claw(g) == find_claw(g)
    h = w_graph()
    assert find_k5_minus_p3(h) == find_k5_minus_p3(h)
