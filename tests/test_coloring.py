import time
from itertools import combinations

import pytest

from clawchroma import _kernels as K
from clawchroma.coloring import (
    Coloring,
    dsatur_greedy,
    exact_chromatic,
    find_branching_component,
    verify_proper,
)
from clawchroma.errors import PartialColoringError, ScaleExceededError
from clawchroma.generators import SplitMix64, random_graph
from clawchroma.graph import Graph, build_graph
from graphzoo import (
    claw,
    complete,
    cycle,
    empty,
    enumerate_labeled,
    k_colorable,
    naive_chromatic,
    petersen,
)

from clawchroma import blown_up_odd_cycle, omega, wheel


def test_verify_proper_examples():
    k2 = complete(2)
    assert verify_proper(k2, Coloring((1, 2))) is None
    assert verify_proper(k2, Coloring((1, 1))) == (0, 1)
    chi, witness = exact_chromatic(cycle(5))
    assert verify_proper(cycle(5), witness) is None


def test_verify_proper_returns_least_edge():
    g = build_graph(4, [(0, 1), (0, 3), (2, 3)])
    assert verify_proper(g, Coloring((1, 2, 1, 1))) == (0, 3)


def test_partial_coloring_rejected():
    with pytest.raises(PartialColoringError):
        verify_proper(complete(2), Coloring((1,)))
    with pytest.raises(PartialColoringError):
        verify_proper(complete(2), Coloring((1, 0)))


def test_dsatur_examples():
    assert dsatur_greedy(complete(4)).colors_used == 4
    assert dsatur_greedy(cycle(6)).colors_used == 2
    assert dsatur_greedy(cycle(5)).colors_used == 3


def _reference_dsatur(adj, n, sub):
    """DSATUR from its definition: the uncolored vertex of sub with the most
    distinct neighbor colors, then the most neighbors in sub, then the least
    index, takes the least color none of its neighbors has."""
    verts = [v for v in range(n) if sub >> v & 1]
    nbrs = {v: [w for w in verts if adj[v] >> w & 1] for v in verts}
    colors = [0] * n

    def near(v):
        return {colors[w] for w in nbrs[v]} - {0}

    for _ in verts:
        v = min(
            (u for u in verts if not colors[u]),
            key=lambda u: (-len(near(u)), -len(nbrs[u]), u),
        )
        taken = near(v)
        colors[v] = min(c for c in range(1, len(verts) + 1) if c not in taken)
    return colors


def test_dsatur_kernel_matches_reference():
    checked = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            for sub in range(1 << n):
                assert K.dsatur(g.adj, n, sub) == _reference_dsatur(g.adj, n, sub)
                checked += 1
    for g in enumerate_labeled(6):
        full = g.full_mask()
        assert K.dsatur(g.adj, 6, full) == _reference_dsatur(g.adj, 6, full)
        checked += 1
    stream = SplitMix64(43)
    for _ in range(150):
        n = stream.next_below(41)
        g = random_graph(n, stream.next_unit(), stream)
        for s in (g.full_mask(), g.full_mask() & stream.next_u64()):
            assert K.dsatur(g.adj, n, s) == _reference_dsatur(g.adj, n, s)
            checked += 1
    assert checked == 1 + 2 + 8 + 64 + 1024 + 32768 + 32768 + 300


def _check_k_color(g, k, clique, colorable):
    raw = K.k_color(g.adj, g.n, g.full_mask(), k, clique)
    assert (raw is not None) == colorable, (g.adj, k, clique)
    if raw is not None:
        assert all(1 <= c <= k for c in raw)
        assert verify_proper(g, Coloring(tuple(raw))) is None
        on_clique = [raw[v] for v in range(g.n) if clique >> v & 1]
        assert on_clique == list(range(1, len(on_clique) + 1))


def _extends_to_k_coloring(g, k, clique):
    """Plain backtracking in vertex order: whether coloring the clique
    1..|clique| in ascending order extends to a proper k-coloring."""
    colors = [0] * g.n
    for c, v in enumerate((v for v in range(g.n) if clique >> v & 1), 1):
        colors[v] = c
    rest = [v for v in range(g.n) if not colors[v]]

    def extend(i):
        if i == len(rest):
            return True
        v = rest[i]
        taken = {colors[w] for w in g.neighbors(v)}
        for c in range(1, k + 1):
            if c not in taken:
                colors[v] = c
                if extend(i + 1):
                    return True
        colors[v] = 0
        return False

    return extend(0)


def test_k_color_matches_brute_force():
    for n in range(6):
        for g in enumerate_labeled(n):
            chi = naive_chromatic(g)
            lex = K.lex_min_max_clique(g.adj, n, g.full_mask())
            for k in range(n + 1):
                for clique in (0, lex):
                    _check_k_color(g, k, clique, chi <= k)
    # dense draws from a precolored maximum clique, where the search
    # backtracks far more than on the graphs above
    stream = SplitMix64(9)
    for _ in range(1000):
        n = 12 + stream.next_below(5)
        g = random_graph(n, 0.5 + 0.3 * stream.next_unit(), stream)
        clique = K.lex_min_max_clique(g.adj, n, g.full_mask())
        k = clique.bit_count()
        _check_k_color(g, k, clique, _extends_to_k_coloring(g, k, clique))


def test_coloring_at_1024_vertices():
    start = time.perf_counter()
    assert k_colorable(empty(1000), 1).colors_used == 1
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert k_colorable(cycle(1024), 2).colors_used == 2
    assert time.perf_counter() - start < 1.0
    big, small = (1 << 1000) - 1, ((1 << 24) - 1) << 1000
    g = Graph(1024, tuple((big if v < 1000 else small) ^ 1 << v for v in range(1024)))
    start = time.perf_counter()
    assert dsatur_greedy(g).colors_used == 1000
    assert time.perf_counter() - start < 1.0


def test_dsatur_always_proper_and_canonical():
    stream = SplitMix64(41)
    for _ in range(200):
        n = stream.next_below(12)
        g = random_graph(n, stream.next_unit(), stream)
        c = dsatur_greedy(g)
        assert verify_proper(g, c) is None
        assert c.canonical() == c


def test_k_colorable_examples():
    assert k_colorable(cycle(5), 2) is None
    c = k_colorable(cycle(5), 3)
    assert c is not None and verify_proper(cycle(5), c) is None
    assert k_colorable(wheel(5), 3) is None
    assert k_colorable(wheel(5), 4) is not None


def test_k_colorable_edge_cases():
    assert k_colorable(empty(0), 0) is not None
    assert k_colorable(empty(3), 0) is None
    assert k_colorable(empty(3), 1) is not None
    assert k_colorable(complete(3), -1) is None
    assert k_colorable(complete(3), 10**9) is not None


def test_exact_chromatic_examples():
    assert exact_chromatic(wheel(5))[0] == 4
    assert exact_chromatic(blown_up_odd_cycle(2, 2))[0] == 4
    assert exact_chromatic(complete(4))[0] == 4
    assert exact_chromatic(empty(0)) == (0, Coloring(()))
    assert exact_chromatic(empty(4))[0] == 1


def test_exact_chromatic_matches_naive_up_to_n5():
    checked = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            chi, witness = exact_chromatic(g)
            assert chi == naive_chromatic(g)
            assert verify_proper(g, witness) is None
            assert witness.colors_used == chi
            checked += 1
    assert checked == 1 + 1 + 2 + 8 + 64 + 1024


def test_exact_chromatic_with_dsatur_upper_matches_default_up_to_n5():
    checked = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            default = exact_chromatic(g)
            assert exact_chromatic(g, dsatur_greedy(g)) == default
            assert exact_chromatic(g, dsatur_greedy(g), omega(g)) == default
            checked += 1
    assert checked == 1 + 1 + 2 + 8 + 64 + 1024


def test_exact_chromatic_returns_an_optimal_upper_itself():
    g = complete(4)
    upper = dsatur_greedy(g)
    assert exact_chromatic(g, upper)[1] is upper
    g = cycle(5)
    upper = Coloring((1, 2, 1, 2, 3))
    assert exact_chromatic(g, upper) == (3, upper)


def test_exact_chromatic_known_values():
    for n in range(1, 9):
        assert exact_chromatic(complete(n))[0] == n
    for k in range(1, 6):
        assert exact_chromatic(cycle(2 * k + 1))[0] == 3
    assert exact_chromatic(petersen())[0] == 3


def test_bounds_bracket_chromatic():
    stream = SplitMix64(77)
    for _ in range(150):
        n = stream.next_below(11)
        g = random_graph(n, stream.next_unit(), stream)
        chi, witness = exact_chromatic(g)
        assert omega(g) <= chi <= dsatur_greedy(g).colors_used
        assert verify_proper(g, witness) is None


def test_scale_cap():
    with pytest.raises(ScaleExceededError):
        exact_chromatic(empty(65))


def test_canonical_relabel():
    c = Coloring((3, 1, 3, 2)).canonical()
    assert c.assignment == (1, 2, 1, 3)
    assert c.colors_used == 3


def test_exact_chromatic_deterministic():
    g = petersen()
    assert exact_chromatic(g) == exact_chromatic(g)


def test_coloring_is_a_value():
    a = Coloring((1, 2, 1))
    assert a == Coloring((1, 2, 1)) and hash(a) == hash(Coloring((1, 2, 1)))
    assert a != Coloring((1, 2, 2)) and a != (1, 2, 1)
    assert repr(a) == "Coloring(assignment=(1, 2, 1))"


def test_branching_search_examples():
    g = cycle(5)
    _, c = exact_chromatic(g)
    assert find_branching_component(g, c) is None

    assert find_branching_component(claw(), Coloring((1, 2, 2, 2))) == 0


def _reference_branching(g, c):
    """Least vertex of degree >= 3 in the subgraph of some pair of present
    colors, counted edge by edge."""
    a = c.assignment
    for v in range(g.n):
        for pair in combinations(sorted(set(a)), 2):
            if a[v] in pair:
                degree = sum(g.adj[v] >> u & 1 for u in range(g.n) if a[u] in pair)
                if degree >= 3:
                    return v
    return None


def test_branching_matches_component_enumeration():
    # proper (DSATUR), random and often improper, and single-color
    # assignments; n = 0 draws cover the empty graph
    stream = SplitMix64(41)
    hits = total = 0
    for _ in range(600):
        n = stream.next_below(10)
        g = random_graph(n, stream.next_unit(), stream)
        assignments = (
            dsatur_greedy(g).assignment,
            tuple(1 + stream.next_below(4) for _ in range(n)),
            (1,) * n,
        )
        for assign in assignments:
            c = Coloring(assign)
            ref = _reference_branching(g, c)
            assert find_branching_component(g, c) == ref
            hits += ref is not None
            total += 1
    assert 0 < hits < total
