from itertools import combinations

import pytest

from clawchroma.errors import NotInClassError, VertexOutOfRangeError
from clawchroma._kernels import pure
from clawchroma.generators import SplitMix64, enumerate_labeled, random_graph
from clawchroma.recognition import (
    CYCLE_C5,
    ISOLATED_REST,
    PATH_P4,
    UNIQUE_MISS,
    VIOLATION,
    classify_neighborhood,
    find_claw,
    find_k5_minus_p3,
    is_in_class,
    verify_neighborhood_all_cliques,
)
from graphzoo import (
    claw,
    complete,
    cycle,
    gem,
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
    for n in range(7):
        for g in enumerate_labeled(n):
            assert (find_claw(g) is not None) == naive_has_claw(g)
            assert (find_k5_minus_p3(g) is not None) == naive_has_w(g)


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
        assert pure.find_k5_minus_p3(g.adj, n) == expected
        hits += expected is not None
        misses += expected is None and find_claw(g) is None
    assert hits > 50 and misses > 50


def test_witness_soundness_over_enumeration():
    for g in enumerate_labeled(5):
        w = find_claw(g)
        if w is not None:
            _witness_is_induced_claw(g, w)
        w = find_k5_minus_p3(g)
        if w is not None:
            _witness_is_induced_w(g, w)


def test_classify_neighborhood_examples():
    assert classify_neighborhood(wheel(5), 0).outcome == CYCLE_C5
    assert classify_neighborhood(gem(), 0).outcome == PATH_P4

    shape = classify_neighborhood(complete(5), 0)
    assert shape.outcome == ISOLATED_REST
    assert shape.clique == (1, 2, 3, 4) and shape.rest == ()

    shape = classify_neighborhood(cycle(4), 0)
    assert shape.outcome == UNIQUE_MISS
    assert shape.clique == (1,) and shape.rest == (3,)
    assert shape.miss_map == ((3, 1),)


def test_classify_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        classify_neighborhood(cycle(4), 4)


def test_no_violation_for_in_class_small():
    for g in enumerate_labeled(5, lambda h: bool(is_in_class(h))):
        for u in range(g.n):
            assert classify_neighborhood(g, u).outcome != VIOLATION
            assert verify_neighborhood_all_cliques(g, u, assume_in_class=True)


def test_all_cliques_verifier_examples():
    assert verify_neighborhood_all_cliques(wheel(5), 0)
    assert verify_neighborhood_all_cliques(complete(5), 0)


def test_all_cliques_verifier_requires_membership():
    with pytest.raises(NotInClassError):
        verify_neighborhood_all_cliques(claw(), 0)


def test_deterministic_witnesses():
    g = petersen()
    assert find_claw(g) == find_claw(g)
    h = w_graph()
    assert find_k5_minus_p3(h) == find_k5_minus_p3(h)
