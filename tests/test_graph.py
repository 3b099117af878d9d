import pytest

from clawchroma.errors import (
    ScaleExceededError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from clawchroma.generators import SplitMix64, random_graph
from clawchroma.graph import (
    build_graph,
    degree_profile,
    edge_mask_of,
    from_edge_mask,
)
from graphzoo import complete, cycle, induced_subgraph

from clawchroma import wheel


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert degree_profile(g) == ((1, 2, 1), 2)
    assert g.edge_count == 2


def test_build_c5():
    g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    degs, delta = degree_profile(g)
    assert set(degs) == {2} and delta == 2


def test_duplicate_edges_collapse():
    g = build_graph(4, [(0, 1), (0, 1), (1, 0)])
    assert g.edge_count == 1
    assert degree_profile(g)[0] == (1, 1, 0, 0)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(1, 1)])


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRangeError):
        build_graph(3, [(-1, 2)])


def test_vertex_cap():
    with pytest.raises(ScaleExceededError):
        build_graph(1025, [])
    assert build_graph(1024, []).n == 1024


def test_degree_profile_examples():
    assert degree_profile(wheel(5))[1] == 5
    assert degree_profile(build_graph(0, []))[1] == 0


def test_neighbors_ascending():
    g = build_graph(6, [(3, 5), (3, 0), (3, 4), (3, 1)])
    assert g.neighbors(3) == (0, 1, 4, 5)


def test_edges_lexicographic():
    g = complete(4)
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_induced_subgraph_examples():
    k3, index = induced_subgraph(complete(5), [4, 0, 2])
    assert k3.n == 3 and k3.edge_count == 3
    assert index == {0: 0, 2: 1, 4: 2}

    rim, _ = induced_subgraph(wheel(5), [1, 2, 3, 4, 5])
    assert degree_profile(rim) == ((2, 2, 2, 2, 2), 2)

    p3, _ = induced_subgraph(cycle(5), [0, 1, 2])
    assert degree_profile(p3) == ((1, 2, 1), 2)


def test_induced_full_is_identity():
    g = wheel(4)
    h, index = induced_subgraph(g, range(g.n))
    assert h == g and index == {v: v for v in range(g.n)}


def test_induced_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        induced_subgraph(complete(3), [0, 5])


def test_handshake_over_random_graphs():
    stream = SplitMix64(99)
    for _ in range(200):
        n = stream.next_below(15)
        g = random_graph(n, stream.next_unit(), stream)
        assert sum(degree_profile(g)[0]) == 2 * g.edge_count


def test_edge_mask_roundtrip():
    stream = SplitMix64(3)
    for _ in range(100):
        n = stream.next_below(9)
        g = random_graph(n, stream.next_unit(), stream)
        assert from_edge_mask(n, edge_mask_of(g)) == g


def test_graph_equality_and_hash():
    a = build_graph(3, [(0, 1)])
    b = build_graph(3, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != build_graph(3, [(0, 2)])
