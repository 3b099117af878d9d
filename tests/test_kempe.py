import pytest

from clawchroma.coloring import Coloring, dsatur_greedy
from clawchroma.errors import SameColorPairError
from clawchroma.kempe import (
    CYCLE,
    OTHER,
    PATH,
    find_branching_component,
    two_color_components,
)
from clawchroma.generators import SplitMix64, random_graph
from graphzoo import claw, cycle, path

from clawchroma import exact_chromatic, wheel


def test_path_component():
    g = path(4)
    c = Coloring((1, 2, 1, 2))
    comps = two_color_components(g, c, 1, 2)
    assert len(comps) == 1
    assert comps[0].shape == PATH
    assert comps[0].vertices == (0, 1, 2, 3)


def test_cycle_component():
    g = cycle(6)
    c = Coloring((1, 2, 1, 2, 1, 2))
    comps = two_color_components(g, c, 1, 2)
    assert len(comps) == 1 and comps[0].shape == CYCLE


def test_star_component_is_other():
    g = claw()
    c = Coloring((1, 2, 2, 2))
    comps = two_color_components(g, c, 1, 2)
    assert len(comps) == 1
    assert comps[0].shape == OTHER and comps[0].branch_vertex == 0


def test_singleton_and_edge_are_paths():
    g = path(2)
    c = Coloring((1, 2))
    comps = two_color_components(g, c, 1, 3)
    assert [(k.vertices, k.shape) for k in comps] == [((0,), PATH)]
    comps = two_color_components(g, c, 1, 2)
    assert [(k.vertices, k.shape) for k in comps] == [((0, 1), PATH)]


def test_components_partition_two_classes():
    g = wheel(5)
    _, c = exact_chromatic(g)
    seen = set()
    for comp in two_color_components(g, c, 1, 2):
        assert not seen & set(comp.vertices)
        seen |= set(comp.vertices)
    assert seen == {v for v in range(g.n) if c.assignment[v] in (1, 2)}


def test_same_color_pair_rejected():
    with pytest.raises(SameColorPairError):
        two_color_components(path(2), Coloring((1, 2)), 1, 1)


def test_branching_search_examples():
    g = cycle(5)
    _, c = exact_chromatic(g)
    assert find_branching_component(g, c) is None

    bad = find_branching_component(claw(), Coloring((1, 2, 2, 2)))
    assert bad is not None and bad.shape == OTHER


def _reference_branching(g, c):
    present = sorted(set(c.assignment))
    for i, alpha in enumerate(present):
        for beta in present[i + 1 :]:
            for comp in two_color_components(g, c, alpha, beta):
                if comp.shape == OTHER:
                    return comp
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
