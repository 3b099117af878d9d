from itertools import combinations

from clawchroma.coloring import Coloring, dsatur_greedy, find_branching_component
from clawchroma.generators import SplitMix64, random_graph
from graphzoo import claw, cycle

from clawchroma import exact_chromatic


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
