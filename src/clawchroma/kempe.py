"""Two-color (Kempe) components: extraction and shape checks.

In a claw-free graph every component of the subgraph induced by two color
classes of a proper coloring is a path or a cycle; find_branching_component
hunts for a counterexample (a component with a vertex of degree >= 3) and is
expected to come back empty on every claw-free input the suite produces.

The hunt needs no components: a vertex v of color a has degree
|N(v) & C_a| + |N(v) & C_b| in the (a, b) two-class subgraph, so some
component branches iff that sum reaches 3 for some v and some present color
b != a. One pass over the vertices decides it; the witness component is
enumerated only when the pass finds such a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitops import bits_tuple, iter_bits, mask_components
from .coloring import Coloring
from .errors import SameColorPairError
from .graph import Graph

PATH = "path"
CYCLE = "cycle"
OTHER = "other"


@dataclass(frozen=True)
class KempeComponent:
    """Value snapshot of one connected two-class component.

    A single vertex and a single edge both count as paths; shape OTHER
    carries the least vertex of degree >= 3 as its witness.
    """

    vertices: tuple[int, ...]
    shape: str
    color_pair: tuple[int, int]
    branch_vertex: int | None = None


def _classify(adj, comp: int, pair: tuple[int, int]) -> KempeComponent:
    edges2 = 0
    for v in iter_bits(comp):
        d = (adj[v] & comp).bit_count()
        if d >= 3:
            return KempeComponent(bits_tuple(comp), OTHER, pair, branch_vertex=v)
        edges2 += d
    size = comp.bit_count()
    shape = CYCLE if edges2 == 2 * size and size >= 3 else PATH
    return KempeComponent(bits_tuple(comp), shape, pair)


def two_color_components(
    g: Graph, coloring: Coloring, alpha: int, beta: int
) -> list[KempeComponent]:
    """Components of the subgraph induced by the alpha/beta color classes.

    Ordered by least contained vertex. The coloring must be proper.
    """
    if alpha == beta:
        raise SameColorPairError(f"color pair ({alpha}, {alpha})")
    a = coloring.assignment
    sub = 0
    for v in range(g.n):
        if a[v] == alpha or a[v] == beta:
            sub |= 1 << v
    pair = (alpha, beta)
    return [_classify(g.adj, comp, pair) for comp in mask_components(g.adj, sub)]


def _some_vertex_branches(adj, coloring: Coloring) -> bool:
    """True iff some vertex has degree >= 3 in some two-class subgraph.

    Holds for improper colorings too: same-colored neighbors count in
    every pair containing the vertex's own color.
    """
    classes = coloring.class_masks
    a = coloring.assignment
    masks = list(classes.values())
    for v, nv in enumerate(adj):
        if nv.bit_count() < 3:
            continue
        own_mask = classes[a[v]]
        own = (nv & own_mask).bit_count()
        for mask in masks:
            if mask != own_mask and own + (nv & mask).bit_count() >= 3:
                return True
    return False


def find_branching_component(g: Graph, coloring: Coloring) -> KempeComponent | None:
    """Least component that is neither a path nor a cycle, over all color pairs.

    None means every two-class component is a path or a cycle, which is
    guaranteed for claw-free graphs. Decided by the degree test in
    _some_vertex_branches; only on a hit are the components of each color
    pair enumerated, in pair order, to return the least branching one.
    """
    if not _some_vertex_branches(g.adj, coloring):
        return None
    present = sorted(set(coloring.assignment))
    for i, alpha in enumerate(present):
        for beta in present[i + 1 :]:
            for comp in two_color_components(g, coloring, alpha, beta):
                if comp.shape == OTHER:
                    return comp
    return None
