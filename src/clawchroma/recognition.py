"""Forbidden-subgraph detection, class membership and the neighborhood shapes.

The graph class of interest excludes two induced subgraphs: the claw K1,3
and K5-minus-P3 (the join of an edge plus an isolated vertex with another
edge; 5 vertices, 8 edges). For graphs in the class, the induced neighborhood
of every vertex falls into one of four shapes relative to each maximum clique
Q of the neighborhood and the rest R = N(u) - Q:

  cycle_c5      <N(u)> is a 5-cycle
  path_p4       <N(u)> is a 4-vertex path
  unique_miss   <R> complete, each r misses exactly one q, all distinct
  isolated_rest <R> complete and no R-Q edges (includes R empty)

verify_neighborhood_all_cliques decides that reading, a shape for every
maximum clique Q, from <N(u)> alone, with no clique enumeration: it holds
iff <N(u)> is a C5, a P4, a clique minus a matching, or two cliques with no
edges between them. Proof, in the complement H of <N(u)>: Q is a maximum
independent set of H, the last two shapes need R independent in H,
unique_miss then makes H a matching of R into Q and isolated_rest makes H
complete bipartite between Q and R; conversely every maximum independent
set of a matching passes, and so does either side of a complete bipartite
H. Class membership is never used.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits
from .errors import VertexOutOfRangeError
from .graph import Graph

CLAW = "claw"
K5_MINUS_P3 = "k5_minus_p3"


@dataclass(frozen=True)
class ForbiddenWitness:
    """Role-labeled induced copy of a forbidden subgraph.

    claw: (center, leaf1, leaf2, leaf3) with ascending leaves.
    k5_minus_p3: (a, b, c, d, e) with edges exactly
    {ab, de, ad, ae, bd, be, cd, ce} and non-edges {ac, bc}.
    """

    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class ClassVerdict:
    """Membership result; truthy iff the graph is in the class."""

    in_class: bool
    witness: ForbiddenWitness | None = None

    def __bool__(self) -> bool:
        return self.in_class


def find_claw(g: Graph) -> ForbiddenWitness | None:
    hit = K.find_claw(g.adj, g.n)
    if hit is None:
        return None
    return ForbiddenWitness(CLAW, hit)


def find_k5_minus_p3(g: Graph) -> ForbiddenWitness | None:
    hit = K.find_k5_minus_p3(g.adj, g.n)
    if hit is None:
        return None
    return ForbiddenWitness(K5_MINUS_P3, hit)


def is_in_class(g: Graph) -> ClassVerdict:
    """Decide class membership; the claw is checked first.

    On a claw-free graph with more than half of all possible edges, the
    K5-P3 search is cubic, so claw_free_has_k5_minus_p3 decides first and
    the search runs only on a yes, for the same least witness.
    """
    n = g.n
    w = find_claw(g)
    if w is None and (
        4 * g.edge_count <= n * (n - 1) or K.claw_free_has_k5_minus_p3(g.adj, n)
    ):
        w = find_k5_minus_p3(g)
    if w is None:
        return ClassVerdict(True)
    return ClassVerdict(False, w)


def _is_c5(adj, sub: int) -> bool:
    if sub.bit_count() != 5:
        return False
    for v in iter_bits(sub):
        if (adj[v] & sub).bit_count() != 2:
            return False
    # 2-regular on 5 vertices is necessarily a single 5-cycle
    return True


def _is_p4(adj, sub: int) -> bool:
    if sub.bit_count() != 4:
        return False
    degs = sorted((adj[v] & sub).bit_count() for v in iter_bits(sub))
    # 4 vertices, degree multiset (1,1,2,2): only the path realizes it
    return degs == [1, 1, 2, 2]


def verify_neighborhood_all_cliques(g: Graph, u: int) -> bool:
    """True iff one of the four shapes holds for EVERY maximum clique of <N(u)>.

    That is: <N(u)> is a C5, a P4, a clique minus a matching, or two cliques
    with no edges between them (proof in the module docstring). Every graph
    in the class reads True at every vertex; outside it the reading may be
    False.
    """
    if not (0 <= u < g.n):
        raise VertexOutOfRangeError(f"vertex {u} outside 0..{g.n - 1}")
    adj = g.adj
    sub = adj[u]
    # a clique minus a matching: each v misses at most one other vertex
    m = sub
    while m:
        b = m & -m
        x = sub & ~adj[b.bit_length() - 1] & ~b
        if x & (x - 1):
            break
        m ^= b
    else:
        return True
    # two cliques with no edges between them: each closed neighborhood in
    # sub is the side of its vertex, the first vertex's or the rest
    first = sub & -sub
    side = (adj[first.bit_length() - 1] | first) & sub
    m = sub
    while m:
        b = m & -m
        if (adj[b.bit_length() - 1] | b) & sub != (side if b & side else sub ^ side):
            break
        m ^= b
    else:
        return True
    return sub.bit_count() in (4, 5) and (_is_c5(adj, sub) or _is_p4(adj, sub))
