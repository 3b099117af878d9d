"""Coloring values, the properness and Kempe-component checks, the DSATUR
baseline and the exact oracle.

exact_chromatic is the ground truth the verification sweeps compare
everything against: it brackets the search between the clique number and the
color count of a proper coloring, each given by the caller or computed here,
and decides each k by exact backtracking. The coloring computed here is
DSATUR, the search's own first leaf: k_color's first descent with a palette
as large as the graph. Outputs are canonicalized (colors renumbered by first
occurrence in vertex order) so identical inputs produce identical bytes
downstream.
"""

from __future__ import annotations

from . import _kernels as K
from .errors import PartialColoringError, ScaleExceededError
from .graph import Graph

ORACLE_MAX_VERTICES = 64


class Coloring:
    """Total vertex -> color assignment; colors are 1-based. A plain class:
    the sweeps build one per graph, and a frozen dataclass's __init__ costs
    more. Equal, hashable and printed as a frozen dataclass would be."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: tuple[int, ...]):
        self.assignment = assignment

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.assignment == other.assignment

    def __hash__(self):
        return hash((self.assignment,))

    def __repr__(self):
        return f"Coloring(assignment={self.assignment!r})"

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))

    def canonical(self) -> "Coloring":
        """Renumber colors by first occurrence in vertex order."""
        relabel: dict[int, int] = {}
        out = []
        for c in self.assignment:
            if c not in relabel:
                relabel[c] = len(relabel) + 1
            out.append(relabel[c])
        return Coloring(tuple(out))


def class_masks(colors) -> dict[int, int]:
    """Color -> bitmask of the vertices carrying it, for colors[v] the
    color of vertex v."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | 1 << v
    return masks


def check_classes(adj, colors, check: int) -> tuple[bool, int | None, int]:
    """Properness and the two-class degree test at the vertices of check.

    colors[u] is u's color. Returns (True iff no vertex of check has a
    neighbor of its own color, the least vertex of check of degree >= 3 in
    some two-class subgraph, else None, the number of colors). A vertex
    u of color a has degree |N(u) & C_a| + |N(u) & C_b| in the (a, b)
    subgraph, for each other present color b; same-colored neighbors of an
    improper coloring count in every pair containing a. Each answer at u
    reads only N(u) and the colors on N[u], besides which colors are
    present. The scan stops once both answers are known.
    """
    masks = class_masks(colors)
    proper = True
    branch = None
    while check:
        b = check & -check
        check ^= b
        u = b.bit_length() - 1
        nu = adj[u]
        own_mask = masks[colors[u]]
        own = (nu & own_mask).bit_count()
        if own:
            proper = False
        if branch is None and nu.bit_count() >= 3:
            for mask in masks.values():
                if mask != own_mask and own + (nu & mask).bit_count() >= 3:
                    branch = u
                    break
        if not proper and branch is not None:
            break
    return proper, branch, len(masks)


def _check_total(g: Graph, coloring: Coloring) -> None:
    a = coloring.assignment
    if len(a) != g.n:
        raise PartialColoringError(
            f"assignment covers {len(a)} vertices, graph has {g.n}"
        )
    for v, c in enumerate(a):
        if c < 1:
            raise PartialColoringError(f"vertex {v} is uncolored")


def verify_proper(g: Graph, coloring: Coloring) -> tuple[int, int] | None:
    """None when proper, else the least monochromatic edge (u, v)."""
    _check_total(g, coloring)
    a = coloring.assignment
    masks = class_masks(a)
    for u, nu in enumerate(g.adj):
        clash = nu & masks[a[u]] & (-1 << (u + 1))
        if clash:
            return (u, (clash & -clash).bit_length() - 1)
    return None


def find_branching_component(g: Graph, coloring: Coloring) -> int | None:
    """Least vertex of degree >= 3 in some two-class subgraph, else None.

    In a claw-free graph every component of the subgraph induced by two
    color classes of a proper coloring is a path or a cycle, so None is
    expected there. Degrees count as check_classes counts them, over every
    vertex.
    """
    a = coloring.assignment
    return check_classes(g.adj, a, g.full_mask())[1]


def dsatur_greedy(g: Graph) -> Coloring:
    """Deterministic DSATUR coloring; an upper bound for the exact search."""
    raw = K.dsatur(g.adj, g.n, g.full_mask())
    return Coloring(tuple(raw)).canonical()


def exact_chromatic(
    g: Graph, upper: Coloring | None = None, lower: int | None = None
) -> tuple[int, Coloring]:
    """The chromatic number plus a witness coloring.

    Bracketed below by lower, the clique number of g (computed when not
    given), and above by upper, a proper coloring of g (dsatur_greedy(g)
    when not given); exact backtracking decides each k in between, from the
    lexicographically least maximum clique precolored, which is built only
    when the bracket is open. When no k below the bracket's top succeeds,
    upper itself is the witness.
    """
    if g.n > ORACLE_MAX_VERTICES:
        raise ScaleExceededError(
            f"exact chromatic oracle capped at {ORACLE_MAX_VERTICES} vertices"
        )
    adj, n, full = g.adj, g.n, g.full_mask()
    lo = K.clique_number(adj, n, full) if lower is None else lower
    if upper is None:
        upper = dsatur_greedy(g)
    hi = upper.colors_used
    if lo < hi:
        clique = K.lex_min_max_clique(adj, n, full)
        for k in range(lo, hi):
            raw = K.k_color(adj, n, full, k, clique)
            if raw is not None:
                return k, Coloring(tuple(raw)).canonical()
    return hi, upper
