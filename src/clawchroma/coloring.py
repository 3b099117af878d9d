"""Proper-coloring values, the DSATUR baseline, and the exact oracle.

exact_chromatic is the ground truth the verification sweeps compare
everything against: it brackets the search between the clique number and the
DSATUR color count (each computed by the caller or here) and decides each k
by exact backtracking. The top of the bracket is that search's own first
leaf: DSATUR is k_color's first descent with a palette as large as the
graph. Outputs are canonicalized (colors renumbered by first
occurrence in vertex order) so identical inputs produce identical bytes
downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits
from .errors import PartialColoringError, ScaleExceededError
from .graph import Graph

ORACLE_MAX_VERTICES = 64


@dataclass(frozen=True)
class Coloring:
    """Total vertex -> color assignment; colors are 1-based."""

    assignment: tuple[int, ...]

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment))

    @property
    def class_masks(self) -> dict[int, int]:
        """Color -> bitmask of the vertices carrying it."""
        masks: dict[int, int] = {}
        for v, c in enumerate(self.assignment):
            masks[c] = masks.get(c, 0) | 1 << v
        return masks

    def canonical(self) -> "Coloring":
        """Renumber colors by first occurrence in vertex order."""
        relabel: dict[int, int] = {}
        out = []
        for c in self.assignment:
            if c not in relabel:
                relabel[c] = len(relabel) + 1
            out.append(relabel[c])
        return Coloring(tuple(out))


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
    masks = coloring.class_masks
    for u, nu in enumerate(g.adj):
        clash = nu & masks[a[u]] & (-1 << (u + 1))
        if clash:
            return (u, (clash & -clash).bit_length() - 1)
    return None


def dsatur_greedy(g: Graph) -> Coloring:
    """Deterministic DSATUR coloring; an upper bound for the exact search."""
    raw = K.dsatur(g.adj, g.n, g.full_mask())
    return Coloring(tuple(raw)).canonical()


def _pruning_clique(g: Graph) -> int:
    if g.n <= ORACLE_MAX_VERTICES:
        return K.lex_min_max_clique(g.adj, g.n, g.full_mask())
    # beyond oracle scale fall back to a cheap greedy clique for pruning
    mask = 0
    cand = g.full_mask()
    while cand:
        best, bd = -1, -1
        for v in iter_bits(cand):
            d = (g.adj[v] & cand).bit_count()
            if d > bd:
                best, bd = v, d
        mask |= 1 << best
        cand &= g.adj[best]
    return mask


def k_colorable(g: Graph, k: int) -> Coloring | None:
    """A proper coloring with at most k colors iff one exists; exact."""
    if k < 0:
        return None
    # n colors always suffice, so larger palettes decide identically
    raw = K.k_color(g.adj, g.n, g.full_mask(), min(k, g.n), _pruning_clique(g))
    if raw is None:
        return None
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
    if g.n == 0:
        return 0, Coloring(())
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
