"""Constructive coloring for in-class graphs by insertion with repair.

Vertices are inserted one at a time while a proper coloring of the current
prefix is maintained inside a target palette: the prefix clique number when
the prefix satisfies max-degree <= 2*clique-3, one more color otherwise. The
target never shrinks as the prefix grows, so earlier colors stay valid.

Each new vertex is colored by the first applicable mechanism:

  direct         some palette color is absent from the neighborhood
  kempe_swap     one two-class component swap frees a color at the vertex
  exact_fallback exact recoloring of the whole prefix at the target size,
                 guaranteed to exist for in-class prefixes

Correctness rests on the exact fallback alone: a failed Kempe attempt writes
no color, so it only decides how often the fallback runs. The RepairTrace
records which mechanism colored each vertex.

omega_color_strict and class_color run the same coloring; the first only
rejects up front a graph whose max degree exceeds 2*clique - 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits, mask_components
from .cliques import omega as omega_of
from .coloring import ORACLE_MAX_VERTICES, Coloring, verify_proper
from .errors import (
    BoundViolatedError,
    ClaimViolationError,
    NotInClassError,
    ScaleExceededError,
)
from .graph import Graph, degree_profile
from .recognition import is_in_class

DIRECT = "direct"
KEMPE_SWAP = "kempe_swap"
EXACT_FALLBACK = "exact_fallback"


@dataclass(frozen=True)
class RepairTrace:
    """Which mechanism colored each vertex, plus aggregate counts."""

    steps: tuple[tuple[int, str], ...]
    direct_colors: int
    kempe_swaps: int
    exact_fallbacks: int
    # always 0: kept only because the benchmark tracer still reads them
    pair_recolor_moves: int = 0
    cascade_moves: int = 0

    @classmethod
    def from_steps(cls, steps: list[tuple[int, str]]) -> "RepairTrace":
        counts = {DIRECT: 0, KEMPE_SWAP: 0, EXACT_FALLBACK: 0}
        for _, mech in steps:
            counts[mech] += 1
        return cls(
            tuple(steps),
            counts[DIRECT],
            counts[KEMPE_SWAP],
            counts[EXACT_FALLBACK],
        )


def _try_kempe_swap(adj, colors, u, nb, prefix, target) -> bool:
    """Swap one two-class component so a palette color frees up at u."""
    cmask = [0] * (target + 1)
    m = prefix
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        cmask[colors[v]] |= b
    for alpha in range(1, target + 1):
        a_nb = nb & cmask[alpha]
        for beta in range(alpha + 1, target + 1):
            b_nb = nb & cmask[beta]
            sub = cmask[alpha] | cmask[beta]
            for comp in mask_components(adj, sub):
                if not comp & nb:
                    continue
                if a_nb & ~comp == 0 and b_nb & comp == 0:
                    freed = alpha
                elif b_nb & ~comp == 0 and a_nb & comp == 0:
                    freed = beta
                else:
                    continue
                for v in iter_bits(comp):
                    colors[v] = beta if colors[v] == alpha else alpha
                colors[u] = freed
                return True
    return False


def _prefix_proper(adj, colors, prefix) -> bool:
    for v in iter_bits(prefix):
        m = adj[v] & prefix & (-1 << (v + 1))
        while m:
            b = m & -m
            if colors[b.bit_length() - 1] == colors[v]:
                return False
            m ^= b
    return True


def color_in_class(
    g: Graph, *, debug_validate: bool = False
) -> tuple[Coloring, RepairTrace]:
    """Insertion coloring of a graph already known to be in the class.

    Uses omega colors when max degree <= 2*omega - 3, at most omega + 1
    otherwise, or raises ClaimViolationError. The public entry points
    omega_color_strict / class_color run the precondition checks; sweeps
    that performed recognition themselves call this directly.
    """
    n, adj = g.n, g.adj
    colors = [0] * n
    prefix = 0
    omega_p = 0
    delta_p = 0
    deg = [0] * n
    steps: list[tuple[int, str]] = []
    for u in range(n):
        nb = adj[u] & prefix
        through = 1 + K.clique_number(adj, n, nb)
        if through > omega_p:
            omega_p = through
        du = nb.bit_count()
        deg[u] = du
        if du > delta_p:
            delta_p = du
        m = nb
        while m:
            b = m & -m
            w = b.bit_length() - 1
            m ^= b
            deg[w] += 1
            if deg[w] > delta_p:
                delta_p = deg[w]
        target = omega_p if delta_p <= 2 * omega_p - 3 else omega_p + 1
        prefix_new = prefix | (1 << u)

        used = 0
        m = nb
        while m:
            b = m & -m
            used |= 1 << (colors[b.bit_length() - 1] - 1)
            m ^= b
        free = ~used & ((1 << target) - 1)
        if free:
            colors[u] = (free & -free).bit_length()
            mech = DIRECT
        elif _try_kempe_swap(adj, colors, u, nb, prefix, target):
            mech = KEMPE_SWAP
        else:
            clique = K.lex_min_max_clique(adj, n, prefix_new)
            sol = K.k_color(adj, n, prefix_new, target, clique)
            if sol is None:
                raise ClaimViolationError(
                    "prefix_colorable",
                    g,
                    f"no {target}-coloring of an in-class prefix "
                    f"(omega={omega_p}, delta={delta_p})",
                )
            for v in iter_bits(prefix_new):
                colors[v] = sol[v]
            mech = EXACT_FALLBACK
        steps.append((u, mech))
        prefix = prefix_new
        if debug_validate and not _prefix_proper(adj, colors, prefix):
            raise ClaimViolationError(
                "prefix_proper", g, f"improper prefix after inserting {u} via {mech}"
            )

    out = Coloring(tuple(colors)).canonical()
    if verify_proper(g, out) is not None:
        raise ClaimViolationError("colorer_proper", g, "output coloring improper")
    # the last target is the whole graph's: omega under the bound, else omega + 1
    if n and out.colors_used > target:
        raise ClaimViolationError(
            "colorer_bound", g, f"used {out.colors_used} colors, target is {target}"
        )
    return out, RepairTrace.from_steps(steps)


def _check_preconditions(g: Graph) -> None:
    if g.n > ORACLE_MAX_VERTICES:
        raise ScaleExceededError(
            f"constructive colorer capped at {ORACLE_MAX_VERTICES} vertices"
        )
    verdict = is_in_class(g)
    if not verdict:
        raise NotInClassError(verdict.witness)


def omega_color_strict(g: Graph) -> tuple[Coloring, RepairTrace]:
    """Color an in-class graph with exactly its clique number of colors.

    Requires max degree <= 2*omega - 3; raises BoundViolatedError otherwise.
    """
    _check_preconditions(g)
    w = omega_of(g)
    delta = degree_profile(g)[1]
    if delta > 2 * w - 3:
        raise BoundViolatedError(delta, w)
    return color_in_class(g)


def class_color(g: Graph) -> tuple[Coloring, RepairTrace]:
    """Color an in-class graph with at most clique number + 1 colors.

    Uses exactly the clique number when max degree <= 2*omega - 3.
    """
    _check_preconditions(g)
    return color_in_class(g)
