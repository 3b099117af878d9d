"""Constructive coloring for in-class graphs by insertion with repair.

Vertices are inserted one at a time while a proper coloring of the current
prefix is maintained inside a target palette: the prefix clique number when
the prefix satisfies max-degree <= 2*clique-3, one more color otherwise
(target_colors). The target never shrinks as the prefix grows, so earlier
colors stay valid. Inserting a vertex u raises the prefix clique number by
one at most, and exactly when its earlier neighbors hold a clique of the old
size, so the prefix clique number is kept by increment: one has_clique query
per vertex, which stops at the first such clique, instead of a full clique
search. A vertex v resumed by resume_last reads the same fact off a table
of its prefix P instead, built once for all of P's extensions
(K.clique_table: bit s is set iff s holds a clique of size omega(P)), and
the maximum degree off the mask of P's vertices of degree delta(P):
delta = max(delta(P) + [N(v) meets that mask], |N(v)|), since only the
vertices of N(v) gain a neighbor, v, and each gains exactly one.

Each new vertex is colored by the first applicable mechanism:

  direct         some palette color is absent from the neighborhood
  kempe_swap     one two-class component swap frees a color at the vertex
  exact_fallback exact recoloring of the whole prefix at the target size,
                 guaranteed to exist for in-class prefixes

Correctness rests on the exact fallback alone: a failed Kempe attempt writes
no color, so it only decides how often the fallback runs. The RepairTrace
records which mechanism colored each vertex; finish_coloring builds it from
the state's masks of the vertices a Kempe swap and the exact fallback
colored. The first two mechanisms are color_step, which
report.color_in_order also runs, to extend a coloring of G - v at v.

A vertex's insertion reads only its earlier neighbors, and the clique
query, the Kempe swap and the exact fallback stay inside the prefix. So the
colorer's state after vertices 0..k-1 (InsertionState) depends only on the
graph those vertices induce: a graph that extends that prefix can resume
from it, as the exhaustive sweep does, and get the coloring that starting
from vertex 0 would give; resume_last resumes one vertex, the last, and
insert_last makes the state after it. Both insert_vertices and resume_last
run the same step at a vertex, color_step and then the exact fallback
(_exact_fallback). color_step reads no edge of v but its neighborhood, so
resume_last runs it on the prefix's adjacency and builds the whole graph's
only for the exact fallback: the exhaustive sweep checks a child without
building it.

omega_color_strict and class_color run the same coloring; the first also
rejects a graph whose max degree exceeds 2*clique - 3, read off its state.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits, mask_components
from .coloring import ORACLE_MAX_VERTICES, Coloring, verify_proper
from .errors import (
    BoundViolatedError,
    ClaimViolationError,
    NotInClassError,
    ScaleExceededError,
)
from .graph import Graph
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
    # always 0, and not fields: kept only because the benchmark tracer reads them
    pair_recolor_moves = 0
    cascade_moves = 0


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


def target_colors(w: int, delta: int) -> int:
    """The colorer's palette for clique number w and maximum degree delta:
    w colors when delta <= 2*w - 3, else w + 1."""
    return w if delta <= 2 * w - 3 else w + 1


def color_step(adj, colors, u, nb, prefix, target) -> str | None:
    """Color u inside the palette 1..target by the colorer's own step: the
    least color absent from nb, u's neighbors in prefix, else one Kempe swap
    in prefix. Returns the mechanism, or None with colors untouched when
    neither applies."""
    used = 0
    m = nb
    while m:
        b = m & -m
        used |= 1 << (colors[b.bit_length() - 1] - 1)
        m ^= b
    free = ~used & ((1 << target) - 1)
    if free:
        colors[u] = (free & -free).bit_length()
        return DIRECT
    if _try_kempe_swap(adj, colors, u, nb, prefix, target):
        return KEMPE_SWAP
    return None


class InsertionState:
    """The colorer after inserting vertices 0..k-1 of a graph, k = len(colors):
    the colors, as a tuple, the prefix clique number and maximum degree, and
    the masks of the vertices that a Kempe swap (kempe) and the exact
    fallback (fallback) colored; every other vertex was colored directly.

    failure holds the message of an exact fallback that found no coloring;
    insertion stopped there, the other fields are stale, and finish_coloring
    raises it. A plain class: a dataclass would add to the import time.
    """

    __slots__ = ("colors", "omega", "delta", "failure", "kempe", "fallback")

    def __init__(
        self,
        colors: tuple[int, ...],
        omega: int,
        delta: int,
        failure: str | None = None,
        kempe: int = 0,
        fallback: int = 0,
    ):
        self.colors = colors
        self.omega = omega
        self.delta = delta
        self.failure = failure
        self.kempe = kempe
        self.fallback = fallback


def grown(adj, s: int) -> tuple:
    """The adjacency of adj plus a vertex joined to s."""
    vbit = 1 << len(adj)
    return (*[a | vbit if s >> u & 1 else a for u, a in enumerate(adj)], s)


def _exact_fallback(adj, colors, u, target) -> bool:
    """Recolor vertices 0..u exactly inside the palette 1..target, by
    K.k_color from the least maximum clique; False, with colors untouched,
    when there is no such coloring."""
    n, prefix = len(adj), (2 << u) - 1
    sol = K.k_color(adj, n, prefix, target, K.lex_min_max_clique(adj, n, prefix))
    if sol is None:
        return False
    colors[: u + 1] = sol[: u + 1]
    return True


def insert_vertices(g: Graph) -> InsertionState:
    """The colorer's state after all of g, inserted from vertex 0."""
    n, adj = g.n, g.adj
    omega_p = delta_p = kempe = fallback = prefix = 0
    colors = [0] * n
    for u in range(n):
        nb = adj[u] & prefix
        # u raises the prefix clique number, by one at most, iff N(u) in the
        # prefix holds a clique of the old size
        if K.has_clique(adj, n, nb, omega_p):
            omega_p += 1
        prefix_new = prefix | (1 << u)
        du = nb.bit_count()
        if du > delta_p:
            delta_p = du
        m = nb
        while m:
            b = m & -m
            m ^= b
            dw = (adj[b.bit_length() - 1] & prefix_new).bit_count()
            if dw > delta_p:
                delta_p = dw
        target = target_colors(omega_p, delta_p)

        mech = color_step(adj, colors, u, nb, prefix, target)
        if mech == KEMPE_SWAP:
            kempe |= 1 << u
        elif mech is None:
            if not _exact_fallback(adj, colors, u, target):
                failure = (
                    f"no {target}-coloring of an in-class prefix "
                    f"(omega={omega_p}, delta={delta_p})"
                )
                return InsertionState(tuple(colors), omega_p, delta_p, failure)
            fallback |= 1 << u
        prefix = prefix_new
    return InsertionState(tuple(colors), omega_p, delta_p, None, kempe, fallback)


def resume_last(
    adj, parent: InsertionState, s: int, cliques: int, top: int
) -> tuple[list[int], int, int, str | None]:
    """The colorer's step at a new vertex v = len(parent.colors) joined to
    s, resumed from parent, the state after P = G - v, which did not fail,
    and adj, P's adjacency: (colors of G, omega(G), delta(G), the
    mechanism), the mechanism None when even the exact fallback gives no
    coloring.

    omega and delta are read off two masks of P: cliques, bit s set iff s
    holds a clique of size omega(P) (K.clique_table), and top, P's vertices
    of degree delta(P). omega rises by bit s of cliques, and
    delta = max(delta(P) + [s meets top], |s|). color_step reads the colors
    on s and, for a Kempe swap, the two-class components inside P, whose
    edges in G are P's; only the exact fallback reads G's adjacency, which
    is built for it.
    """
    omega = parent.omega + (cliques >> s & 1)
    delta = parent.delta + (s & top != 0)
    size = s.bit_count()
    if size > delta:
        delta = size
    v = len(parent.colors)
    colors = [*parent.colors, 0]
    target = target_colors(omega, delta)
    mech = color_step(adj, colors, v, s, (1 << v) - 1, target)
    if mech is None and _exact_fallback(grown(adj, s), colors, v, target):
        mech = EXACT_FALLBACK
    return colors, omega, delta, mech


def insert_last(
    g: Graph, parent: InsertionState, step: tuple[list[int], int, int, str | None]
) -> InsertionState:
    """The colorer's state after all of g, resumed from parent, the state
    after all but g's last vertex v, which did not fail, and step,
    resume_last's at v: step's colors, omega and delta, and v in the mask
    of its mechanism. Where the step gave no coloring, the failed state is
    rebuilt by insert_vertices(g).
    """
    colors, omega, delta, mech = step
    if mech is None:
        return insert_vertices(g)
    bit = 1 << (g.n - 1)
    kempe = parent.kempe | bit if mech == KEMPE_SWAP else parent.kempe
    fallback = parent.fallback | bit if mech == EXACT_FALLBACK else parent.fallback
    return InsertionState(tuple(colors), omega, delta, None, kempe, fallback)


def finish_coloring(g: Graph, state: InsertionState) -> tuple[Coloring, RepairTrace]:
    """Check the state after all of g and return its coloring.

    Raises ClaimViolationError when insertion failed, or when the coloring is
    improper or uses more colors than the paper's bound: omega colors when
    max degree <= 2*omega - 3, omega + 1 otherwise. The bound is tested
    here, not read off target_colors, the rule the colorer colors by, so a
    fault in that rule is raised.
    """
    if state.failure is not None:
        raise ClaimViolationError("prefix_colorable", g, state.failure)
    out = Coloring(state.colors).canonical()
    if verify_proper(g, out) is not None:
        raise ClaimViolationError("colorer_proper", g, "output coloring improper")
    w = state.omega
    bound = w if state.delta <= 2 * w - 3 else w + 1
    if out.colors_used > bound:
        raise ClaimViolationError(
            "colorer_bound", g, f"used {out.colors_used} colors, bound is {bound}"
        )
    mechs = [DIRECT] * len(state.colors)
    for mask, mech in ((state.kempe, KEMPE_SWAP), (state.fallback, EXACT_FALLBACK)):
        for u in iter_bits(mask):
            mechs[u] = mech
    k, f = state.kempe.bit_count(), state.fallback.bit_count()
    # through a list, whose length is known: a tuple grown from a bare
    # iterator is resized as it fills, which fragments memory and raised the
    # CLI benchmarks' peak RSS by 1-2 MB
    return out, RepairTrace(tuple(list(enumerate(mechs))), len(mechs) - k - f, k, f)


def color_in_class(g: Graph) -> tuple[Coloring, RepairTrace]:
    """Insertion coloring of a graph already known to be in the class.

    Uses omega colors when max degree <= 2*omega - 3, at most omega + 1
    otherwise, or raises ClaimViolationError. class_color runs the
    precondition checks first.
    """
    return finish_coloring(g, insert_vertices(g))


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
    state = insert_vertices(g)
    if state.failure is None and state.delta > 2 * state.omega - 3:
        raise BoundViolatedError(state.delta, state.omega)
    return finish_coloring(g, state)


def class_color(g: Graph) -> tuple[Coloring, RepairTrace]:
    """Color an in-class graph with at most clique number + 1 colors.

    Uses exactly the clique number when max degree <= 2*omega - 3.
    """
    _check_preconditions(g)
    return color_in_class(g)
