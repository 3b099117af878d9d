"""Trichotomy classification of a single graph, plus its JSON form.

Every in-class graph falls into one of three branches by its max degree
relative to twice the clique number:

  wheel_case   delta == 2*omega - 1: forced (delta, omega) == (5, 3),
               chi == omega + 1, and a 6-vertex wheel occurs induced
  middle_case  delta == 2*omega - 2
  omega_case   delta <= 2*omega - 3: chi == omega

with omega <= chi <= omega + 1 in all three and never delta > 2*omega - 1.
Deciding chi is polynomial and constructive in the omega branch: the
insertion coloring uses omega colors. The wheel branch is the single
point (delta, omega) == (5, 3). The middle branch is NP-hard: for H cubic
and triangle-free, L(H) is in the class with omega == 3 and delta == 4,
and chi(L(H)) == 3 iff H is 3-edge-colorable (Holyer 1981).
trichotomy states these facts once and returns each failed one as a
ClaimViolationError named by its category: classify_trichotomy raises the
first (silence is never an option here), the stress sweep counts them all.

prove_chi decides chi by proof from omega and a proper coloring:

  1. the coloring uses omega colors: chi == omega;
  2. it uses omega + 1 colors and a join-count certificate exists: an S in
     {V} + {N[v]}, or a connected component of a disconnected graph (an odd
     cycle beside an isolated vertex has an independent triple in V), with
     U the vertices of S adjacent to all the rest of S, such that
     |U| + ceil(|S - U| / alpha(S - U)) > omega. U is joined to S - U, so
     chi(S) = |U| + chi(S - U) >= |U| + |S - U| / alpha(S - U), and
     chi == omega + 1;
  3. omega colors first: the colorer's own step (colorer.color_step, the
     least free color, else one Kempe swap) colors the graph in omega
     colors, in index order, else in reverse, else smallest-last
     (color_in_order); a success is the witness of chi == omega;
  4. it uses omega + 1 colors and some S = V - v has a join-count
     certificate (a vertex outside an obstruction can spoil V's count);
  5. otherwise the exact oracle decides, bracketed by omega and the coloring.

Step 2 comes before omega colors first: on a graph with chi = omega + 1 all
three orders fail, so trying them first is wasted work wherever a
certificate exists, as on blown-up odd cycles: classify_trichotomy over
W5 and twelve of them took 6.1 ms per pass that way against 2.1 ms (medians
of 15, Python 3.11 on a 2-vCPU VM). Step 4 comes after them: its n searches
are wasted on every graph with chi = omega that reaches it, as in the random
sweep, where step 3 closes every such graph. No witness is checked here; a
caller that trusts chi checks the witness unless it is the coloring it
handed over.

classify_trichotomy and the stress sweep both give it the insertion coloring
and read omega and the maximum degree off the colorer's state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits, mask_components, universal_vertices
# unused here, imported for the benchmark tracer, which wraps them at report:
# omega_of, color_in_class
from .cliques import omega as omega_of  # noqa: F401
from .colorer import color_in_class, color_step, finish_coloring, insert_vertices  # noqa: F401
from .coloring import ORACLE_MAX_VERTICES, Coloring, exact_chromatic, verify_proper
from .errors import ClaimViolationError, ScaleExceededError
from .graph import Graph
from .recognition import ForbiddenWitness, _is_c5, is_in_class

WHEEL_CASE = "wheel_case"
MIDDLE_CASE = "middle_case"
OMEGA_CASE = "omega_case"
OUT_OF_CLASS = "out_of_class"

# claim categories, shared with the stress sweep's violation counters
CHI_EQUALS_OMEGA = "chi_equals_omega"
CHI_WITHIN_ONE = "chi_within_one"
DEGREE_BOUND = "degree_bound"
WHEEL_BRANCH = "wheel_branch"


@dataclass(frozen=True)
class ClassReport:
    in_class: bool
    omega: int | None
    delta: int | None
    chi: int | None
    branch: str
    w6_witness: tuple[int, ...] | None
    coloring: Coloring | None
    witnesses: tuple[ForbiddenWitness, ...]


def find_induced_wheel6(g: Graph) -> tuple[int, ...] | None:
    """Least induced 6-vertex wheel (hub plus 5-cycle), as a sorted 6-tuple.

    Read off the least hub u whose <N(u)> is a 5-cycle. That is exact on
    in-class graphs, the only ones trichotomy is given: there every <N(u)>
    has one of the four shapes, each a C5 or co-bipartite (a P4, a clique
    minus a matching, two disjoint cliques), and a co-bipartite graph has
    no induced C5, so no larger N(u) holds a wheel's rim.
    """
    adj = g.adj
    for hub in range(g.n):
        if _is_c5(adj, adj[hub]):
            return tuple(iter_bits(adj[hub] | 1 << hub))
    return None


def _certifies(adj, co_adj, n: int, s: int, w: int) -> bool:
    """True iff S = s has a join-count certificate chi(S) > w; co_adj is
    the complement's adjacency."""
    u = universal_vertices(adj, s)
    rest = s & ~u
    if not rest:
        return False
    # U plus any vertex of R is a clique, so |U| < w unless w is below the
    # clique number, and then |U| + ceil(|R| / alpha(R)) > w already; else
    # that holds iff R has no independent set of ceil(|R| / (w - |U|))
    # vertices
    free = w - u.bit_count()
    if free <= 0:
        return True
    return not K.has_clique(co_adj, n, rest, -(-rest.bit_count() // free))


def _chi_exceeds(g: Graph, w: int) -> bool:
    """True iff some S in {V} + {N[v]}, or a connected component of a
    disconnected g, has a join-count certificate chi > w."""
    adj, n, full = g.adj, g.n, g.full_mask()
    co_adj = [full & ~(a | 1 << v) for v, a in enumerate(adj)]
    for s in (full, *(a | 1 << v for v, a in enumerate(adj))):
        if _certifies(adj, co_adj, n, s, w):
            return True
    comps = mask_components(adj, full)
    return len(comps) > 1 and any(_certifies(adj, co_adj, n, c, w) for c in comps)


def _chi_exceeds_without_a_vertex(g: Graph, w: int) -> bool:
    """True iff some V - v has a join-count certificate chi > w."""
    adj, n, full = g.adj, g.n, g.full_mask()
    co_adj = [full & ~(a | 1 << v) for v, a in enumerate(adj)]
    return any(_certifies(adj, co_adj, n, full ^ 1 << v, w) for v in range(n))


def color_in_order(adj, colors, order, prefix: int, target: int) -> bool:
    """Color the vertices of order, one at a time, by the colorer's own step
    (colorer.color_step) inside the palette 1..target, into colors. prefix
    is the mask of the vertices already colored, and each vertex is colored
    against its neighbors there, then joins it. adj is read at the vertices
    of order and, by a Kempe swap, inside prefix. False at the first vertex
    that neither step colors."""
    for u in order:
        if color_step(adj, colors, u, adj[u] & prefix, prefix, target) is None:
            return False
        prefix |= 1 << u
    return True


def _orders(adj):
    """The vertex orders omega colors first tries, each made when the one
    before failed: index order, its reverse, and smallest-last (remove a
    vertex of least degree among those left, the least such, until none is
    left, and take them in reverse order of removal)."""
    n = len(adj)
    yield range(n)
    yield range(n - 1, -1, -1)
    left = (1 << n) - 1
    removed = []
    while left:
        u = min(iter_bits(left), key=lambda x: (adj[x] & left).bit_count())
        removed.append(u)
        left ^= 1 << u
    yield removed[::-1]


def _omega_coloring(g: Graph, w: int) -> Coloring | None:
    """A w-coloring of g by color_in_order in one of _orders, or None."""
    for order in _orders(g.adj):
        colors = [0] * g.n
        if color_in_order(g.adj, colors, order, 0, w):
            return Coloring(tuple(colors))
    return None


def prove_chi(g: Graph, w: int, upper: Coloring) -> tuple[int, Coloring]:
    """(chi, witness coloring) of an in-class graph with clique number w, by
    the five steps above from upper, a proper coloring. upper is the
    witness unless another coloring with fewer colors is. No witness is
    checked here: chi rests on the witness, so a caller that trusts chi
    checks it, unless it is upper."""
    k = upper.colors_used
    if k == w or k == w + 1 and _chi_exceeds(g, w):
        return k, upper
    colored = _omega_coloring(g, w)
    if colored is not None:
        return w, colored
    if k == w + 1 and _chi_exceeds_without_a_vertex(g, w):
        return k, upper
    return exact_chromatic(g, upper, w)


def trichotomy(
    g: Graph, w: int, delta: int, chi: int
) -> tuple[str | None, tuple[int, ...] | None, tuple[ClaimViolationError, ...]]:
    """(branch, induced 6-wheel or None, failed facts in check order) of an
    in-class graph; the branch is None when delta exceeds 2*omega - 1. Each
    fact is tested once, and an error is built only for a fact that fails."""
    if g.n == 0:
        return OMEGA_CASE, None, ()
    w6 = None
    failures: tuple[ClaimViolationError, ...] = ()
    if delta <= 2 * w - 3:
        branch = OMEGA_CASE
        if chi != w:
            failures = (ClaimViolationError(
                CHI_EQUALS_OMEGA, g, f"bounded-degree case with chi = {chi}, omega = {w}"
            ),)
    elif delta == 2 * w - 2:
        branch = MIDDLE_CASE
    elif delta == 2 * w - 1:
        branch = WHEEL_CASE
        if (delta, w) != (5, 3):
            failures += (ClaimViolationError(
                DEGREE_BOUND, g, f"delta == 2*omega - 1 with (delta, omega) = ({delta}, {w})"
            ),)
        if chi != w + 1:
            failures += (ClaimViolationError(
                WHEEL_BRANCH, g, f"wheel case with chi = {chi}, omega = {w}"
            ),)
        w6 = find_induced_wheel6(g)
        if w6 is None:
            failures += (ClaimViolationError(
                WHEEL_BRANCH, g, "wheel case without an induced 6-vertex wheel"
            ),)
    else:
        branch = None
        failures = (ClaimViolationError(
            DEGREE_BOUND, g, f"delta = {delta} exceeds 2*omega - 1 = {2 * w - 1}"
        ),)
    if not w <= chi <= w + 1:
        failures += (ClaimViolationError(
            CHI_WITHIN_ONE, g, f"chi = {chi} outside omega..omega + 1 = {w}..{w + 1}"
        ),)
    return branch, w6, failures


def classify_trichotomy(g: Graph) -> ClassReport:
    """Full per-graph verdict: membership, invariants, branch, coloring."""
    if g.n > ORACLE_MAX_VERTICES:
        raise ScaleExceededError(
            f"trichotomy report capped at {ORACLE_MAX_VERTICES} vertices"
        )
    verdict = is_in_class(g)
    if not verdict:
        return ClassReport(
            in_class=False,
            omega=None,
            delta=None,
            chi=None,
            branch=OUT_OF_CLASS,
            w6_witness=None,
            coloring=None,
            witnesses=(verdict.witness,),
        )
    state = insert_vertices(g)
    coloring, _ = finish_coloring(g, state)
    w, delta = state.omega, state.delta
    chi, witness = prove_chi(g, w, coloring)
    branch, w6, failures = trichotomy(g, w, delta, chi)
    if failures:
        raise failures[0]
    # chi rests on the witness; finish_coloring checked the colorer's
    if witness is not coloring and (
        verify_proper(g, witness) is not None or witness.colors_used != chi
    ):
        raise ClaimViolationError(
            CHI_WITHIN_ONE, g, f"chi = {chi}, but its witness is not a proper {chi}-coloring"
        )
    return ClassReport(
        in_class=True,
        omega=w,
        delta=delta,
        chi=chi,
        branch=branch,
        w6_witness=w6,
        coloring=coloring,
        witnesses=(),
    )


def emit_report(report: ClassReport) -> str:
    """Stable JSON rendering; identical reports give identical bytes."""
    coloring = None
    if report.coloring is not None:
        coloring = {
            "assignment": list(report.coloring.assignment),
            "colors_used": report.coloring.colors_used,
        }
    payload = {
        "in_class": report.in_class,
        "omega": report.omega,
        "delta": report.delta,
        "chi": report.chi,
        "branch": report.branch,
        "w6_witness": list(report.w6_witness) if report.w6_witness else None,
        "coloring": coloring,
        "witnesses": [
            {"kind": w.kind, "vertices": list(w.vertices)} for w in report.witnesses
        ],
    }
    return json.dumps(payload, separators=(", ", ": ")) + "\n"
