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
     {V} + {N[v]}, with U the vertices of S adjacent to all the rest of S,
     such that |U| + ceil(|S - U| / alpha(S - U)) > omega. U is joined to
     S - U, so chi(S) = |U| + chi(S - U) >= |U| + |S - U| / alpha(S - U),
     and chi == omega + 1;
  3. otherwise the exact oracle decides, bracketed by omega and the coloring.

The stress sweep may also give it the chi and a witness coloring of G - v,
for v the last vertex. chi is hereditary, so chi(G) >= chi(G - v), and the
lower bound is the larger of that and omega: step 1 then closes when the
coloring uses that many colors. When it does not and chi(G - v) is the
bound, the witness of G - v is extended at v by the colorer's own step
(colorer.color_step) in its palette, the least free color, else one Kempe
swap; that result is the witness of chi == chi(G - v), which the sweep
checks proper, as it checks every witness but the colorer's own coloring.
Steps 2 and 3 follow only when neither coloring closes the bracket, and the
oracle starts at the bound.

classify_trichotomy and the stress sweep both give it the insertion coloring
and read omega and the maximum degree off the colorer's state;
classify_trichotomy gives no G - v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import _kernels as K
from .bitops import iter_bits, universal_vertices
# unused here, imported for the benchmark tracer, which wraps them at report:
# omega_of, color_in_class
from .cliques import omega as omega_of  # noqa: F401
from .colorer import color_in_class, color_step, finish_coloring, insert_vertices  # noqa: F401
from .coloring import ORACLE_MAX_VERTICES, Coloring, exact_chromatic
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


def _chi_exceeds(g: Graph, w: int) -> bool:
    """True iff some S in {V} + {N[v]} has a join-count certificate chi > w."""
    adj, n, full = g.adj, g.n, g.full_mask()
    co_adj = [full & ~(a | 1 << v) for v, a in enumerate(adj)]
    for s in (full, *(a | 1 << v for v, a in enumerate(adj))):
        u = universal_vertices(adj, s)
        rest = s & ~u
        if not rest:
            continue
        # U plus any vertex of R is a clique, so |U| < w unless w is below
        # the clique number, and then |U| + ceil(|R| / alpha(R)) > w
        # already; else that holds iff R has no independent set of
        # ceil(|R| / (w - |U|)) vertices
        free = w - u.bit_count()
        if free <= 0:
            return True
        need = -(-rest.bit_count() // free)
        if not K.has_clique(co_adj, n, rest, need):
            return True
    return False


def _extend_at_last(g: Graph, k: int, witness: Coloring) -> Coloring | None:
    """witness, a k-coloring of g minus its last vertex v, extended at v by
    the colorer's own step inside 1..k, or None when that step fails."""
    v = g.n - 1
    colors = [*witness.assignment, 0]
    prefix = (1 << v) - 1
    if color_step(g.adj, colors, v, g.adj[v] & prefix, prefix, k) is None:
        return None
    return Coloring(tuple(colors))


def prove_chi(
    g: Graph,
    w: int,
    upper: Coloring,
    parent: tuple[int, Coloring] | None = None,
) -> tuple[int, Coloring]:
    """(chi, witness coloring) of an in-class graph with clique number w, by
    the three steps above from upper, a proper coloring. parent, when given,
    is (chi, witness coloring) of g minus its last vertex: it raises the
    lower bound and its extension at that vertex is tried before step 2.
    upper is the witness unless another coloring with fewer colors is. No
    witness is checked here: chi rests on the witness, so a caller that
    trusts chi checks it, unless it is upper."""
    k = upper.colors_used
    lower = w if parent is None else max(w, parent[0])
    if k == lower:
        return k, upper
    if parent is not None and parent[0] == lower:
        extended = _extend_at_last(g, *parent)
        if extended is not None:
            return lower, extended
    if k == w + 1 and _chi_exceeds(g, w):
        return k, upper
    return exact_chromatic(g, upper, lower)


def trichotomy(
    g: Graph, w: int, delta: int, chi: int
) -> tuple[str | None, tuple[int, ...] | None, tuple[ClaimViolationError, ...]]:
    """(branch, induced 6-wheel or None, failed facts in check order) of an
    in-class graph; the branch is None when delta exceeds 2*omega - 1."""
    if g.n == 0:
        return OMEGA_CASE, None, ()
    # the omega and middle branches when every fact holds, decided before
    # any failure is built
    if w <= chi <= w + 1:
        if delta <= 2 * w - 3 and chi == w:
            return OMEGA_CASE, None, ()
        if delta == 2 * w - 2:
            return MIDDLE_CASE, None, ()
    failures: list[ClaimViolationError] = []
    branch = w6 = None

    def fail(category: str, message: str) -> None:
        failures.append(ClaimViolationError(category, g, message))

    if delta == 2 * w - 1:
        branch = WHEEL_CASE
        if (delta, w) != (5, 3):
            fail(DEGREE_BOUND, f"delta == 2*omega - 1 with (delta, omega) = ({delta}, {w})")
        if chi != w + 1:
            fail(WHEEL_BRANCH, f"wheel case with chi = {chi}, omega = {w}")
        w6 = find_induced_wheel6(g)
        if w6 is None:
            fail(WHEEL_BRANCH, "wheel case without an induced 6-vertex wheel")
    elif delta == 2 * w - 2:
        branch = MIDDLE_CASE
    elif delta <= 2 * w - 3:
        branch = OMEGA_CASE
        if chi != w:
            fail(CHI_EQUALS_OMEGA, f"bounded-degree case with chi = {chi}, omega = {w}")
    else:
        fail(DEGREE_BOUND, f"delta = {delta} exceeds 2*omega - 1 = {2 * w - 1}")
    if not w <= chi <= w + 1:
        fail(CHI_WITHIN_ONE, f"chi = {chi} outside omega..omega + 1 = {w}..{w + 1}")
    return branch, w6, tuple(failures)


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
    chi, _ = prove_chi(g, w, coloring)
    branch, w6, failures = trichotomy(g, w, delta, chi)
    if failures:
        raise failures[0]
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
