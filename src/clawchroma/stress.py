"""Bulk verification sweeps: exhaustive at small n, seeded random above.

The exhaustive sweep grows the labeled in-class graphs level by level. The
class is hereditary, so every in-class graph on n vertices is an in-class
graph on vertices 0..n-2 plus vertex n-1, and it is in the class iff no claw
and no K5-minus-P3 goes through that vertex; in_class_extensions lists the
children that pass, as adjacencies, deciding both by local rules through
the new vertex. Every labeled graph on n vertices is still decided, by its
parent's verdict or by the new vertex's check, so graphs_checked still adds
2^(n(n-1)/2) per n, and the in-class graphs are exactly those that
scan_in_class, the scan over all edge masks, keeps.

Each child G, with v = n-1 and S = N(v), resumes what is known of its
parent P = G - v, and each item is exact, so every count and counterexample
is what checking G from scratch gives:

  - the colorer's state at v, which depends only on the prefix; it keeps
    the prefix clique number and maximum degree, so omega and delta of G
    are read off it (recomputed only when insertion failed, which leaves
    them stale);
  - the vertices whose neighborhood fails the four-shape check: only v and
    S gain neighbors, and for u outside S + v, <N(u)> is P's induced
    subgraph unchanged, so only v and S are checked again;
  - when P passed every check, its record (Verified): the colorer's
    colors with their class masks, chi and chi's witness.

With the record, and when the colorer's colors on P's vertices are P's (the
lists are compared, as a repair at v may recolor P), G's coloring is
checked through v alone: properness at v, its color count against the
target, and the two-class degrees that v's edges change, those of v in
every pair and of each u in S in the pair (color of u, color of v). Every
other edge and two-class degree is P's, already verified. chi(G) >= chi(P),
as G contains P, so prove_chi takes max(omega, chi(P)) as its lower bound
and tries P's witness extended at v before a certificate or the oracle.
Without the record, or when the prefix changed, G's coloring is checked in
full. Graphs are visited in extension order, so the first counterexample per
category is the first in that order. The random sweep keeps the seeded
draws that are in the class and runs the colorer's insertions on each, so
there too omega and delta are read off its state, not searched again.

In-class graphs then get the full battery: the chromatic number against
the clique number, the trichotomy's branch facts as report.trichotomy states
them, the four-shape neighborhood classification for every vertex and every
maximum clique, one constructive coloring checked against both colorer
contracts (omega + 1 colors at most, omega under the degree bound), and the
path-or-cycle shape of every two-class component of every produced coloring.
report.prove_chi decides chi from the clique number, the colorer's
coloring and, in the exhaustive sweep, the parent's chi and witness, so no
DSATUR runs unless the colorer fails, and the oracle searches only where no
coloring closes the bracket and no certificate exists. chi rests on
prove_chi's witness, which must be proper with exactly chi colors; it is
checked here unless it is the colorer's own coloring, which finish_coloring
or the check through v already checked, or the parent's witness extended at
v, which prove_chi checked: proper, and in chi(P) colors, so it has exactly
chi(P) = chi colors.
Each failed claim increments one violation counter; all counters must be
zero.

Sweeps may be distributed over processes: CLAWCHROMA_THREADS takes an
integer >= 0 (0, the default, and 1 run serially); any other value is a
ParamRangeError, which the CLI reports with exit code 2. The process pool is
imported and started only when more than one worker has work, and it never
holds more processes than there are chunks or CPUs. A chunk of an exhaustive
level is a slice of the previous level's graphs, and it returns their
children in order. Workers share nothing and partial results merge by
deterministic ordered reduction, so summaries are identical run to run,
with or without workers. The wall-clock time is deliberately not part of the
summary payload.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

from . import _kernels as K
from .bitops import iter_bits
from .cliques import omega as omega_of
from .colorer import InsertionState, color_in_class, finish_coloring, insert_vertices
# unused here, imported for the benchmark tracer, which wraps them at stress:
# exact_chromatic, random_graph, is_in_class, find_induced_wheel6
from .coloring import ORACLE_MAX_VERTICES, Coloring, dsatur_greedy, exact_chromatic, verify_proper  # noqa: F401
from .errors import ClaimViolationError, ParamRangeError, ScaleExceededError
from .generators import SplitMix64, random_graph, random_in_class_graph  # noqa: F401
from .graph import Graph, degree_profile, edge_mask_of
from .kempe import find_branching_component
from .recognition import is_in_class, verify_neighborhood_all_cliques  # noqa: F401
from .report import CHI_EQUALS_OMEGA, CHI_WITHIN_ONE, DEGREE_BOUND, WHEEL_BRANCH
from .report import OMEGA_CASE, find_induced_wheel6, prove_chi, trichotomy  # noqa: F401

# the fewest parents in one worker's chunk of an exhaustive level
_MIN_CHUNK = 64

COMPONENT_SHAPE = "component_shape"
NEIGHBORHOOD_SHAPE = "neighborhood_shape"

CATEGORIES = (
    CHI_EQUALS_OMEGA,
    CHI_WITHIN_ONE,
    DEGREE_BOUND,
    WHEEL_BRANCH,
    COMPONENT_SHAPE,
    NEIGHBORHOOD_SHAPE,
)


@dataclass
class StressSummary:
    mode: str
    max_n: int | None = None
    n_lo: int | None = None
    n_hi: int | None = None
    samples: int | None = None
    seed: int | None = None
    graphs_checked: int = 0
    in_class_count: int = 0
    violations: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in CATEGORIES}
    )
    vertices_colored_strict: int = 0
    exact_fallbacks: int = 0
    wall_time: float = 0.0
    # first counterexample per category, as (n, edge_mask); not serialized
    counterexamples: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def fallback_rate(self) -> float:
        if self.vertices_colored_strict == 0:
            return 0.0
        return round(self.exact_fallbacks / self.vertices_colored_strict, 8)

    def record(
        self,
        g: Graph,
        state: InsertionState | None = None,
        bad: int | None = None,
        parent: Verified | None = None,
    ) -> Verified | None:
        """Count one in-class graph and the claims it fails; returns the
        record check_in_class_graph gives its children."""
        self.in_class_count += 1
        viol, strict_vertices, strict_fallbacks, verified = check_in_class_graph(
            g, state, bad, parent
        )
        self.vertices_colored_strict += strict_vertices
        self.exact_fallbacks += strict_fallbacks
        for cat in viol:
            self.violations[cat] += 1
            self.counterexamples.setdefault(cat, (g.n, edge_mask_of(g)))
        return verified

    def merge(self, part: StressSummary) -> None:
        """Add the counts of a later chunk; earlier counterexamples win."""
        self.graphs_checked += part.graphs_checked
        self.in_class_count += part.in_class_count
        for cat, count in part.violations.items():
            self.violations[cat] += count
        self.vertices_colored_strict += part.vertices_colored_strict
        self.exact_fallbacks += part.exact_fallbacks
        for cat, cex in part.counterexamples.items():
            self.counterexamples.setdefault(cat, cex)

    def payload(self) -> dict:
        """Deterministic summary dict; excludes timing on purpose."""
        out = {
            "mode": self.mode,
            "max_n": self.max_n,
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "samples": self.samples,
            "seed": self.seed,
            "graphs_checked": self.graphs_checked,
            "in_class_count": self.in_class_count,
        }
        for cat in CATEGORIES:
            out[f"{cat}_violations"] = self.violations[cat]
        out["vertices_colored_strict"] = self.vertices_colored_strict
        out["exact_fallbacks"] = self.exact_fallbacks
        out["fallback_rate"] = self.fallback_rate
        return out


@dataclass(slots=True)
class Verified:
    """What a graph that passed every check hands its children: the
    colorer's colors, their class masks by color, chi and chi's witness."""

    colors: list[int]
    masks: dict[int, int]
    chi: int
    witness: Coloring


def _checked_through_v(
    g: Graph, state: InsertionState, parent: Verified
) -> tuple[Coloring, dict[int, int]] | None:
    """The colorer's coloring of g and its class masks, when its colors on
    g - v, v the last vertex, are parent's and it passes the colorer's
    checks through v alone: proper at v, within the target, and no
    two-class component branching at v or at a neighbor of v in the pair of
    v's color. Every check ignores color names, so the coloring is left
    uncanonical. None sends g to the full checks."""
    v = g.n - 1
    colors = state.colors
    if state.failure is not None or colors[:v] != parent.colors:
        return None
    adj, nb, c = g.adj, g.adj[v], colors[v]
    own = parent.masks.get(c, 0)
    if nb & own:
        return None
    own |= 1 << v
    masks = {**parent.masks, c: own}
    w, delta = state.omega, state.delta
    if len(masks) > (w if delta <= 2 * w - 3 else w + 1):
        return None
    for mask in masks.values():
        if mask != own and (nb & mask).bit_count() >= 3:
            return None
    for u in iter_bits(nb):
        if (adj[u] & own).bit_count() >= 3:
            return None
    return Coloring(tuple(colors)), masks


def check_in_class_graph(
    g: Graph,
    state: InsertionState | None = None,
    bad: int | None = None,
    parent: Verified | None = None,
) -> tuple[set[str], int, int, Verified | None]:
    """All per-graph claims for an in-class graph.

    state is the colorer's state after all of g, when the caller already
    ran the insertions; otherwise g is colored here. Omega and the maximum
    degree are read off state unless it failed; otherwise they are computed
    here. bad is the mask of the vertices whose neighborhood fails the
    four-shape check, when the caller has it; otherwise every vertex is
    checked here. parent is the record of g minus its last vertex, when that
    graph passed every check; it needs state. The colorer runs first and its
    coloring is prove_chi's upper bound; DSATUR's is instead when the
    colorer fails.
    Returns (violated categories, vertices colored under the degree bound,
    exact fallbacks the colorer used on them, and, when state and bad were
    given, as the exhaustive sweep gives them, and g passed every check,
    g's record for its children).
    """
    if state is not None and state.failure is None:
        w, delta = state.omega, state.delta
    else:
        w = omega_of(g)
        delta = degree_profile(g)[1]
    if bad is None:
        shapes_hold = all(verify_neighborhood_all_cliques(g, u) for u in range(g.n))
    else:
        shapes_hold = not bad
    resumed = None if parent is None else _checked_through_v(g, state, parent)
    if resumed is not None:
        coloring, masks = resumed
        fallbacks = state.counts[2]
    else:
        try:
            if state is None:
                coloring, trace = color_in_class(g)
            else:
                coloring, trace = finish_coloring(g, state)
            fallbacks = trace.exact_fallbacks
        except ClaimViolationError:
            coloring = None
    upper = dsatur_greedy(g) if coloring is None else coloring
    chi, witness, checked = prove_chi(
        g, w, upper, None if parent is None else (parent.chi, parent.witness)
    )
    branch, _, failures = trichotomy(g, w, delta, chi)
    viol = {e.category for e in failures}
    # chi rests on the witness; prove_chi checked the parent's witness it
    # extended, and the colorer's own coloring is checked already
    if not checked and witness is not coloring and (
        witness.colors_used != chi or verify_proper(g, witness) is not None
    ):
        viol.add(CHI_WITHIN_ONE)
    strict_vertices = strict_fallbacks = 0
    bound_holds = branch == OMEGA_CASE
    if coloring is None:
        viol.add(CHI_WITHIN_ONE)
        if bound_holds:
            viol.add(CHI_EQUALS_OMEGA)
    else:
        if coloring.colors_used > w + 1:
            viol.add(CHI_WITHIN_ONE)
        if bound_holds:
            strict_vertices = g.n
            strict_fallbacks = fallbacks
            if coloring.colors_used != w:
                viol.add(CHI_EQUALS_OMEGA)
    if not shapes_hold:
        viol.add(NEIGHBORHOOD_SHAPE)
    # the colorer's coloring is checked through v when it was resumed
    colorings = [] if resumed is not None else [upper]
    if witness is not upper:
        colorings.append(witness)
    if any(find_branching_component(g, c) is not None for c in colorings):
        viol.add(COMPONENT_SHAPE)
    if state is None or bad is None or viol:
        return viol, strict_vertices, strict_fallbacks, None
    if resumed is None:
        masks = Coloring(tuple(state.colors)).class_masks
    record = Verified(state.colors, masks, chi, witness)
    return viol, strict_vertices, strict_fallbacks, record


def _child_bad(g: Graph, bad: int) -> int:
    """The vertices of g whose neighborhood fails the four-shape check, from
    those of g minus its last vertex v: only v and N(v) have a new
    neighborhood (see the module docstring)."""
    v = g.n - 1
    changed = g.adj[v] | 1 << v
    bad &= ~changed
    for u in iter_bits(changed):
        if not verify_neighborhood_all_cliques(g, u):
            bad |= 1 << u
    return bad


def _extension_chunk(args: tuple[int, list, bool]) -> tuple[StressSummary, list]:
    """Check every in-class child on n vertices of a slice of level n - 1.

    Each parent comes with its colorer state, its four-shape failures and
    its record, or None when it failed a check, which each child resumes at
    vertex n - 1. Returns the chunk's summary and, when keep is set, the
    children with theirs, in order.
    """
    n, parents, keep = args
    part = StressSummary("exhaustive")
    children = []
    for parent, parent_state, parent_bad, verified in parents:
        for adj in K.in_class_extensions(parent.adj, n):
            g = Graph(n, adj, parent.edge_count + adj[-1].bit_count())
            state = insert_vertices(g, parent_state)
            bad = _child_bad(g, parent_bad)
            record = part.record(g, state, bad, verified)
            if keep:
                children.append((g, state, bad, record))
    return part, children


def _random_chunk(args: tuple[int, int, list[int]]) -> StressSummary:
    n_lo, n_hi, sample_seeds = args
    part = StressSummary("random", graphs_checked=len(sample_seeds))
    for s in sample_seeds:
        stream = SplitMix64(s)
        n = n_lo + stream.next_below(n_hi - n_lo + 1)
        p = stream.next_unit()
        g = random_in_class_graph(n, p, stream)
        if g is not None:
            part.record(g, insert_vertices(g))
    return part


def _worker_count(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get("CLAWCHROMA_THREADS", "0") or "0"
        if not raw.strip().isdecimal():
            raise ParamRangeError(
                f"CLAWCHROMA_THREADS={raw!r} is not an integer >= 0"
            )
        workers = int(raw)
    return max(0, workers)


def _run_chunks(
    chunks, fn, workers: int, progress: bool
) -> list[StressSummary]:
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        parts = []
        for i, chunk in enumerate(chunks):
            parts.append(fn(chunk))
            if progress:
                print(f"progress: chunk {i + 1}/{len(chunks)}", file=sys.stderr)
        return parts
    # imported here so that processes which never fork do not load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def run_stress(
    mode: str,
    *,
    max_n: int | None = None,
    n_lo: int | None = None,
    n_hi: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
    progress: bool = False,
) -> StressSummary:
    """Run one sweep and return its summary (violations must all be zero)."""
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    if mode == "exhaustive":
        if max_n is None or max_n < 1:
            raise ParamRangeError("exhaustive mode needs max_n >= 1")
        if max_n > 7:
            raise ScaleExceededError("exhaustive sweeps capped at n = 7")
        summary = StressSummary(mode=mode, max_n=max_n)
        level = [(Graph(0, ()), None, 0, None)]
        for n in range(1, max_n + 1):
            t_level = time.perf_counter()
            in_class_before = summary.in_class_count
            step = (
                len(level) if workers <= 1
                else max(_MIN_CHUNK, len(level) // (8 * workers))
            )
            keep = n < max_n
            chunks = [
                (n, level[i : i + step], keep) for i in range(0, len(level), step)
            ]
            summary.graphs_checked += 1 << (n * (n - 1) // 2)
            level = []
            for part, children in _run_chunks(
                chunks, _extension_chunk, workers, False
            ):
                summary.merge(part)
                level += children
            if progress:
                done = summary.in_class_count - in_class_before
                elapsed = time.perf_counter() - t_level
                print(
                    f"progress: n={n} done, {done} in class, {elapsed:.2f} s",
                    file=sys.stderr,
                )
    elif mode == "random":
        if n_lo is None or n_hi is None or samples is None or seed is None:
            raise ParamRangeError("random mode needs n_lo, n_hi, samples, seed")
        if not 1 <= n_lo <= n_hi <= ORACLE_MAX_VERTICES:
            raise ParamRangeError(
                f"vertex range {n_lo}..{n_hi} outside 1..{ORACLE_MAX_VERTICES}"
            )
        if samples < 0:
            raise ParamRangeError(f"sample count {samples} < 0")
        summary = StressSummary(
            mode=mode, n_lo=n_lo, n_hi=n_hi, samples=samples, seed=seed
        )
        master = SplitMix64(seed)
        sample_seeds = [master.next_u64() for _ in range(samples)]
        step = max(samples, 1) if workers <= 1 else max(64, samples // (8 * workers))
        chunks = [
            (n_lo, n_hi, sample_seeds[i : i + step])
            for i in range(0, samples, step)
        ]
        for part in _run_chunks(chunks, _random_chunk, workers, progress):
            summary.merge(part)
    else:
        raise ParamRangeError(f"unknown stress mode {mode!r}")
    summary.wall_time = time.perf_counter() - t0
    return summary
