"""Bulk verification sweeps: exhaustive at small n, seeded random above.

The exhaustive sweep grows the labeled in-class graphs level by level. The
class is hereditary, so every in-class graph on n vertices is an in-class
graph on vertices 0..n-2 plus vertex n-1, and it is in the class iff no claw
and no K5-minus-P3 goes through that vertex; in_class_extensions lists the
children that pass, as adjacencies. Every labeled graph on n vertices is
still decided, by its parent's verdict or by the new vertex's check, so
graphs_checked still adds 2^(n(n-1)/2) per n, and the in-class graphs are
exactly those that scan_in_class, the scan over all edge masks, keeps. Each
child resumes its parent's colorer state at vertex n-1, as that state
depends only on the prefix. It also resumes the sweep's own facts about the
parent: the clique number, the maximum degree and the vertices whose
neighborhood fails the four-shape check. With v = n-1 and S = N(v), a clique
through v is v plus a clique of S, so omega is the parent's or
1 + clique_number(S), searched only when |S| is at least the parent's omega;
only v and S gain degree; and for u outside S + v, <N(u)> is the parent's
induced subgraph unchanged, so only v and S are checked again. These are
exact, so every count and counterexample is what recomputation gives. Graphs
are visited in extension order, so the first counterexample per category is
the first in that order. The random sweep keeps the seeded draws that are in
the class.

In-class graphs then get the full battery: oracle chromatic number against
the clique number, the trichotomy's branch facts as report.trichotomy states
them, the four-shape neighborhood classification for every vertex and every
maximum clique, one constructive coloring checked against both colorer
contracts (omega + 1 colors at most, omega under the degree bound), and the
path-or-cycle shape of every two-class component of every produced coloring.
The clique number and the colorer's coloring are the oracle's lower and
upper bounds, so no DSATUR runs unless the colorer fails, and the oracle
searches only where that coloring uses omega + 1 colors. The oracle's
witness must be proper with exactly chi colors; it is checked here even
when it is the colorer's coloring handed back, because chi rests on it.
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
from .coloring import ORACLE_MAX_VERTICES, dsatur_greedy, exact_chromatic, verify_proper
from .errors import ClaimViolationError, ParamRangeError, ScaleExceededError
# random_graph is unused here; the benchmark tracer still wraps stress.random_graph
from .generators import SplitMix64, random_graph, random_in_class_graph  # noqa: F401
from .graph import Graph, degree_profile, edge_mask_of
from .kempe import find_branching_component
# the benchmark tracer wraps stress.is_in_class (unused here)
from .recognition import is_in_class, verify_neighborhood_all_cliques  # noqa: F401
from .report import CHI_EQUALS_OMEGA, CHI_WITHIN_ONE, DEGREE_BOUND, WHEEL_BRANCH
# the benchmark tracer wraps stress.find_induced_wheel6 (unused here)
from .report import OMEGA_CASE, find_induced_wheel6, trichotomy  # noqa: F401

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
        facts: tuple[int, int, int] | None = None,
    ) -> None:
        """Count one in-class graph and the claims it fails."""
        self.in_class_count += 1
        viol, strict_vertices, strict_fallbacks = check_in_class_graph(g, state, facts)
        self.vertices_colored_strict += strict_vertices
        self.exact_fallbacks += strict_fallbacks
        for cat in viol:
            self.violations[cat] += 1
            self.counterexamples.setdefault(cat, (g.n, edge_mask_of(g)))

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


def check_in_class_graph(
    g: Graph,
    state: InsertionState | None = None,
    facts: tuple[int, int, int] | None = None,
) -> tuple[set[str], int, int]:
    """All per-graph claims for an in-class graph.

    state is the colorer's state after all of g, when the caller already
    ran the insertions; otherwise g is colored here. facts is g's (omega,
    max degree, mask of the vertices whose neighborhood fails the four-shape
    check), when the caller already has them; otherwise they are computed
    here. The colorer runs first and its coloring tops the exact oracle's
    bracket above omega; DSATUR tops it instead when the colorer fails.
    Returns (violated categories, vertices colored under the degree bound,
    exact fallbacks the colorer used on them).
    """
    if facts is None:
        w = omega_of(g)
        delta = degree_profile(g)[1]
        shapes_hold = all(verify_neighborhood_all_cliques(g, u) for u in range(g.n))
    else:
        w, delta, bad = facts
        shapes_hold = not bad
    try:
        if state is None:
            coloring, trace = color_in_class(g)
        else:
            coloring, trace = finish_coloring(g, state)
    except ClaimViolationError:
        coloring = None
    upper = dsatur_greedy(g) if coloring is None else coloring
    chi, oracle_coloring = exact_chromatic(g, upper, w)
    branch, _, failures = trichotomy(g, w, delta, chi)
    viol = {e.category for e in failures}
    # chi rests on the witness, which is upper itself when no k below its
    # color count succeeds
    if (
        oracle_coloring.colors_used != chi
        or verify_proper(g, oracle_coloring) is not None
    ):
        viol.add(CHI_WITHIN_ONE)
    colorings = [oracle_coloring]
    if upper is not oracle_coloring:
        colorings.append(upper)
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
            strict_fallbacks = trace.exact_fallbacks
            if coloring.colors_used != w:
                viol.add(CHI_EQUALS_OMEGA)
    if not shapes_hold:
        viol.add(NEIGHBORHOOD_SHAPE)
    for coloring in colorings:
        if find_branching_component(g, coloring) is not None:
            viol.add(COMPONENT_SHAPE)
            break
    return viol, strict_vertices, strict_fallbacks


def _child_facts(
    g: Graph, parent_facts: tuple[int, int, int]
) -> tuple[int, int, int]:
    """The facts check_in_class_graph takes, for g from those of g minus its
    last vertex v (see the module docstring)."""
    w, delta, bad = parent_facts
    n, adj = g.n, g.adj
    nb = adj[n - 1]
    if nb.bit_count() >= w:
        w = max(w, 1 + K.clique_number(adj, n, nb))
    changed = nb | 1 << (n - 1)
    bad &= ~changed
    for u in iter_bits(changed):
        delta = max(delta, adj[u].bit_count())
        if not verify_neighborhood_all_cliques(g, u):
            bad |= 1 << u
    return w, delta, bad


def _extension_chunk(args: tuple[int, list, bool]) -> tuple[StressSummary, list]:
    """Check every in-class child on n vertices of a slice of level n - 1.

    Each parent comes with its colorer state and its facts, which each child
    resumes at vertex n - 1. Returns the chunk's summary and, when keep is
    set, the children with their states and facts, in order.
    """
    n, parents, keep = args
    part = StressSummary("exhaustive")
    children = []
    for parent, parent_state, parent_facts in parents:
        for adj in K.in_class_extensions(parent.adj, n):
            g = Graph(n, adj, parent.edge_count + adj[-1].bit_count())
            state = insert_vertices(g, parent_state)
            facts = _child_facts(g, parent_facts)
            part.record(g, state, facts)
            if keep:
                children.append((g, state, facts))
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
            part.record(g)
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
        level = [(Graph(0, ()), None, (0, 0, 0))]
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
