"""Bulk verification sweeps: exhaustive at small n, seeded random above.

The exhaustive sweep grows the labeled in-class graphs level by level. The
class is hereditary, so every in-class graph on n vertices is an in-class
graph on vertices 0..n-2 plus vertex n-1, and it is in the class iff no claw
and no K5-minus-P3 goes through that vertex; in_class_extensions lists the
children that pass, as adjacencies, deciding the local rules through the
new vertex for all of its neighborhoods at once, as truth tables. The
progress lines give each level's time, the part of it spent listing
children and the part spent building per-parent tables (the shape table,
the coloring context and the colorer's two masks below), each summed over
workers. Every labeled graph on n vertices is still decided, by its
parent's verdict or by the new vertex's check, so graphs_checked still adds
2^(n(n-1)/2) per n, and the in-class graphs are exactly those that
scan_in_class, the scan over all edge masks, keeps.

Each child G, with v = n-1 and S = N(v), resumes its parent P = G - v
at v, and exactly: every count and counterexample is what checking G from
scratch gives. The colorer's state at v depends only on the prefix, so G's
insertion continues P's; omega and delta of G are read off it (recomputed
only when insertion failed, which leaves them stale). A parent that passed
every check hands its children a record, prove_chi's pair (chi, witness);
a witness that is the colorer's coloring shares the state's color tuple.
_extension_chunk builds two tables once per such parent and hands them to
each child with the record: K.shape_table of P, and P's coloring context
(coloring_context): P's colorer colors, their class masks and, for each
color c, the mask of P's vertices with two neighbors colored c. Beside
them it builds the colorer's two masks of P, K.clique_table (bit s set iff
s holds a clique of size omega(P)) and P's vertices of degree delta(P),
from which colorer.insert_last resumes each child at v with no clique
search; a child of a parent without a record, and every graph of the
random sweep, is inserted by insert_vertices.

check_in_class_graph checks the four shapes and the colorer's coloring at
N[v] or at every vertex, by what each fact reads. Each fact checked at a
vertex u reads only N(u) and, for a coloring, the colors on N[u]: the
four-shape test on <N(u)>, and properness at u and u's degree in each
two-class subgraph (coloring.check_classes). Only v and S gain neighbors,
so for u outside N[v] every <N(u)> is P's. When P passed every check (it
has a record), the shapes are checked at N[v] alone, and read off the
shape table, the verdict at N[v] for every S at once: the child's is its
bit S. Every other graph (a child of a failed parent, the n = 1 graph,
every graph of the random sweep) has its shapes checked by
verify_neighborhood_all_cliques at every vertex. Shapes read no colors, so
a repair that recolors P leaves them local.

The colorer's coloring is checked by the N[v] rule (check_at_new_vertex)
when P has a record and, besides, the colorer's colors on P's vertices are
P's, checked in full (the tuples are compared, as a repair at v may
recolor P; the colorer's repair masks are only its own report). With
c = color(v) and C_c P's class c (empty when c is new):

  proper iff S misses C_c;
  v has degree >= 3 in a two-class subgraph iff some class holds three
    vertices of S;
  a u in S has degree >= 3 in a two-class subgraph iff u is in c's
    two-neighbor mask, that is, u has two neighbors in C_c.

Proof. P passed every check, so its coloring is proper and every vertex of
P has degree <= 2 in every two-class subgraph. For u outside N[v] neither
N(u) nor a color on N[u] changes, and a color new in G is v's alone, so
each fact at u is P's. A u in S has the color of P, which N_P(u) misses,
so u clashes iff v has u's color, iff u is in S & C_c; v clashes iff the
same set is not empty. When the coloring is proper, v's degree in the
subgraph of its class and class b is |S & C_b|, which is >= 3 for some b
iff some class holds three vertices of S (C_c holds none). A u in S of
color a != c gains one neighbor, v, in the (a, c) subgraph and none in the
others, where P's degree <= 2 stands; so its degree there is
|N_P(u) & C_c| + 1, which is >= 3 iff u has two neighbors in C_c. The color
count is P's, plus one when c is new. QED.

Every other colorer coloring gets one check_classes pass over every
vertex, which includes every graph of the random sweep. chi's witness, when
it is not the colorer's coloring, is checked over every vertex. On an
in-class graph a proper coloring never has a vertex of degree >= 3 in a
two-class subgraph: its neighbors there lie in one class, as the other is
its own, so three of them are pairwise non-adjacent and form a claw with
it. So component_shape counts only graphs with a claw or improper
colorings: in the sweeps, a planted fault. The colorer's color count is
held to G's branch as report.trichotomy returns it: omega colors under the
degree bound, omega + 1 otherwise; the witness's must be chi. The count is
handed to prove_chi, which rebuilds it otherwise. chi(G) >= chi(P), as G
contains P, so prove_chi takes max(omega, chi(P)) as its lower bound and
tries P's witness extended at v before a certificate or the oracle.
Graphs are visited in extension order, so the first counterexample per
category is the first in that order. The random sweep keeps the seeded
draws that are in the class and runs the colorer's insertions on each, so
both sweeps hand check_in_class_graph the same facts.

In-class graphs then get the full battery: the chromatic number against
the clique number, the trichotomy's branch facts as report.trichotomy states
them, the four-shape neighborhood classification for every vertex and every
maximum clique, one constructive coloring held to the color count of its
graph's branch, and the
path-or-cycle shape of every two-class component of every produced coloring.
report.prove_chi decides chi from the clique number, the colorer's
coloring and, in the exhaustive sweep, the parent's chi and witness, so no
DSATUR runs unless the colorer fails, and the oracle searches only where no
coloring closes the bracket and no certificate exists. chi rests on
prove_chi's witness, which must be proper with exactly chi colors and
branch nowhere; it gets its own pass, over every vertex, unless it is the
colorer's own coloring, which the colorer's pass checked.
Each failed claim increments one violation counter; all counters must be
zero.

Sweeps may be distributed over processes: CLAWCHROMA_THREADS takes an
integer >= 0 (0, the default, and 1 run serially); any other value is a
ParamRangeError, which the CLI reports with exit code 2. The process pool is
imported and started only when more than one worker has work, and it never
holds more processes than there are chunks or CPUs. A chunk of an exhaustive
level is a slice of the previous level's graphs, and it returns their
children in order; a chunk of a random sweep is a range of sample indices,
whose seeds it reads off the master stream as it draws. Workers share
nothing and partial results merge by deterministic ordered reduction, so
summaries are identical run to run, with or without workers. The
wall-clock time is deliberately not part of the summary payload.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

from . import _kernels as K
from .cliques import omega as omega_of
# unused here, imported for the benchmark tracer, which wraps them at stress:
# color_in_class, exact_chromatic, find_branching_component, find_induced_wheel6,
# is_in_class, random_graph, verify_proper
from .colorer import InsertionState, color_in_class, insert_last, insert_vertices  # noqa: F401
from .coloring import ORACLE_MAX_VERTICES, Coloring, class_masks, check_classes, dsatur_greedy
from .coloring import exact_chromatic, find_branching_component, verify_proper  # noqa: F401
from .errors import ParamRangeError, ScaleExceededError
from .generators import SplitMix64, random_graph, random_in_class_graph  # noqa: F401
from .graph import Graph, degree_profile, edge_mask_of
from .recognition import is_in_class, verify_neighborhood_all_cliques  # noqa: F401
from .report import CHI_EQUALS_OMEGA, CHI_WITHIN_ONE, DEGREE_BOUND, WHEEL_BRANCH
from .report import OMEGA_CASE, find_induced_wheel6, prove_chi, trichotomy  # noqa: F401

# the fewest items, parents or sample seeds, in one worker's chunk
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
    # seconds spent listing children (in_class_extensions) and building
    # per-parent tables (shape table, coloring context, the colorer's clique
    # table and maximum-degree mask); not serialized
    extensions_time: float = 0.0
    tables_time: float = 0.0
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
        state: InsertionState,
        parent: tuple | None = None,
    ) -> tuple | None:
        """Count one in-class graph and the claims it fails; returns the
        record check_in_class_graph gives its children."""
        self.in_class_count += 1
        viol, strict_vertices, strict_fallbacks, verified = check_in_class_graph(
            g, state, parent
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
        self.extensions_time += part.extensions_time
        self.tables_time += part.tables_time
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


def coloring_context(adj, colors) -> tuple[tuple, dict[int, int], dict[int, int]]:
    """The coloring context of a parent P with a record, colors its colorer
    colors: (colors, color -> class mask, color c -> mask of P's vertices
    with two neighbors colored c). A vertex has two neighbors in a class
    iff it is a common neighbor of two of its vertices."""
    masks = class_masks(colors)
    two = {}
    for c, mask in masks.items():
        seen = twice = 0
        while mask:
            b = mask & -mask
            mask ^= b
            a = adj[b.bit_length() - 1]
            twice |= seen & a
            seen |= a
        two[c] = twice
    return colors, masks, two


def check_at_new_vertex(context, s: int, c: int) -> tuple[bool, bool, int]:
    """The coloring facts of a child G = P + v, S = N(v) given as s, whose
    colorer colors are its parent's on P and c at v, from P's coloring
    context: (proper, some vertex has degree >= 3 in a two-class subgraph,
    color count). The second answer is exact where the coloring is proper
    (see the module docstring)."""
    _, masks, two = context
    own = masks.get(c, 0)
    branches = s & two.get(c, 0) != 0
    if not branches and s.bit_count() > 2:
        for mask in masks.values():
            if (s & mask).bit_count() > 2:
                branches = True
                break
    return not s & own, branches, len(masks) + (not own)


def check_in_class_graph(
    g: Graph, state: InsertionState, parent: tuple | None = None
) -> tuple[set[str], int, int, tuple | None]:
    """All per-graph claims for an in-class graph.

    state is the colorer's state after all of g (insert_vertices). Omega and
    the maximum degree are read off it, unless insertion failed and left
    them stale; then they are computed here. parent, when P = g - v, v the
    last vertex, passed every check, is the triple of P's record (chi, chi's
    witness), P's K.shape_table, whose bit N(v) is g's four-shape verdict at
    N[v], and P's coloring_context, which holds P's colors; state was then
    resumed by colorer.insert_last from P's other two per-parent masks, its
    K.clique_table and its vertices of degree delta(P). The shapes
    are checked at N[v] or every vertex. The colorer's coloring is checked
    by the N[v] rule when its colors on P are P's, else by check_classes
    over every vertex. The rule (check_at_new_vertex), with S = N(v) and
    c = color(v): proper iff S misses P's class c; v branches (has degree
    >= 3 in a two-class subgraph) iff some class holds three vertices of S;
    a u in S branches iff u has two neighbors colored c. It holds because P
    passed every check and only v and S gain neighbors (proof in the module
    docstring). chi's witness is checked over every vertex. On an in-class
    graph a proper coloring never branches (three same-colored neighbors
    would form a claw), so component_shape counts only claws or improper
    colorings. The colorer's coloring, the state's color tuple, is
    prove_chi's upper bound, handed with its color count; DSATUR's is
    instead when insertion failed or the coloring is improper. Every check
    ignores color names, so the coloring is left uncanonical.
    Returns (violated categories, vertices colored under the degree bound,
    exact fallbacks the colorer used on them, and, when g passed every
    check, g's record (chi, witness) for its children).
    """
    adj, colors, v = g.adj, state.colors, g.n - 1
    failed = state.failure is not None
    if failed:
        w = omega_of(g)
        delta = degree_profile(g)[1]
    else:
        w, delta = state.omega, state.delta
    full = g.full_mask()
    viol = set()
    if parent is None:
        prior = None
        m = full
        while m:
            b = m & -m
            m ^= b
            if not verify_neighborhood_all_cliques(g, b.bit_length() - 1):
                viol.add(NEIGHBORHOOD_SHAPE)
    else:
        prior, shapes, context = parent
        if shapes >> adj[v] & 1:
            viol.add(NEIGHBORHOOD_SHAPE)
    coloring = k = None
    if not failed:
        if parent is not None and colors[:v] == context[0]:
            proper, branches, k = check_at_new_vertex(context, adj[v], colors[v])
        else:
            proper, at, k = check_classes(adj, colors, full)
            branches = at is not None
        if proper:
            coloring = Coloring(colors)
            if branches:
                viol.add(COMPONENT_SHAPE)
    if coloring is None:
        chi, witness = prove_chi(g, w, dsatur_greedy(g), prior)
    else:
        chi, witness = prove_chi(g, w, coloring, prior, colors_used=k)
    branch, _, failures = trichotomy(g, w, delta, chi)
    if failures:
        viol.update(e.category for e in failures)
    # chi rests on the witness; the colorer's own coloring is checked above
    if witness is not coloring:
        proper, at, k_witness = check_classes(adj, witness.assignment, full)
        if k_witness != chi or not proper:
            viol.add(CHI_WITHIN_ONE)
        if at is not None:
            viol.add(COMPONENT_SHAPE)
    strict_vertices = strict_fallbacks = 0
    # the colorer is held to the branch: omega colors under the degree
    # bound, omega + 1 otherwise
    bound_holds = branch == OMEGA_CASE
    if coloring is None:
        viol.add(CHI_WITHIN_ONE)
        if bound_holds:
            viol.add(CHI_EQUALS_OMEGA)
    elif k > (w if bound_holds else w + 1):
        viol.add(CHI_EQUALS_OMEGA if bound_holds else CHI_WITHIN_ONE)
    elif bound_holds:
        strict_vertices = g.n
        strict_fallbacks = state.fallback.bit_count()
    if viol:
        return viol, strict_vertices, strict_fallbacks, None
    return viol, strict_vertices, strict_fallbacks, (chi, witness)


def _extension_chunk(args: tuple[int, list, bool]) -> tuple[StressSummary, list]:
    """Check every in-class child on n vertices of a slice of level n - 1.

    Each parent comes with its colorer state and its record, or None when it
    failed a check, which each child resumes at vertex n - 1; a parent with
    a record also hands its children its shape table and its coloring
    context, and resumes them by insert_last from its clique table and its
    vertices of maximum degree, all built once here. Returns the chunk's
    summary and, when keep is set, the children with theirs, in order.
    """
    n, parents, keep = args
    part = StressSummary("exhaustive")
    children = []
    for parent, parent_state, verified in parents:
        t0 = time.perf_counter()
        extensions = K.in_class_extensions(parent.adj, n)
        t1 = time.perf_counter()
        part.extensions_time += t1 - t0
        resumed = None
        if verified is not None:
            resumed = (
                verified,
                K.shape_table(parent.adj, n - 1),
                coloring_context(parent.adj, parent_state.colors),
            )
            cliques = K.clique_table(parent.adj, n - 1)
            delta = parent_state.delta
            top = sum(1 << u for u, a in enumerate(parent.adj) if a.bit_count() == delta)
            part.tables_time += time.perf_counter() - t1
        for adj in extensions:
            g = Graph(n, adj, parent.edge_count + adj[-1].bit_count())
            if resumed is None:
                state = insert_vertices(g, parent_state)
            else:
                state = insert_last(g, parent_state, cliques, top)
            record = part.record(g, state, resumed)
            if keep:
                children.append((g, state, record))
    return part, children


def _random_chunk(args: tuple[int, int, int, range]) -> StressSummary:
    """Draw and check the samples whose indices are in indices: sample i is
    drawn from the i-th value of the master stream seeded by seed."""
    n_lo, n_hi, seed, indices = args
    master = SplitMix64(seed)
    master.skip(indices.start)
    part = StressSummary("random", graphs_checked=len(indices))
    for _ in indices:
        stream = SplitMix64(master.next_u64())
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


def _slices(items: list | range, workers: int) -> list:
    """items in order: one slice when serial, else slices of at least
    _MIN_CHUNK items, about eight per worker."""
    if workers <= 1:
        step = max(len(items), 1)
    else:
        step = max(_MIN_CHUNK, len(items) // (8 * workers))
    return [items[i : i + step] for i in range(0, len(items), step)]


def _gather(results, total: int, progress: bool) -> list:
    parts = []
    for part in results:
        parts.append(part)
        if progress:
            print(f"progress: chunk {len(parts)}/{total}", file=sys.stderr)
    return parts


def _run_chunks(chunks, fn, workers: int, progress: bool) -> list:
    """fn over chunks, in order; with progress, a line on stderr as each
    chunk's result arrives."""
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        return _gather(map(fn, chunks), len(chunks), progress)
    # imported here so that processes which never fork do not load it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _gather(pool.map(fn, chunks), len(chunks), progress)


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
        level = [(Graph(0, ()), None, None)]
        for n in range(1, max_n + 1):
            t_level = time.perf_counter()
            in_class_before = summary.in_class_count
            extensions_before = summary.extensions_time
            tables_before = summary.tables_time
            keep = n < max_n
            chunks = [(n, parents, keep) for parents in _slices(level, workers)]
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
                extensions = summary.extensions_time - extensions_before
                tables = summary.tables_time - tables_before
                print(
                    f"progress: n={n} done, {done} in class, {elapsed:.2f} s"
                    f" (extensions {extensions:.2f} s, tables {tables:.2f} s)",
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
        chunks = [
            (n_lo, n_hi, seed, indices)
            for indices in _slices(range(samples), workers)
        ]
        for part in _run_chunks(chunks, _random_chunk, workers, progress):
            summary.merge(part)
    else:
        raise ParamRangeError(f"unknown stress mode {mode!r}")
    summary.wall_time = time.perf_counter() - t0
    return summary
