"""Bulk verification sweeps: exhaustive at small n, seeded random above.

The exhaustive sweep grows the labeled in-class graphs level by level. The
class is hereditary, so every in-class graph on n vertices is an in-class
graph on vertices 0..n-2 plus vertex n-1, and it is in the class iff no claw
and no K5-minus-P3 goes through that vertex; in_class_extensions lists the
neighborhoods S of the new vertex that pass, as masks, deciding the local
rules through it for all of its neighborhoods at once, as truth tables. The
progress lines give each level's time, the part of it spent listing
children and the part spent building per-parent tables (ParentTables),
each summed over workers, and how many of the level's graphs
check_in_class_graph checked in full ("built").
Every labeled graph on n vertices is still decided, by its
parent's verdict or by the new vertex's check, so graphs_checked still adds
2^(n(n-1)/2) per n, and the in-class graphs are exactly those that
scan_in_class, the scan over all edge masks, keeps.

Each child G, with v = n-1 and S = N(v), resumes its parent P = G - v at v,
and exactly: every count and counterexample is what checking G from
scratch gives. The colorer's state at v depends only on the prefix, so G's
insertion continues P's. A parent that passed every check hands its
children a record, prove_chi's pair (chi, witness); a witness that is the
colorer's coloring shares the state's color tuple. For such a parent,
_extension_chunk builds ParentTables once: K.shape_table of P, P's coloring
context (coloring_context) and the colorer's two masks of P, from which
colorer.resume_last colors v and reads omega and delta with no clique
search. check_child then checks each child from these tables, with no
colorer state built, and a Graph only where prove_chi or the wheel branch
needs one:

  shapes    bit S of the shape table, the four-shape verdict at N[v];
  coloring  the colorer's, by the N[v] rule below when its colors on P are
            P's, else (a repair recolored P) by one check_classes pass over
            the child's adjacency; its count held to the branch, omega
            colors under the degree bound, omega + 1 otherwise;
  chi       chi(G) >= chi(P), as G contains P, so chi is the color count k
            when k = max(omega, chi(P)); else P's witness is extended at v
            by the colorer's step in that palette (report.color_in_order)
            and checked like the colorer's coloring, by the N[v] rule from
            the witness's own coloring context when its colors on P are
            P's witness's, else by one check_classes pass; else prove_chi
            decides it on a Graph view of the child's adjacency;
  branch    read off omega and delta; in the wheel branch report.trichotomy
            runs on that Graph view, for the induced 6-wheel.

A child that fails any of these checks is built (adjacency, Graph,
colorer state) and checked from scratch by check_in_class_graph, as is
every graph with no parent record, inserted from vertex 0: the n = 1
graph, the children of a failed parent and every graph of the random
sweep. A fault-free P passed every check, so a child that check_child
finds failing fails the same claims from scratch. A kept child, which
becomes a parent, is built either way and gets its record from the check
that closed it.

The N[v] rule checks a coloring of G whose colors on P are a coloring of P
that is proper with every vertex of degree <= 2 in every two-class
subgraph, given P's coloring context: its class masks and, for each color
c, the mask of P's vertices with two neighbors colored c. With c = color(v)
and C_c P's class c (empty when c is new):

  proper iff S misses C_c;
  v has degree >= 3 in a two-class subgraph iff some class holds three
    vertices of S;
  a u in S has degree >= 3 in a two-class subgraph iff u is in c's
    two-neighbor mask, that is, u has two neighbors in C_c.

Proof. Each fact at a vertex u reads only N(u) and the colors on N[u]. For
u outside N[v] neither changes, and a color new in G is v's alone, so each
fact at u is P's. A u in S has the color of P, which N_P(u) misses, so u
clashes iff v has u's color, iff u is in S & C_c; v clashes iff the same
set is not empty. When the coloring is proper, v's degree in the subgraph
of its class and class b is |S & C_b|, which is >= 3 for some b iff some
class holds three vertices of S (C_c holds none). A u in S of color a != c
gains one neighbor, v, in the (a, c) subgraph and none in the others, where
P's degree <= 2 stands; so its degree there is |N_P(u) & C_c| + 1, which is
>= 3 iff u has two neighbors in C_c. The color count is P's, plus one when
c is new. QED. The shapes read no colors, and for u outside N[v] every
<N(u)> is P's, so the shape table's bit S decides them.

check_in_class_graph checks a graph from scratch: the four shapes at every
vertex (verify_neighborhood_all_cliques), the colorer's coloring by one
check_classes pass, and chi by prove_chi, whose witness, unless it is the
colorer's coloring, gets a check_classes pass of its own. On an in-class
graph a proper coloring never has a vertex of degree >= 3 in a two-class
subgraph: its neighbors there lie in one class, as the other is its own, so
three of them are pairwise non-adjacent and form a claw with it. So
component_shape counts only graphs with a claw or improper colorings: in
the sweeps, a planted fault. Graphs are visited in extension order, and a
child that fails a claim is always built and counted at its place in it,
so the first counterexample per category is the first in that order. The
random sweep keeps the seeded draws that are in the class and runs the
colorer's insertions on each. Each failed claim increments one violation
counter; all counters must be zero.

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
from .colorer import EXACT_FALLBACK, grown, resume_last
from .coloring import ORACLE_MAX_VERTICES, Coloring, class_masks, check_classes, dsatur_greedy
from .coloring import exact_chromatic, find_branching_component, verify_proper  # noqa: F401
from .errors import ParamRangeError, ScaleExceededError
from .generators import SplitMix64, random_graph, random_in_class_graph  # noqa: F401
from .graph import Graph, degree_profile, edge_mask_of
from .recognition import is_in_class, verify_neighborhood_all_cliques  # noqa: F401
from .report import CHI_EQUALS_OMEGA, CHI_WITHIN_ONE, DEGREE_BOUND, WHEEL_BRANCH
from .report import OMEGA_CASE, color_in_order, find_induced_wheel6, prove_chi  # noqa: F401
from .report import trichotomy

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
    # graphs checked in full by check_in_class_graph; not serialized
    built: int = 0
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

    def record(self, g: Graph, state: InsertionState) -> tuple | None:
        """Count one in-class graph and the claims it fails; returns the
        record check_in_class_graph gives its children."""
        self.in_class_count += 1
        self.built += 1
        viol, strict_vertices, strict_fallbacks, verified = check_in_class_graph(g, state)
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
        self.built += part.built
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
    """The coloring context of a coloring of a parent P, colors[u] the
    color of u: (colors, color -> class mask, color c -> mask of P's
    vertices with two neighbors colored c). A vertex has two neighbors in a
    class iff it is a common neighbor of two of its vertices."""
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
    colors are the context's on P and c at v, from that coloring context:
    (proper, some vertex has degree >= 3 in a two-class subgraph, color
    count). The second answer is exact where the coloring is proper (see
    the module docstring)."""
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
    g: Graph, state: InsertionState
) -> tuple[set[str], int, int, tuple | None]:
    """All per-graph claims for an in-class graph, checked from scratch.

    state is the colorer's state after all of g. Omega and the maximum
    degree are read off it, unless insertion failed and left them stale;
    then they are computed here. The shapes are checked at every vertex,
    the colorer's coloring by one check_classes pass, and chi's witness,
    when it is not that coloring, by one more. The colorer's coloring, the
    state's color tuple, is prove_chi's upper bound, handed with its color
    count; DSATUR's is instead when insertion failed or the coloring is
    improper. Every check ignores color names, so the coloring is left
    uncanonical. Returns (violated categories, vertices colored under the
    degree bound, exact fallbacks the colorer used on them, and, when g
    passed every check, g's record (chi, witness) for its children).
    """
    adj, colors = g.adj, state.colors
    failed = state.failure is not None
    if failed:
        w = omega_of(g)
        delta = degree_profile(g)[1]
    else:
        w, delta = state.omega, state.delta
    full = g.full_mask()
    viol = set()
    m = full
    while m:
        b = m & -m
        m ^= b
        if not verify_neighborhood_all_cliques(g, b.bit_length() - 1):
            viol.add(NEIGHBORHOOD_SHAPE)
    coloring = k = None
    if not failed:
        proper, at, k = check_classes(adj, colors, full)
        if proper:
            coloring = Coloring(colors)
            if at is not None:
                viol.add(COMPONENT_SHAPE)
    if coloring is None:
        chi, witness = prove_chi(g, w, dsatur_greedy(g))
    else:
        chi, witness = prove_chi(g, w, coloring)
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


class ParentTables:
    """What check_child reads of a parent P with a record, built once per P:
    P's adjacency, its colorer colors as a list, its record (chi, witness),
    K.shape_table, the coloring context of its colorer coloring, the exact
    fallbacks its colorer used, and resume_last's two masks, K.clique_table
    and P's vertices of degree delta(P). The witness's colors as a list and
    their coloring context are built on first use, and are the colorer's
    when the colors are equal."""

    __slots__ = (
        "adj", "colors", "record", "shapes", "context", "fallbacks", "cliques", "top", "_witness"
    )

    def __init__(self, adj, state: InsertionState, record: tuple):
        k = len(adj)
        self.adj = adj
        self.colors = [*state.colors]
        self.record = record
        self.shapes = K.shape_table(adj, k)
        self.context = coloring_context(adj, state.colors)
        self.fallbacks = state.fallback.bit_count()
        self.cliques = K.clique_table(adj, k)
        self.top = sum(1 << u for u, a in enumerate(adj) if a.bit_count() == state.delta)
        self._witness = None

    def witness(self) -> tuple[list, tuple]:
        """(P's witness colors as a list, their coloring context)."""
        if self._witness is None:
            colors = self.record[1].assignment
            if colors == self.context[0]:
                self._witness = self.colors, self.context
            else:
                self._witness = [*colors], coloring_context(self.adj, colors)
        return self._witness


def _coloring_facts(adj, s: int, colors: list, base: list, context) -> tuple:
    """(proper, branches, color count) of a coloring colors of the child of
    P = adj joined to s: by the N[v] rule from context when its colors on P
    are base, else by one check_classes pass over the child's adjacency."""
    if colors[:-1] == base:
        return check_at_new_vertex(context, s, colors[-1])
    proper, at, k = check_classes(grown(adj, s), colors, (1 << len(colors)) - 1)
    return proper, at is not None, k


def check_child(tables: ParentTables, s: int, step: tuple) -> tuple | None:
    """The claims of a child G = P + v, v joined to s, checked from its
    parent's tables (see the module docstring), or None when a claim fails,
    which leaves G to check_in_class_graph. step is colorer.resume_last's
    at v: G's colors, omega, delta and the mechanism, None when the
    colorer found no coloring. Returns (chi, chi's witness, or None when it
    is the colorer's coloring, vertices colored under the degree bound,
    exact fallbacks the colorer used on them).
    """
    colors, w, delta, mech = step
    if mech is None or tables.shapes >> s & 1 or delta > 2 * w - 1:
        return None
    bound_holds = delta <= 2 * w - 3
    wheel = delta == 2 * w - 1
    proper, branches, k = _coloring_facts(tables.adj, s, colors, tables.colors, tables.context)
    chi = max(w, tables.record[0])
    if not proper or branches or not chi <= k <= (w if bound_holds else w + 1):
        return None
    witness = g = None
    if k > chi:
        # so chi = omega, in the middle or wheel branch
        v = len(tables.adj)
        base, context = tables.witness()
        extended = [*base, 0]
        if not wheel and color_in_order((*tables.adj, s), extended, (v,), (1 << v) - 1, chi):
            proper, branches, k = _coloring_facts(tables.adj, s, extended, base, context)
            witness = Coloring(tuple(extended))
        else:
            g = Graph(v + 1, grown(tables.adj, s))
            upper = Coloring(tuple(colors))
            chi, witness = prove_chi(g, w, upper)
            if witness is upper:
                witness = None
            else:
                proper, at, k = check_classes(g.adj, witness.assignment, g.full_mask())
                branches = at is not None
        if not proper or branches or k != chi or not w <= chi <= w + 1:
            return None
    if wheel:
        g = g or Graph(len(colors), grown(tables.adj, s))
        if trichotomy(g, w, delta, chi)[2]:
            return None
    if bound_holds:
        return chi, witness, len(colors), tables.fallbacks + (mech == EXACT_FALLBACK)
    return chi, witness, 0, 0


def _extension_chunk(args: tuple[int, list, bool]) -> tuple[StressSummary, list]:
    """Check every in-class child on n vertices of a slice of level n - 1.

    Each parent comes with its colorer state and its record, or None when it
    failed a check. A parent with a record builds its ParentTables once
    here; colorer.resume_last resumes each of its children at vertex n - 1
    from them, and check_child checks it. A child is built (adjacency, Graph
    and colorer state) only when it is kept or check_child leaves it to
    check_in_class_graph, as it does every child of a parent without a
    record, inserted from vertex 0 by insert_vertices; a kept child that
    check_child closed gets the record check_child gives. Returns the
    chunk's summary and, when keep is set, the children with their states
    and records, in order.
    """
    n, parents, keep = args
    part = StressSummary("exhaustive")
    children = []
    for parent, parent_state, verified in parents:
        t0 = time.perf_counter()
        extensions = K.in_class_extensions(parent.adj, n)
        t1 = time.perf_counter()
        part.extensions_time += t1 - t0
        tables = None
        if verified is not None:
            tables = ParentTables(parent.adj, parent_state, verified)
            part.tables_time += time.perf_counter() - t1
        for s in extensions:
            closed = None
            if tables is not None:
                step = resume_last(parent.adj, parent_state, s, tables.cliques, tables.top)
                closed = check_child(tables, s, step)
                if closed is not None:
                    part.in_class_count += 1
                    part.vertices_colored_strict += closed[2]
                    part.exact_fallbacks += closed[3]
                    if not keep:
                        continue
            g = Graph(n, grown(parent.adj, s), parent.edge_count + s.bit_count())
            if tables is None:
                state = insert_vertices(g)
            else:
                state = insert_last(g, parent_state, step)
            if closed is None:
                record = part.record(g, state)
            else:
                chi, witness = closed[:2]
                record = (chi, Coloring(state.colors) if witness is None else witness)
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
        if max_n > 8:
            raise ScaleExceededError("exhaustive sweeps capped at n = 8")
        summary = StressSummary(mode=mode, max_n=max_n)
        level = [(Graph(0, ()), None, None)]
        for n in range(1, max_n + 1):
            t_level = time.perf_counter()
            keep = n < max_n
            chunks = [(n, parents, keep) for parents in _slices(level, workers)]
            done = StressSummary(mode, graphs_checked=1 << (n * (n - 1) // 2))
            level = []
            for part, children in _run_chunks(
                chunks, _extension_chunk, workers, False
            ):
                done.merge(part)
                level += children
            summary.merge(done)
            if progress:
                print(
                    f"progress: n={n} done, {done.in_class_count} in class,"
                    f" {time.perf_counter() - t_level:.2f} s"
                    f" (extensions {done.extensions_time:.2f} s,"
                    f" tables {done.tables_time:.2f} s, {done.built} built)",
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
