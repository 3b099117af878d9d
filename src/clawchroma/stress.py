"""Bulk verification sweeps: exhaustive at small n, seeded random above.

For every swept graph the harness runs recognition; in-class graphs then get
the full battery: oracle chromatic number against the clique number, the
trichotomy's branch facts as report.trichotomy states them, the four-shape
neighborhood classification for every vertex and every maximum clique, one
constructive coloring checked against both colorer contracts (omega + 1
colors at most, omega under the degree bound), and the path-or-cycle shape of
every two-class component of every produced coloring. The clique number
and DSATUR are computed once per graph and are the oracle's lower and upper
bounds; the oracle's witness and the DSATUR coloring must be proper, the
witness with exactly chi colors. When DSATUR was already optimal the oracle
hands the same coloring back, and it is checked once. Each failed claim
increments one violation counter; all counters must be zero.

Sweeps may be distributed over processes: CLAWCHROMA_THREADS takes an
integer >= 0 (0, the default, and 1 run serially); any other value is a
ParamRangeError, which the CLI reports with exit code 2. The process pool is
imported and started only when more than one worker has work, and it never
holds more processes than there are chunks or CPUs. Workers share nothing and
partial results merge by deterministic ordered reduction, so summaries are
identical run to run, with or without workers. The wall-clock time is
deliberately not part of the summary payload.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field

from . import _kernels as K
from .cliques import omega as omega_of
from .colorer import color_in_class
from .coloring import ORACLE_MAX_VERTICES, dsatur_greedy, exact_chromatic, verify_proper
from .errors import ClaimViolationError, ParamRangeError, ScaleExceededError
# random_graph is unused here; the benchmark tracer still wraps stress.random_graph
from .generators import SplitMix64, random_graph, random_in_class_graph  # noqa: F401
from .graph import Graph, degree_profile, edge_mask_of, from_edge_mask
from .kempe import find_branching_component
# the benchmark tracer wraps stress.is_in_class (unused here)
from .recognition import is_in_class, verify_neighborhood_all_cliques  # noqa: F401
from .report import CHI_EQUALS_OMEGA, CHI_WITHIN_ONE, DEGREE_BOUND, WHEEL_BRANCH
# the benchmark tracer wraps stress.find_induced_wheel6 (unused here)
from .report import OMEGA_CASE, find_induced_wheel6, trichotomy  # noqa: F401

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

    def record(self, g: Graph) -> None:
        """Count one in-class graph and the claims it fails."""
        self.in_class_count += 1
        viol, strict_vertices, strict_fallbacks = check_in_class_graph(g)
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


def check_in_class_graph(g: Graph) -> tuple[set[str], int, int]:
    """All per-graph claims for an in-class graph.

    Returns (violated categories, vertices colored under the degree bound,
    exact fallbacks the colorer used on them).
    """
    w = omega_of(g)
    delta = degree_profile(g)[1]
    greedy = dsatur_greedy(g)
    chi, oracle_coloring = exact_chromatic(g, greedy, w)
    branch, _, failures = trichotomy(g, w, delta, chi)
    viol = {e.category for e in failures}
    # the oracle hands greedy back when DSATUR was already optimal
    colorings = [oracle_coloring]
    if greedy is not oracle_coloring:
        colorings.append(greedy)
    if oracle_coloring.colors_used != chi or any(
        verify_proper(g, c) is not None for c in colorings
    ):
        viol.add(CHI_WITHIN_ONE)
    strict_vertices = strict_fallbacks = 0
    bound_holds = branch == OMEGA_CASE
    try:
        coloring, trace = color_in_class(g)
    except ClaimViolationError:
        viol.add(CHI_WITHIN_ONE)
        if bound_holds:
            viol.add(CHI_EQUALS_OMEGA)
    else:
        # color_in_class checked that its coloring is proper before returning
        colorings.append(coloring)
        if coloring.colors_used > w + 1:
            viol.add(CHI_WITHIN_ONE)
        if bound_holds:
            strict_vertices = g.n
            strict_fallbacks = trace.exact_fallbacks
            if coloring.colors_used != w:
                viol.add(CHI_EQUALS_OMEGA)
    for u in range(g.n):
        if not verify_neighborhood_all_cliques(g, u):
            viol.add(NEIGHBORHOOD_SHAPE)
            break
    for coloring in colorings:
        if find_branching_component(g, coloring) is not None:
            viol.add(COMPONENT_SHAPE)
            break
    return viol, strict_vertices, strict_fallbacks


def _exhaustive_chunk(args: tuple[int, int, int]) -> StressSummary:
    n, start, stop = args
    part = StressSummary("exhaustive", graphs_checked=stop - start)
    for mask in K.scan_in_class(n, start, stop):
        part.record(from_edge_mask(n, mask))
    return part


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
        for n in range(1, max_n + 1):
            total = 1 << (n * (n - 1) // 2)
            step = total if workers <= 1 else max(4096, total // (8 * workers))
            chunks = [
                (n, start, min(start + step, total))
                for start in range(0, total, step)
            ]
            for part in _run_chunks(chunks, _exhaustive_chunk, workers, False):
                summary.merge(part)
            if progress:
                print(f"progress: n={n} done", file=sys.stderr)
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
