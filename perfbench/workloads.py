"""The benchmark's four workloads, their inputs and their output checks.

Each workload is a closed loop with one client: a pass is a fixed list of
operations, each one program call that a user would make, and the next
operation starts when the previous one returns.  Every pass of a run repeats
the same list, so each operation is timed several times (see run.py).

  sweep-exhaustive  one ``run_stress("exhaustive", max_n=6)`` per pass.
                    Every verification layer runs on 13,217 tiny in-class
                    graphs; per-call overhead dominates and the exact oracle
                    has almost nothing to do.  The inputs do not depend on
                    the seed.
  sweep-random      96 ``run_stress("random", 13, 22, 250 draws)`` per pass,
                    the sweep seeds being the first 96 values of the
                    benchmark seed's splitmix64 stream.  Most draws are
                    rejected and the few in-class ones are dense, so clique
                    enumeration, recognition and generation dominate.  The
                    cost of a sweep is heavy-tailed (the interquartile range
                    of 2000-draw sweeps is 18% of their median), so a pass
                    holds 24,000 draws to keep the seeds comparable; it
                    takes about 20 s, so a run makes one or two.  The
                    upper end is 22, not 30: above it, near-complete in-class
                    draws take up to a second each.
  report-blowup     ``clawchroma report FILE --json`` over the wheel W5 and
                    twelve blown-up odd cycles (chi = omega + 1), order
                    shuffled by the seed.  Proving that no omega-colouring
                    exists makes this the exact oracle's workload.
  color-linegraph   ``clawchroma color FILE`` over line graphs of seeded
                    subcubic graphs with 10..64 edges (omega <= 3, so they
                    avoid K5-P3, and claw-free).  Recognition, insertion
                    colouring with Kempe repairs, DIMACS and CLI glue run;
                    the oracle does not.

Checks are the benchmark's own.  Sweeps must report zero violations; the
exhaustive payload and the report output bytes must equal what was recorded
at the seed commit (their inputs do not depend on the seed); the random
sweeps' counts are compared with the record only for the default seed.
Every colouring is checked edge by edge against the benchmark's own edge
list and must use at most omega + 1 colours, exactly omega when
delta <= 2*omega - 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from functools import partial
from pathlib import Path

from clawchroma import cli
from clawchroma import _kernels as K
from clawchroma.cliques import omega
from clawchroma.dimacs import write_dimacs
from clawchroma.generators import SplitMix64, blown_up_odd_cycle, line_graph, random_graph, wheel
from clawchroma.graph import build_graph, degree_profile, from_edge_mask
from clawchroma.recognition import is_in_class
from clawchroma.stress import run_stress

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")

EXHAUSTIVE_MAX_N = 6
RANDOM_N = (13, 22)
RANDOM_DRAWS = 250
RANDOM_SWEEPS = 96
# (half-length, blow-up size) of blown_up_odd_cycle; m = 1 is the odd cycle
BLOWUPS = (
    (31, 1), (20, 1), (3, 4), (10, 2), (2, 6), (5, 3),
    (12, 2), (2, 7), (13, 2), (6, 3), (3, 5), (4, 4),
)
LINEGRAPH_EDGES = range(10, 65)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def branch_of(w: int, delta: int) -> str:
    """Trichotomy branch from the clique number and the maximum degree."""
    if delta == 2 * w - 1:
        return "wheel_case"
    if delta == 2 * w - 2:
        return "middle_case"
    return "omega_case" if delta <= 2 * w - 3 else "out_of_bound"


def shape_histogram(shapes) -> dict[str, int]:
    """Histogram of (omega, delta, branch) triples, keys sorted."""
    hist = Counter(f"omega={w} delta={d} {branch_of(w, d)}" for w, d in shapes)
    return dict(sorted(hist.items()))


def graph_shapes(graphs):
    return [(omega(g), degree_profile(g)[1]) for g in graphs]


def proper_colors(edges, n: int, colors: list[int]) -> int | None:
    """Colours used when colors is a proper total colouring, else None."""
    if len(colors) != n or any(c < 1 for c in colors):
        return None
    for u, v in edges:
        if colors[u] == colors[v]:
            return None
    return len(set(colors))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One CLI call with stdout captured and stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class SweepExhaustive:
    name = "sweep-exhaustive"

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.expected = expected.get(self.name)
        self.ops = [partial(run_stress, "exhaustive", max_n=EXHAUSTIVE_MAX_N, workers=0)]

    def check(self, i: int, summary) -> tuple[int, int, bool]:
        ok = summary.total_violations == 0
        if self.expected is not None:
            ok = ok and summary.payload() == self.expected
        return summary.graphs_checked, summary.in_class_count, ok

    def properties(self) -> dict:
        graphs = []
        total = 0
        for n in range(1, EXHAUSTIVE_MAX_N + 1):
            masks = 1 << (n * (n - 1) // 2)
            total += masks
            graphs += [from_edge_mask(n, m) for m in K.scan_in_class(n, 0, masks)]
        return {
            "graphs": total,
            "n_range": [1, EXHAUSTIVE_MAX_N],
            "in_class_yield": len(graphs) / total,
            "shape_histogram": shape_histogram(graph_shapes(graphs)),
        }


class SweepRandom:
    name = "sweep-random"

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.expected = expected.get(self.name) if seed == DEFAULT_SEED else None
        stream = SplitMix64(seed)
        self.sweep_seeds = [stream.next_u64() for _ in range(RANDOM_SWEEPS)]
        lo, hi = RANDOM_N
        self.ops = [partial(run_stress, "random", n_lo=lo, n_hi=hi, samples=RANDOM_DRAWS,
                            seed=s, workers=0) for s in self.sweep_seeds]

    def check(self, i: int, summary) -> tuple[int, int, bool]:
        ok = summary.total_violations == 0 and summary.graphs_checked == RANDOM_DRAWS
        if self.expected is not None:
            got = [summary.in_class_count, summary.vertices_colored_strict,
                   summary.exact_fallbacks]
            ok = ok and got == self.expected[i]
        return summary.graphs_checked, summary.in_class_count, ok

    def properties(self) -> dict:
        # the draws of every sweep, generated the way run_stress does
        lo, hi = RANDOM_N
        in_class = []
        for sweep_seed in self.sweep_seeds:
            master = SplitMix64(sweep_seed)
            for _ in range(RANDOM_DRAWS):
                stream = SplitMix64(master.next_u64())
                n = lo + stream.next_below(hi - lo + 1)
                g = random_graph(n, stream.next_unit(), stream)
                if is_in_class(g):
                    in_class.append(g)
        draws = RANDOM_SWEEPS * RANDOM_DRAWS
        return {
            "graphs": draws,
            "n_range": [lo, hi],
            "in_class_yield": len(in_class) / draws,
            "shape_histogram": shape_histogram(graph_shapes(in_class)),
        }


class ReportBlowup:
    name = "report-blowup"

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.expected = expected.get(self.name)
        self.inputs = [("wheel-5", wheel(5), 3)]
        self.inputs += [(f"blowup-{n}-{m}", blown_up_odd_cycle(n, m), m + 1)
                        for n, m in BLOWUPS]
        random.Random(seed).shuffle(self.inputs)
        self.ops = []
        for label, g, _ in self.inputs:
            path = workdir / f"{label}.col"
            path.write_text(write_dimacs(g, [label]))
            self.ops.append(partial(run_cli, ["report", str(path), "--json"]))

    def check(self, i: int, output) -> tuple[int, int, bool]:
        label, g, w = self.inputs[i]
        code, text = output
        if code != 0:
            return 1, 0, False
        report = json.loads(text)
        colors = report["coloring"]["assignment"]
        used = proper_colors(list(g.edges()), g.n, colors)
        ok = (report["in_class"] and report["omega"] == w and report["chi"] == w + 1
              and used is not None and used <= w + 1)
        if self.expected is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            ok = ok and digest == self.expected[label]
        return 1, int(report["in_class"]), bool(ok)

    def properties(self) -> dict:
        graphs = [g for _, g, _ in self.inputs]
        return {
            "graphs": len(graphs),
            "n_range": [min(g.n for g in graphs), max(g.n for g in graphs)],
            "in_class_yield": 1.0,
            "shape_histogram": shape_histogram(graph_shapes(graphs)),
        }


def subcubic_graph(edges: int, stream: SplitMix64):
    """Seeded graph with the given edge count and maximum degree <= 3."""
    while True:
        n = (2 * edges + 2) // 3 + 1 + stream.next_below(edges // 3 + 1)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for i in range(len(pairs) - 1, 0, -1):
            j = stream.next_below(i + 1)
            pairs[i], pairs[j] = pairs[j], pairs[i]
        degree = [0] * n
        chosen = []
        for u, v in pairs:
            if degree[u] < 3 and degree[v] < 3:
                chosen.append((u, v))
                degree[u] += 1
                degree[v] += 1
                if len(chosen) == edges:
                    return build_graph(n, chosen)


def line_graph_omega(source) -> int:
    """Clique number of the line graph: a clique there is a star or a triangle."""
    delta = degree_profile(source)[1]
    adj = source.adj
    triangle = any(adj[u] & adj[v] for u, v in source.edges())
    return max(delta, 3 if triangle else 0)


class ColorLinegraph:
    name = "color-linegraph"

    def __init__(self, seed: int, workdir: Path, expected: dict):
        stream = SplitMix64(seed)
        self.inputs = []
        self.ops = []
        for edges in LINEGRAPH_EDGES:
            source = subcubic_graph(edges, stream)
            g = line_graph(source)
            w = line_graph_omega(source)
            self.inputs.append((g, w, degree_profile(g)[1]))
            path = workdir / f"line-{edges}.col"
            path.write_text(write_dimacs(g))
            self.ops.append(partial(run_cli, ["color", str(path)]))

    def check(self, i: int, output) -> tuple[int, int, bool]:
        g, w, delta = self.inputs[i]
        code, text = output
        colors = [0] * g.n
        seen = 0
        for line in text.splitlines():
            tag, v, c = line.split()
            if tag != "v" or not 1 <= int(v) <= g.n:
                return 1, 0, False
            colors[int(v) - 1] = int(c)
            seen += 1
        used = proper_colors(list(g.edges()), g.n, colors) if seen == g.n else None
        target = w if delta <= 2 * w - 3 else w + 1
        ok = code == 0 and used is not None and used <= target
        return 1, 1, ok

    def properties(self) -> dict:
        return {
            "graphs": len(self.inputs),
            "n_range": [LINEGRAPH_EDGES[0], LINEGRAPH_EDGES[-1]],
            "in_class_yield": 1.0,
            "shape_histogram": shape_histogram((w, d) for _, w, d in self.inputs),
        }


WORKLOADS = {w.name: w for w in (SweepExhaustive, SweepRandom, ReportBlowup, ColorLinegraph)}
