"""Outside-in span tracing for the per-layer benchmark run.

The tracer replaces each layer's public function at the name its caller
looks up: kernels at ``clawchroma._kernels.<fn>`` (callers use ``K.<fn>``),
everything else at the name that ``stress``, ``report``, ``cli`` or
``colorer`` imported.  Nothing inside the program changes.

Every wrapper records a span with a name, start, end and parent.  Spans are
folded into per-layer totals as they close: a span's duration is added to
its layer's self time and to its parent's child time, and the parent later
subtracts its child time from its own duration.  Memory therefore stays flat
over the hundreds of thousands of kernel calls of one sweep, and a layer's
self time is exactly its span time minus the time of its child spans.  The
benchmark opens one root span per pass; its self time is the pass time no
layer accounts for (``trace.unattributed_s``), so layer self times plus that
add up to the traced pass time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, layer); color_in_class is split by its strict flag
COLOR_IN_CLASS = "colorer.color_in_class"
WRAPS = (
    ("clawchroma._kernels", "scan_in_class", "kernels.scan_in_class"),
    ("clawchroma._kernels", "find_claw", "kernels.find_claw"),
    ("clawchroma._kernels", "find_k5_minus_p3", "kernels.find_k5_minus_p3"),
    ("clawchroma._kernels", "clique_number", "kernels.clique_number"),
    ("clawchroma._kernels", "lex_min_max_clique", "kernels.lex_min_max_clique"),
    ("clawchroma._kernels", "max_cliques", "kernels.max_cliques"),
    ("clawchroma._kernels", "dsatur", "kernels.dsatur"),
    ("clawchroma._kernels", "k_color", "kernels.k_color"),
    ("clawchroma.stress", "check_in_class_graph", "stress.check_in_class_graph"),
    ("clawchroma.stress", "random_graph", "generators.random_graph"),
    ("clawchroma.stress", "is_in_class", "recognition.is_in_class"),
    ("clawchroma.stress", "verify_neighborhood_all_cliques",
     "recognition.verify_neighborhood_all_cliques"),
    ("clawchroma.stress", "omega_of", "cliques.omega"),
    ("clawchroma.stress", "exact_chromatic", "coloring.exact_chromatic"),
    ("clawchroma.stress", "dsatur_greedy", "coloring.dsatur_greedy"),
    ("clawchroma.stress", "verify_proper", "coloring.verify_proper"),
    ("clawchroma.stress", "color_in_class", COLOR_IN_CLASS),
    ("clawchroma.stress", "find_branching_component", "kempe.find_branching_component"),
    ("clawchroma.stress", "find_induced_wheel6", "report.find_induced_wheel6"),
    ("clawchroma.report", "is_in_class", "recognition.is_in_class"),
    ("clawchroma.report", "omega_of", "cliques.omega"),
    ("clawchroma.report", "exact_chromatic", "coloring.exact_chromatic"),
    ("clawchroma.report", "color_in_class", COLOR_IN_CLASS),
    ("clawchroma.report", "find_induced_wheel6", "report.find_induced_wheel6"),
    ("clawchroma.colorer", "is_in_class", "recognition.is_in_class"),
    ("clawchroma.colorer", "verify_proper", "coloring.verify_proper"),
    ("clawchroma.colorer", "color_in_class", COLOR_IN_CLASS),
    ("clawchroma.cli", "main", "cli.main"),
    ("clawchroma.cli", "class_color", "colorer.class_color"),
    ("clawchroma.cli", "classify_trichotomy", "report.classify_trichotomy"),
    ("clawchroma.cli", "emit_report", "report.emit_report"),
    ("clawchroma.cli", "parse_dimacs", "dimacs.parse_dimacs"),
    ("clawchroma.cli", "write_coloring", "dimacs.write_coloring"),
)

LAYERS = (
    "stress.check_in_class_graph",
    "generators.random_graph",
    "recognition.is_in_class",
    "recognition.verify_neighborhood_all_cliques",
    "kernels.scan_in_class",
    "kernels.find_claw",
    "kernels.find_k5_minus_p3",
    "kernels.clique_number",
    "kernels.lex_min_max_clique",
    "kernels.max_cliques",
    "kernels.dsatur",
    "kernels.k_color",
    "cliques.omega",
    "coloring.exact_chromatic",
    "coloring.dsatur_greedy",
    "coloring.verify_proper",
    COLOR_IN_CLASS + ".strict",
    COLOR_IN_CLASS + ".relaxed",
    "colorer.class_color",
    "kempe.find_branching_component",
    "report.classify_trichotomy",
    "report.find_induced_wheel6",
    "report.emit_report",
    "dimacs.parse_dimacs",
    "dimacs.write_coloring",
    "cli.main",
)

# RepairTrace field behind each colourer mechanism count
MECHANISMS = (
    ("colorer.direct", "direct_colors"),
    ("colorer.kempe_swap", "kempe_swaps"),
    ("colorer.pair_recolor", "pair_recolor_moves"),
    ("colorer.cascade", "cascade_moves"),
    ("colorer.exact_fallback", "exact_fallbacks"),
)


def _count_scan(counts, result, args, kwargs):
    _, start, stop = args
    counts["masks_scanned"] += stop - start
    counts["masks_kept"] += len(result)


def _count_verdict(counts, result, args, kwargs):
    counts["verdicts"] += 1
    counts["verdicts_in_class"] += bool(result)


def _count_k_color(counts, result, args, kwargs):
    counts["k_color_unsat"] += result is None


def _count_repairs(counts, result, args, kwargs):
    trace = result[1]
    for metric, field in MECHANISMS:
        counts[metric] += getattr(trace, field)
    counts["colored_vertices"] += len(trace.steps)


HOOKS = {
    "kernels.scan_in_class": _count_scan,
    "recognition.is_in_class": _count_verdict,
    "kernels.k_color": _count_k_color,
    COLOR_IN_CLASS: _count_repairs,
}


class Tracer:
    """Installs the wrappers and accumulates self time, calls and counts."""

    def __init__(self):
        self.totals = {layer: [0.0, 0] for layer in LAYERS}
        self.counts = Counter()
        self.unattributed = 0.0
        self.wall = 0.0
        self.passes = 0
        self._stack: list[list[float]] = []
        self._wrappers = []
        for module_name, attr, layer in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._wrappers.append((module, attr, fn, self._wrap(fn, layer)))

    def _wrap(self, fn, layer):
        stack = self._stack
        counts = self.counts
        hook = HOOKS.get(layer)
        clock = time.perf_counter
        if layer == COLOR_IN_CLASS:
            strict_slot = self.totals[layer + ".strict"]
            relaxed_slot = self.totals[layer + ".relaxed"]

            def slot_for(kwargs):
                return strict_slot if kwargs.get("strict") else relaxed_slot
        else:
            slot = self.totals[layer]

            def slot_for(kwargs):
                return slot

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                totals = slot_for(kwargs)
                totals[0] += span - frame[0]
                totals[1] += 1
                stack[-1][0] += span
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, traced in self._wrappers:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._wrappers:
            setattr(module, attr, fn)

    def run_root(self, fn):
        """Run fn under the root span with the wrappers installed."""
        frame = [0.0]
        self._stack.append(frame)
        self.install()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            span = time.perf_counter() - start
            self.uninstall()
            self._stack.pop()
        self.unattributed += span - frame[0]
        self.wall += span
        self.passes += 1
        return result

    def metrics(self, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a per-pass average over the traced passes."""
        per = 1.0 / self.passes
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            self_s, calls = self.totals[layer]
            out[layer + ".self_s"] = (self_s * per, "s")
            out[layer + ".calls"] = (calls * per, "count")
        base = c["verdicts"] + c["masks_scanned"]
        kept = c["verdicts_in_class"] + c["masks_kept"]
        out["recognition.in_class_yield"] = (kept / base if base else 0.0, "ratio")
        out["recognition.in_class_yield.base"] = (base * per, "count")
        out["kernels.scan_in_class.masks_scanned"] = (c["masks_scanned"] * per, "count")
        out["kernels.scan_in_class.masks_kept"] = (c["masks_kept"] * per, "count")
        out["kernels.k_color.unsat"] = (c["k_color_unsat"] * per, "count")
        for metric, _ in MECHANISMS:
            out[metric] = (c[metric] * per, "count")
        colored = c["colored_vertices"]
        fallbacks = c["colorer.exact_fallback"]
        out["colorer.exact_fallback_ratio"] = (
            fallbacks / colored if colored else 0.0, "ratio")
        out["colorer.exact_fallback_ratio.base"] = (colored * per, "count")
        out["trace.wall_s"] = (self.wall * per, "s")
        out["trace.unattributed_s"] = (self.unattributed * per, "s")
        out["trace.untraced_wall_s"] = (untraced_wall, "s")
        out["trace.overhead_ratio"] = (self.wall * per / untraced_wall, "ratio")
        return out
