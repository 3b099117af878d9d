#!/usr/bin/env python3
"""clawchroma end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-exhaustive, sweep-random, report-blowup, color-linegraph
(see workloads.py for what each exercises and why).  The package is imported
from ``src/`` of the checkout; nothing is built or installed, and whichever
kernel backend imports is used.  Every sweep runs serially.

With ``--trace 0`` the run repeats passes of the workload, the same fixed
list of operations each time, for S seconds and reports the end-to-end
metrics.  Every time in them is scaled to a reference machine speed by the
probe in speed.py, which runs between operations; the speed factor (scaled
over raw time) is printed.

  setup_s          fresh interpreter to ``import clawchroma`` done, median
                   of several interpreters started before the passes
  wall_s           one pass, median over the passes
  graphs_per_s     swept graphs, or requests, completed per second
  in_class_per_s   in-class graphs fully checked or coloured per second
  latency_p50_ms   one operation (a sweep or a CLI call), closed loop,
  latency_p90_ms   one client, over every operation of the run; the sample
                   count is printed
  peak_rss_mb      peak resident memory of the benchmark process

With ``--trace 1`` it alternates untraced and traced passes over the same
inputs and reports the per-layer self time and calls of each wrapped layer
(see tracing.py), colourer mechanism counts, the tracing overhead and the
time no layer accounts for, all from raw, unscaled times.

Human-readable lines (backend, nproc, Python, git revision, input
properties, every metric with its unit, fail_ratio) precede the last line,
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 2, with no result line, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_INTERPRETERS = 15
PROBE_EVERY_S = 0.2


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure_setup(env: dict, probe: SpeedProbe) -> list[float]:
    """Scaled wall time of fresh interpreters that import clawchroma and read
    its backend."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import clawchroma; clawchroma.backend_name")
    times = []
    for _ in range(SETUP_INTERPRETERS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        times += probe.scale([time.perf_counter() - start])
    return times


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Outcome of the operations run so far."""

    def __init__(self):
        self.passes = self.attempted = self.failed = self.graphs = self.in_class = 0


def run_ops(wl, probe: SpeedProbe | None = None) -> tuple[float, list[float], list]:
    """Run one pass; returns (pass time, op latencies, outputs).

    With a probe, reference slices run between operations whenever 0.2 s of
    operations have run since the last ones, and the latencies are scaled.
    """
    outputs = []
    latencies = []
    pending = []
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            out = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        pending.append(time.perf_counter() - t0)
        outputs.append(out)
        if probe is not None and sum(pending) >= PROBE_EVERY_S:
            latencies += probe.scale(pending)
            pending = []
    if probe is not None and pending:
        pending = probe.scale(pending)
    latencies += pending
    return sum(latencies), latencies, outputs


def check_outputs(wl, outputs: list, tally: Tally) -> None:
    """Check the outputs of one pass and add them to the tally."""
    tally.passes += 1
    for i, out in enumerate(outputs):
        tally.attempted += 1
        ok = False
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
        else:
            try:
                graphs, in_class, ok = wl.check(i, out)
                tally.graphs += graphs
                tally.in_class += in_class
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                print(f"check failed: {exc!r}", file=sys.stderr)
        if not ok:
            tally.failed += 1
            print(f"wrong output: pass {tally.passes}, operation {i}", file=sys.stderr)


def end_to_end(wl, seconds: float, setup_times: list[float], probe: SpeedProbe,
               tally: Tally) -> dict:
    passes, latencies = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        elapsed, lat, outputs = run_ops(wl, probe)
        check_outputs(wl, outputs, tally)
        passes.append(elapsed)
        latencies += lat
    measured = sum(passes)
    print(f"samples: {len(passes)} passes, {len(latencies)} operations, "
          f"{len(probe.slices)} reference slices, speed factor {probe.factor():.4f}")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "graphs_per_s": (tally.graphs / measured, "1/s"),
        "in_class_per_s": (tally.in_class / measured, "1/s"),
        "latency_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, seconds: float, tally: Tally) -> dict:
    tracer = Tracer()
    untraced = []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        elapsed, _, outputs = run_ops(wl)
        check_outputs(wl, outputs, tally)
        untraced.append(elapsed)
        # the root span covers the operations only, not the checks
        _, _, outputs = tracer.run_root(lambda: run_ops(wl))
        check_outputs(wl, outputs, tally)
    print(f"samples: {len(untraced)} untraced and {len(untraced)} traced passes")
    return tracer.metrics(sum(untraced) / len(untraced))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clawchroma" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CLAWCHROMA_THREADS", None)
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark, its set-up interpreters and the speed probe,
    # so that the probe measures the CPU the timed work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    setup_times = measure_setup(dict(os.environ), probe)

    import clawchroma
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        wl = workloads.WORKLOADS[args.workload](seed, workdir, workloads.load_expected())
        tally = Tally()
        if args.trace:
            metrics = per_layer(wl, args.seconds, tally)
        else:
            metrics = end_to_end(wl, args.seconds, setup_times, probe, tally)
        # after the passes, so that peak_rss_mb does not count this
        props = wl.properties()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    props["run_graphs"] = tally.graphs
    props["run_in_class_yield"] = tally.in_class / tally.graphs if tally.graphs else 0.0
    print(f"workload: {args.workload} seed {seed}")
    print(f"backend: {clawchroma.backend_name}  nproc: {os.cpu_count()}  "
          f"python: {platform.python_version()}  git: {git_revision()}")
    print(f"inputs: {json.dumps(props, sort_keys=True)}")
    print(f"fail_ratio: {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.9g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
