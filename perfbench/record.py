#!/usr/bin/env python3
"""Record the outputs the benchmark compares against, into expected.json.

Run from the root of a checkout whose outputs are known good:

    python3 perfbench/record.py

It stores the exhaustive sweep payload, the counts of every random sweep of
the default seed, and the SHA-256 of every report output.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"not recorded: {what}")


def main() -> int:
    seed = workloads.DEFAULT_SEED
    expected: dict = {}
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        wl = workloads.SweepExhaustive(seed, Path(tmp), {})
        summary = wl.ops[0]()
        require(summary.total_violations == 0, "exhaustive sweep has violations")
        expected[wl.name] = summary.payload()

        wl = workloads.SweepRandom(seed, Path(tmp), {})
        counts = []
        for i, op in enumerate(wl.ops):
            summary = op()
            require(summary.total_violations == 0, f"random sweep {i} has violations")
            counts.append([summary.in_class_count, summary.vertices_colored_strict,
                           summary.exact_fallbacks])
        expected[wl.name] = counts

        wl = workloads.ReportBlowup(seed, Path(tmp), {})
        digests = {}
        for (label, _, _), op in zip(wl.inputs, wl.ops):
            code, text = op()
            require(code == 0, f"report on {label} exited with {code}")
            digests[label] = hashlib.sha256(text.encode()).hexdigest()
        expected[wl.name] = dict(sorted(digests.items()))
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
