"""Command-line interface.

Subcommands: check, color, report, gen, stress, verify. Exit codes: 0 on
success, 1 when a guaranteed claim is violated (the counterexample graph is
serialized next to the message), 2 on bad input. All stdout output is
byte-identical across re-runs with identical inputs and seeds; timing and
progress go to stderr.

The argument parser is built on the first call of ``main`` and shared by
every later call in the process, so ``main`` may be called repeatedly at the
cost of parsing alone; importing this module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .colorer import class_color, omega_color_strict
from .coloring import verify_proper
from .dimacs import parse_coloring, parse_dimacs, write_coloring, write_dimacs
from .errors import ClaimViolationError, ClawChromaError
from .generators import blown_up_odd_cycle, random_in_class, wheel
from .graph import Graph, from_edge_mask
from .recognition import is_in_class
from .report import classify_trichotomy, emit_report
from .stress import run_stress

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2


def _load_graph(path: str) -> Graph:
    return parse_dimacs(Path(path).read_text())


def _cmd_check(args) -> int:
    verdict = is_in_class(_load_graph(args.file))
    if verdict:
        sys.stdout.write("in-class true\n")
    else:
        w = verdict.witness
        vertices = " ".join(str(v) for v in w.vertices)
        sys.stdout.write(f"in-class false\nwitness {w.kind} {vertices}\n")
    return EXIT_OK


def _cmd_color(args) -> int:
    g = _load_graph(args.file)
    if args.strict_omega:
        coloring, trace = omega_color_strict(g)
    else:
        coloring, trace = class_color(g)
    sys.stdout.write(write_coloring(coloring))
    print(
        f"colors-used {coloring.colors_used} "
        f"(direct={trace.direct_colors} kempe={trace.kempe_swaps} "
        f"exact={trace.exact_fallbacks})",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_report(args) -> int:
    report = classify_trichotomy(_load_graph(args.file))
    if args.json:
        sys.stdout.write(emit_report(report))
    else:
        sys.stdout.write(f"in-class {str(report.in_class).lower()}\n")
        if report.in_class:
            sys.stdout.write(
                f"omega {report.omega}\ndelta {report.delta}\n"
                f"chi {report.chi}\nbranch {report.branch}\n"
            )
        else:
            w = report.witnesses[0]
            vertices = " ".join(str(v) for v in w.vertices)
            sys.stdout.write(f"witness {w.kind} {vertices}\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.family == "wheel":
        g = wheel(args.k)
        comments = [f"clawchroma gen wheel {args.k}"]
    elif args.family == "blowup":
        g = blown_up_odd_cycle(args.n, args.m)
        comments = [f"clawchroma gen blowup {args.n} {args.m}"]
    else:
        g = random_in_class(args.n, args.p, args.seed)
        if g is None:
            print("no in-class graph found within the try budget", file=sys.stderr)
            return EXIT_INPUT
        comments = [
            f"clawchroma gen random {args.n} {args.p} {args.seed}",
            f"seed {args.seed}",
        ]
    sys.stdout.write(write_dimacs(g, comments))
    return EXIT_OK


def _dump_counterexamples(summary, dump_dir: str) -> None:
    out = Path(dump_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cat, (n, mask) in sorted(summary.counterexamples.items()):
        g = from_edge_mask(n, mask)
        base = out / f"counterexample_{cat}"
        base.with_suffix(".col").write_text(
            write_dimacs(g, [f"violates {cat}", f"edge-mask {mask}"])
        )
        base.with_suffix(".json").write_text(
            json.dumps(
                {"category": cat, "n": n, "edge_mask": mask,
                 "edges": list(g.edges())},
                separators=(", ", ": "),
            )
            + "\n"
        )
        print(f"counterexample written: {base}.col", file=sys.stderr)


def _cmd_stress(args) -> int:
    if args.exhaustive is not None:
        summary = run_stress("exhaustive", max_n=args.exhaustive, progress=args.progress)
    else:
        n_lo, n_hi, samples, seed = args.random
        summary = run_stress(
            "random", n_lo=n_lo, n_hi=n_hi, samples=samples, seed=seed,
            progress=args.progress,
        )
    sys.stdout.write(json.dumps(summary.payload(), separators=(", ", ": ")) + "\n")
    print(f"wall-time {summary.wall_time:.3f}s", file=sys.stderr)
    if summary.total_violations:
        _dump_counterexamples(summary, args.dump_dir)
        return EXIT_CLAIM
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph_file)
    coloring = parse_coloring(Path(args.coloring_file).read_text(), g.n)
    bad = verify_proper(g, coloring)
    if bad is None:
        sys.stdout.write(f"proper true\ncolors-used {coloring.colors_used}\n")
        return EXIT_OK
    sys.stdout.write(f"proper false\nconflict {bad[0] + 1} {bad[1] + 1}\n")
    return EXIT_CLAIM


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared; do not mutate it.

    Each ``parse_args`` call returns a fresh namespace, so reuse is safe.
    """
    parser = argparse.ArgumentParser(
        prog="clawchroma",
        description="Recognition, clique-exact coloring and verification "
        "sweeps for {K1,3, K5-P3}-free graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="class membership of a DIMACS graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("color", help="constructive coloring of an in-class graph")
    p.add_argument("file")
    p.add_argument(
        "--strict-omega",
        action="store_true",
        help="require exactly clique-number colors (needs delta <= 2*omega-3)",
    )
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("report", help="trichotomy report for a DIMACS graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="stable JSON output")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("gen", help="generate a family graph as DIMACS")
    gen_sub = p.add_subparsers(dest="family", required=True)
    q = gen_sub.add_parser("wheel", help="hub joined to a k-cycle rim")
    q.add_argument("k", type=int)
    q = gen_sub.add_parser("blowup", help="odd cycle with alternate K_m blow-ups")
    q.add_argument("n", type=int)
    q.add_argument("m", type=int)
    q = gen_sub.add_parser("random", help="first seeded in-class random graph")
    q.add_argument("n", type=int)
    q.add_argument("p", type=float)
    q.add_argument("seed", type=int)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("stress", help="verification sweep, exhaustive or random")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", type=int, metavar="MAX_N")
    group.add_argument(
        "--random", nargs=4, type=int, metavar=("N_LO", "N_HI", "SAMPLES", "SEED")
    )
    p.add_argument("--dump-dir", default=".", help="where counterexamples go")
    p.add_argument("--progress", action="store_true", help="progress on stderr")
    p.set_defaults(fn=_cmd_stress)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph_file")
    p.add_argument("coloring_file")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ClaimViolationError as exc:
        print(f"claim violation: {exc}", file=sys.stderr)
        if isinstance(exc.graph, Graph):
            sys.stderr.write(write_dimacs(exc.graph, [f"violates {exc.category}"]))
        return EXIT_CLAIM
    except ClawChromaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
