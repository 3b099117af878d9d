"""DIMACS .col graphs and vertex-coloring text files.

Both formats are 1-based on disk and shifted to 0-based ids at this
boundary. The header's edge count is advisory: a mismatch warns on stderr
but does not fail, matching how real benchmark corpora behave.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from .coloring import Coloring
from .errors import (
    MalformedHeaderError,
    ParseError,
    PartialColoringError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from .graph import Graph, build_graph


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS .col: 'c' comments, one 'p edge N M' line, 'e u v' lines."""
    n = None
    declared_edges = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise MalformedHeaderError(f"line {lineno}: duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise MalformedHeaderError(f"line {lineno}: expected 'p edge N M'")
            try:
                n = int(fields[2])
                declared_edges = int(fields[3])
            except ValueError:
                raise MalformedHeaderError(f"line {lineno}: non-integer sizes") from None
            if n < 0 or declared_edges < 0:
                raise MalformedHeaderError(f"line {lineno}: negative sizes")
        elif fields[0] == "e":
            if n is None:
                raise MalformedHeaderError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer endpoints") from None
            # checked here, so errors carry the line and the 1-based ids
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise VertexOutOfRangeError(
                    f"line {lineno}: edge ({u}, {v}) outside 1..{n}"
                )
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"line {lineno}: unrecognized line {fields[0]!r}")
    if n is None:
        raise MalformedHeaderError("missing 'p edge N M' line")
    g = build_graph(n, edges)
    if declared_edges != g.edge_count:
        print(
            f"warning: header declares {declared_edges} edges, "
            f"found {g.edge_count} distinct",
            file=sys.stderr,
        )
    return g


def write_dimacs(g: Graph, comments: Iterable[str] = ()) -> str:
    lines = [f"c {c}" for c in comments]
    lines.append(f"p edge {g.n} {g.edge_count}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_coloring(text: str, n: int) -> Coloring:
    """Parse 'v <1-based vertex> <color>' lines into a total coloring."""
    assignment = [0] * n
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "v" or len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'v <vertex> <color>'")
        try:
            v, c = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer fields") from None
        if not 1 <= v <= n:
            raise ParseError(f"line {lineno}: vertex {v} outside 1..{n}")
        if c < 1:
            raise ParseError(f"line {lineno}: color {c} < 1")
        if assignment[v - 1]:
            raise ParseError(f"line {lineno}: vertex {v} assigned twice")
        assignment[v - 1] = c
    missing = [v + 1 for v, c in enumerate(assignment) if c == 0]
    if missing:
        raise PartialColoringError(f"vertices without a color: {missing}")
    return Coloring(tuple(assignment))


def write_coloring(coloring: Coloring) -> str:
    return (
        "\n".join(
            f"v {v + 1} {c}" for v, c in enumerate(coloring.assignment)
        )
        + "\n"
        if coloring.assignment
        else ""
    )
