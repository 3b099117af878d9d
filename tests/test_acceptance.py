"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-4 and 7 rest on the exhaustive sweeps: every labeled graph on
up to 6 vertices by default, and the full n=7 space (2,097,152 graphs) under
--run-slow. Equality claims are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from clawchroma._kernels import scan_in_class
from clawchroma.cli import main
from clawchroma.coloring import (
    Coloring,
    dsatur_greedy,
    exact_chromatic,
    find_branching_component,
    verify_proper,
)
from clawchroma.dimacs import write_dimacs
from clawchroma.graph import degree_profile, from_edge_mask
from clawchroma.recognition import is_in_class, verify_neighborhood_all_cliques
from clawchroma.report import classify_trichotomy
from clawchroma.stress import run_stress
from graphzoo import (
    all_cliques_by_enumeration,
    claw,
    complete,
    cycle,
    enumerate_labeled,
    gem,
    naive_chromatic,
    petersen,
    seeded_line_graphs,
)
from test_report import report_chi_agrees_with_oracle

from clawchroma import blown_up_odd_cycle, omega, wheel

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def sweep6():
    return run_stress("exhaustive", max_n=6)


def _announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion1_chi_equals_omega_under_degree_bound(sweep6):
    assert sweep6.violations["chi_equals_omega"] == 0
    assert sweep6.graphs_checked == 1 + 2 + 8 + 64 + 1024 + 32768
    assert sweep6.wall_time < 60
    _announce(
        1,
        f"exhaustive n<=6: {sweep6.graphs_checked} graphs, "
        f"0 chi=omega violations in {sweep6.wall_time:.1f}s",
    )


def test_exhaustive6_payload_golden(sweep6):
    # the n <= 6 payload pins the strict vertex and exact-fallback counts
    payload = json.dumps(sweep6.payload(), separators=(", ", ": ")) + "\n"
    assert payload == (GOLDEN / "exhaustive6.json").read_text()
    _announce("1/2 golden", "exhaustive n<=6 payload reproduced byte for byte")


def test_criterion2_chi_within_one(sweep6):
    assert sweep6.violations["chi_within_one"] == 0
    _announce(2, "omega <= chi <= omega+1 exact on every in-class graph, n<=6")


def test_criterion3_degree_bound(sweep6):
    assert sweep6.violations["degree_bound"] == 0
    _announce(3, "delta <= 2*omega-1, equality forces (5, 3), n<=6")


def test_criterion4_wheel_branch(sweep6):
    assert sweep6.violations["wheel_branch"] == 0
    hits = 0
    for mask in scan_in_class(6, 0, 1 << 15):
        g = from_edge_mask(6, mask)
        w = omega(g)
        if degree_profile(g)[1] != 2 * w - 1:
            continue
        if exact_chromatic(g)[0] != w + 1:
            continue
        report = classify_trichotomy(g)  # aborts loudly on a missing wheel
        assert report.w6_witness is not None
        hits += 1
    assert hits > 0
    _announce(4, f"induced 6-wheel found in all {hits} wheel-branch graphs at n=6")


def test_criterion5_blowup_family():
    for m in (2, 3, 4):
        g = blown_up_odd_cycle(2, m)
        assert is_in_class(g)
        measured = (omega(g), degree_profile(g)[1], exact_chromatic(g)[0])
        assert measured == (m + 1, 2 * m, m + 2), (m, measured)
    g = blown_up_odd_cycle(3, 2)
    assert is_in_class(g)
    assert (omega(g), degree_profile(g)[1], exact_chromatic(g)[0]) == (3, 4, 4)
    _announce(5, "blow-up family measures (m+1, 2m, m+2) for m=2,3,4 and (3,2)")


def test_criterion6_six_wheel():
    g = wheel(5)
    assert (omega(g), degree_profile(g)[1], exact_chromatic(g)[0]) == (3, 5, 4)
    _announce(6, "wheel(5) measures (omega, delta, chi) = (3, 5, 4)")


def test_criterion7_neighborhood_shapes(sweep6):
    assert sweep6.violations["neighborhood_shape"] == 0
    checked = 0
    # N(hub) of the 6-wheel is a C5 and N(0) of the gem a P4
    graphs = [wheel(5), gem()]
    for n in range(1, 6):
        graphs += enumerate_labeled(n, lambda h: bool(is_in_class(h)))
    for g in graphs:
        for u in range(g.n):
            assert verify_neighborhood_all_cliques(g, u)
            assert all_cliques_by_enumeration(g, u)
            checked += 1
    _announce(7, f"four-shape classification holds for all cliques, n<=6 "
                 f"({checked} vertices rechecked against every maximum clique "
                 f"at n<=5)")


def test_criterion8_component_shapes_on_line_graphs():
    graphs = 0
    for g in seeded_line_graphs(1000, seed=20250811):
        for coloring in (dsatur_greedy(g), exact_chromatic(g)[1]):
            assert verify_proper(g, coloring) is None
            assert find_branching_component(g, coloring) is None
        graphs += 1
    assert graphs == 1000
    control = find_branching_component(claw(), Coloring((1, 2, 2, 2)))
    assert control == 0
    _announce(8, "1000 seeded line graphs: every two-class component is a "
                 "path or cycle; star control violates")


def test_criterion9_oracle_cross_validation():
    checked = 0
    for n in range(6):
        for g in enumerate_labeled(n):
            assert exact_chromatic(g)[0] == naive_chromatic(g)
            checked += 1
    assert checked == 1099 + 1  # all labeled graphs on 1..5 vertices, plus the empty graph
    for n in range(1, 9):
        assert exact_chromatic(complete(n))[0] == n
    for k in range(1, 6):
        assert exact_chromatic(cycle(2 * k + 1))[0] == 3
    assert exact_chromatic(petersen())[0] == 3
    _announce(9, f"oracle matches brute-force enumeration on {checked} graphs "
                 "plus known families")


def test_criterion10_byte_identical_outputs(tmp_path, capsys):
    wheel_file = tmp_path / "wheel5.col"
    wheel_file.write_text(write_dimacs(wheel(5)))
    blowup_file = tmp_path / "blowup22.col"
    blowup_file.write_text(write_dimacs(blown_up_odd_cycle(2, 2)))
    cases = [
        (["report", str(wheel_file), "--json"], "wheel5_report.json"),
        (["report", str(blowup_file), "--json"], "blowup22_report.json"),
        (["stress", "--random", "5", "8", "300", "20250811"], "random_sweep.json"),
    ]
    for argv, golden_name in cases:
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first == (GOLDEN / golden_name).read_text()
    summary = json.loads((GOLDEN / "random_sweep.json").read_text())
    assert all(v == 0 for k, v in summary.items() if k.endswith("_violations"))
    _announce(10, "golden bytes reproduced for wheel, blow-up and seeded sweep")


@pytest.mark.slow
def test_criteria_1_to_4_and_7_full_n7_sweep():
    summary = run_stress("exhaustive", max_n=7)
    assert summary.graphs_checked == 2 + 8 + 64 + 1024 + 32768 + 2097152 + 1
    assert summary.total_violations == 0, summary.violations
    # the payload of the mask-scan sweep that the extension sweep replaced
    assert summary.in_class_count == 251302
    assert summary.vertices_colored_strict == 782947
    assert summary.exact_fallbacks == 197
    assert summary.fallback_rate == 0.00025161
    assert summary.wall_time < 1800
    _announce(
        "1/2/3/4/7 @ n=7",
        f"{summary.graphs_checked} graphs, {summary.in_class_count} in class, "
        f"0 violations in {summary.wall_time:.0f}s "
        f"(fallback rate {summary.fallback_rate})",
    )


@pytest.mark.slow
def test_report_chi_proof_agrees_with_oracle_n7(monkeypatch):
    checked = report_chi_agrees_with_oracle(monkeypatch, 7)
    assert checked == 238085
    _announce(
        "report chi @ n=7",
        f"report chi equals the oracle's on all {checked} in-class graphs; "
        "every chi = omega+1 left to the oracle has omega = 2",
    )
