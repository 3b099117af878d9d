import json
import time
from itertools import combinations

import pytest

from clawchroma import _kernels as K
from clawchroma import report
from clawchroma._kernels import scan_in_class
from clawchroma.bitops import iter_bits
from clawchroma.cliques import omega
from clawchroma.coloring import Coloring, exact_chromatic
from clawchroma.errors import ClaimViolationError, ScaleExceededError
from clawchroma.graph import build_graph, degree_profile, from_edge_mask
from clawchroma.report import (
    MIDDLE_CASE,
    OMEGA_CASE,
    OUT_OF_CLASS,
    WHEEL_CASE,
    classify_trichotomy,
    emit_report,
    find_induced_wheel6,
    trichotomy,
)
from graphzoo import claw, complete, empty, k4_minus_edge

from clawchroma import blown_up_odd_cycle, wheel


def test_wheel_report():
    r = classify_trichotomy(wheel(5))
    assert r.in_class and r.branch == WHEEL_CASE
    assert (r.omega, r.delta, r.chi) == (3, 5, 4)
    assert r.w6_witness == (0, 1, 2, 3, 4, 5)
    assert r.coloring is not None and r.coloring.colors_used == 4


def test_blowup_report():
    r = classify_trichotomy(blown_up_odd_cycle(2, 2))
    assert r.branch == MIDDLE_CASE
    assert (r.omega, r.delta, r.chi) == (3, 4, 4)
    assert r.w6_witness is None


def test_omega_case_report():
    r = classify_trichotomy(k4_minus_edge())
    assert r.branch == OMEGA_CASE
    assert (r.omega, r.delta, r.chi) == (3, 3, 3)
    assert r.coloring.colors_used == 3


def test_out_of_class_report():
    r = classify_trichotomy(claw())
    assert not r.in_class and r.branch == OUT_OF_CLASS
    assert r.witnesses[0].kind == "claw"
    assert r.omega is None and r.coloring is None


def test_empty_graph_report():
    r = classify_trichotomy(empty(0))
    assert r.in_class and r.branch == OMEGA_CASE
    assert (r.omega, r.delta, r.chi) == (0, 0, 0)


def test_scale_cap():
    with pytest.raises(ScaleExceededError):
        classify_trichotomy(empty(65))


K1_4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.mark.parametrize(
    "g, w, delta, chi, branch, categories",
    [
        (wheel(5), 3, 5, 4, WHEEL_CASE, []),
        (wheel(5), 3, 5, 3, WHEEL_CASE, ["wheel_branch"]),
        (k4_minus_edge(), 3, 3, 3, OMEGA_CASE, []),
        (k4_minus_edge(), 3, 3, 4, OMEGA_CASE, ["chi_equals_omega"]),
        (k4_minus_edge(), 3, 3, 5, OMEGA_CASE,
         ["chi_equals_omega", "chi_within_one"]),
        (claw(), 2, 3, 2, WHEEL_CASE,
         ["degree_bound", "wheel_branch", "wheel_branch"]),
        (K1_4, 2, 4, 2, None, ["degree_bound"]),
    ],
)
def test_trichotomy_failures(g, w, delta, chi, branch, categories):
    got_branch, _, failures = trichotomy(g, w, delta, chi)
    assert got_branch == branch
    assert [e.category for e in failures] == categories
    assert all(e.graph is g for e in failures)


def test_classify_trichotomy_raises_first_failure(monkeypatch):
    # an omega + 1 coloring of k4_minus_edge has no join-count certificate,
    # so chi comes from the oracle; chi = 5 fails chi_equals_omega first,
    # then chi_within_one
    g = k4_minus_edge()
    monkeypatch.setattr(
        report, "finish_coloring", lambda _g, _state: (Coloring((1, 2, 3, 4)), None)
    )
    monkeypatch.setattr(report, "exact_chromatic", lambda *_: (5, None))
    with pytest.raises(ClaimViolationError) as exc:
        classify_trichotomy(g)
    assert exc.value.category == "chi_equals_omega"


def test_oracle_fallback_reuses_omega_and_coloring(monkeypatch):
    # P4 0-3-2-1: the colorer uses 3 colors and no join-count certificate
    # exists, so the oracle decides chi = 2 from the bracket it is handed;
    # omega is read off the colorer's state, so no clique search runs
    calls = {"dsatur": 0, "clique_number": 0}

    def counted(name):
        kernel = getattr(K, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(K, name, counted(name))
    r = classify_trichotomy(build_graph(4, [(0, 3), (1, 2), (2, 3)]))
    assert (r.omega, r.chi, r.coloring.colors_used) == (2, 2, 3)
    assert calls == {"dsatur": 0, "clique_number": 0}


def test_find_induced_wheel6():
    assert find_induced_wheel6(wheel(5)) == (0, 1, 2, 3, 4, 5)
    assert find_induced_wheel6(wheel(7)) is None
    assert find_induced_wheel6(complete(6)) is None
    # embedded with relabeled vertices and an extra pendant
    g = build_graph(
        8,
        [(7, 1), (7, 2), (7, 3), (7, 4), (7, 5),
         (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (0, 6)],
    )
    assert find_induced_wheel6(g) == (1, 2, 3, 4, 5, 7)


def _wheel_by_rim_search(g):
    """Least induced 6-wheel by trying every 5-subset of each N(hub)."""
    adj = g.adj
    for hub in range(g.n):
        for rim in combinations(iter_bits(adj[hub]), 5):
            rim_mask = sum(1 << v for v in rim)
            if all((adj[v] & rim_mask).bit_count() == 2 for v in rim):
                return tuple(sorted((hub, *rim)))
    return None


def test_find_induced_wheel6_matches_rim_search_up_to_n6():
    wheels = 0
    for n in range(7):
        for mask in scan_in_class(n, 0, 1 << n * (n - 1) // 2):
            g = from_edge_mask(n, mask)
            w6 = find_induced_wheel6(g)
            assert w6 == _wheel_by_rim_search(g), (n, mask)
            wheels += w6 is not None
    assert wheels == 72


def test_find_induced_wheel6_at_1024_vertices():
    g = complete(1024)
    start = time.perf_counter()
    assert find_induced_wheel6(g) is None
    assert time.perf_counter() - start < 1.0


def test_emit_report_key_order_and_bytes():
    text = emit_report(classify_trichotomy(wheel(5)))
    assert text == emit_report(classify_trichotomy(wheel(5)))
    payload = json.loads(text)
    assert list(payload) == [
        "in_class", "omega", "delta", "chi", "branch",
        "w6_witness", "coloring", "witnesses",
    ]
    assert payload["branch"] == "wheel_case"
    assert payload["chi"] == 4
    assert payload["coloring"]["colors_used"] == 4


def test_emit_report_out_of_class():
    payload = json.loads(emit_report(classify_trichotomy(claw())))
    assert payload["in_class"] is False
    assert payload["witnesses"][0]["kind"] == "claw"
    assert payload["witnesses"][0]["vertices"] == [0, 1, 2, 3]
    assert payload["coloring"] is None


# (half-length, blow-up size) of the perfbench report inputs, then two
# larger ones that the exact oracle takes minutes or more on
CHI_ABOVE_OMEGA_BLOWUPS = (
    (31, 1), (20, 1), (3, 4), (10, 2), (2, 6), (5, 3),
    (12, 2), (2, 7), (13, 2), (6, 3), (3, 5), (4, 4),
    (5, 5), (6, 5),
)


def _no_oracle(*_):
    raise AssertionError("exact oracle called")


def test_chi_above_omega_proved_without_oracle(monkeypatch):
    monkeypatch.setattr(report, "exact_chromatic", _no_oracle)
    cases = [(wheel(5), 3)]
    cases += [(blown_up_odd_cycle(n, m), m + 1) for n, m in CHI_ABOVE_OMEGA_BLOWUPS]
    assert [g.n for g, _ in cases[-2:]] == [31, 37]
    for g, w in cases:
        r = classify_trichotomy(g)
        assert (r.omega, r.chi) == (w, w + 1)


def report_chi_agrees_with_oracle(monkeypatch, n):
    """classify_trichotomy's chi equals the oracle's on every in-class graph
    on n vertices; returns how many graphs were checked. Every graph the
    report hands to the oracle with chi = omega + 1 has omega = 2: the
    certificate covers the rest."""
    fallbacks = []

    def recording_oracle(g, *bounds):
        result = exact_chromatic(g, *bounds)
        fallbacks.append((omega(g), result[0]))
        return result

    monkeypatch.setattr(report, "exact_chromatic", recording_oracle)
    checked = 0
    for mask in scan_in_class(n, 0, 1 << (n * (n - 1) // 2)):
        g = from_edge_mask(n, mask)
        r = classify_trichotomy(g)
        assert r.chi == exact_chromatic(g)[0], (n, mask)
        assert (r.omega, r.delta) == (omega(g), degree_profile(g)[1]), (n, mask)
        checked += 1
    assert all(w == 2 for w, chi in fallbacks if chi == w + 1)
    return checked


def test_chi_agrees_with_oracle_exhaustive_small(monkeypatch):
    checked = sum(report_chi_agrees_with_oracle(monkeypatch, n) for n in range(1, 7))
    assert checked == 13217
