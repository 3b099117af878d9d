import concurrent.futures
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from clawchroma import _kernels as K
from clawchroma import colorer, stress
from clawchroma.cli import _dump_counterexamples, main
from clawchroma.cliques import omega
from clawchroma.colorer import RepairTrace
from clawchroma.coloring import Coloring, exact_chromatic
from clawchroma.errors import (
    ClaimViolationError,
    ParamRangeError,
    ScaleExceededError,
)
from clawchroma.generators import line_graph
from clawchroma.graph import degree_profile, edge_mask_of, from_edge_mask
from clawchroma.report import MIDDLE_CASE, _chi_exceeds, trichotomy
from clawchroma.stress import (
    CHI_EQUALS_OMEGA,
    CHI_WITHIN_ONE,
    NEIGHBORHOOD_SHAPE,
    StressSummary,
    check_in_class_graph,
    run_stress,
)
from graphzoo import claw, cycle, k4_minus_edge, petersen

from clawchroma import wheel


def test_exhaustive_counts_match_closed_form():
    s = run_stress("exhaustive", max_n=5)
    assert s.graphs_checked == 1 + 2 + 8 + 64 + 1024
    assert s.total_violations == 0
    assert s.in_class_count == 810  # pinned from the first verified run


def test_exhaustive_param_errors():
    with pytest.raises(ScaleExceededError):
        run_stress("exhaustive", max_n=8)
    with pytest.raises(ParamRangeError):
        run_stress("exhaustive", max_n=0)
    with pytest.raises(ParamRangeError):
        run_stress("nonsense")


def test_random_param_errors():
    with pytest.raises(ParamRangeError):
        run_stress("random", n_lo=5, n_hi=4, samples=10, seed=1)
    with pytest.raises(ParamRangeError):
        run_stress("random", n_lo=1, n_hi=65, samples=10, seed=1)
    with pytest.raises(ParamRangeError):
        run_stress("random", n_lo=1, n_hi=2, samples=-1, seed=1)
    with pytest.raises(ParamRangeError):
        run_stress("random", n_lo=1, n_hi=2, samples=10)


def test_random_zero_samples_is_an_empty_summary():
    s = run_stress("random", n_lo=5, n_hi=6, samples=0, seed=1, workers=0)
    assert s.graphs_checked == 0 and s.in_class_count == 0
    assert s.total_violations == 0


def test_sweep_runs_no_dsatur_and_no_colorer_clique_search(monkeypatch):
    """No DSATUR: the colorer's coloring tops the oracle's bracket, which
    k_color opens only where that coloring uses omega + 1 colors; the colorer
    keeps prefix omega by has_clique, never by a clique_number search; the
    sweep's own omega searches only N(v) of each new vertex v."""
    calls = Counter()
    for name in ("dsatur", "k_color", "clique_number", "has_clique"):
        def counted(*args, _fn=getattr(K, name), _name=name):
            calls[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _fn(*args)

        monkeypatch.setattr(K, name, counted)
    s = run_stress("exhaustive", max_n=5, workers=0)
    assert s.in_class_count == 810
    assert sum(c for (name, _), c in calls.items() if name == "dsatur") == 0
    assert calls["k_color", "clawchroma.coloring"] == 65
    assert calls["clique_number", "clawchroma.colorer"] == 0
    # omega is the parent's or 1 + omega(N(v)), searched only when |N(v)| is
    # at least the parent's omega
    assert calls["clique_number", "clawchroma.stress"] == 446
    assert calls["clique_number", "clawchroma.cliques"] == 0
    # one has_clique per inserted vertex: each graph resumes its parent's
    # state, so only its last vertex is inserted
    assert calls["has_clique", "clawchroma.colorer"] == 810


def test_parallel_merge_is_deterministic(monkeypatch):
    # small chunks, so that levels 4 and 5 are split between the workers
    monkeypatch.setattr(stress, "_MIN_CHUNK", 4)
    chunk_counts = []

    def counted(chunks, *args, _run=stress._run_chunks):
        chunk_counts.append(len(chunks))
        return _run(chunks, *args)

    monkeypatch.setattr(stress, "_run_chunks", counted)
    parallel = run_stress("exhaustive", max_n=5, workers=2)
    assert chunk_counts == [1, 1, 1, 2, 15]
    serial = run_stress("exhaustive", max_n=5, workers=0)
    assert serial.payload() == parallel.payload()

    a = run_stress("random", n_lo=4, n_hi=8, samples=120, seed=9, workers=0)
    b = run_stress("random", n_lo=4, n_hi=8, samples=120, seed=9, workers=2)
    assert a.payload() == b.payload()


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Stand in for ProcessPoolExecutor: record each pool's size, map serially."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


RANDOM_120 = dict(mode="random", n_lo=4, n_hi=8, samples=120, seed=9)


@pytest.mark.parametrize(
    "sweep, workers, cpus, sizes",
    [
        # every level n <= 4 has fewer parents than one chunk holds
        (dict(mode="exhaustive", max_n=4), 2, 8, []),
        (RANDOM_120, 2, 8, [2]),  # two chunks, two workers
        (RANDOM_120, 64, 8, [2]),  # never more workers than chunks
        (RANDOM_120, 64, 1, []),  # one CPU runs serially
        (RANDOM_120, 64, None, []),  # an unknown CPU count counts as one
    ],
)
def test_pool_size_is_capped(monkeypatch, pool_sizes, sweep, workers, cpus, sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    pooled = run_stress(**sweep, workers=workers)
    assert pool_sizes == sizes
    assert pooled.payload() == run_stress(**sweep, workers=0).payload()


def test_extension_sweeps_the_scans_graphs(monkeypatch):
    expected = {
        n: K.scan_in_class(n, 0, 1 << (n * (n - 1) // 2)) for n in range(1, 7)
    }
    swept = {n: [] for n in expected}

    def record(g, state, facts):
        swept[g.n].append(edge_mask_of(g))
        return set(), 0, 0

    monkeypatch.setattr(stress, "check_in_class_graph", record)
    run_stress("exhaustive", max_n=6, workers=0)
    assert {n: sorted(masks) for n, masks in swept.items()} == expected


def test_exhaustive_sweep_does_not_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("the exhaustive sweep scanned edge masks")

    monkeypatch.setattr(K, "scan_in_class", scan)
    golden = json.loads((Path(__file__).parent / "golden/exhaustive6.json").read_text())
    assert run_stress("exhaustive", max_n=6, workers=0).payload() == golden


def _scanned(max_n):
    """The reference sweep: scan every edge mask, check each in-class graph
    from scratch."""
    scanned = StressSummary("exhaustive", max_n=max_n)
    for n in range(1, max_n + 1):
        total = 1 << (n * (n - 1) // 2)
        scanned.graphs_checked += total
        for mask in K.scan_in_class(n, 0, total):
            scanned.record(from_edge_mask(n, mask))
    return scanned


def test_failed_prefix_fails_every_descendant(monkeypatch):
    """With every Kempe swap and exact fallback of the colorer failing, the
    sweep counts the violations that coloring each graph from scratch does,
    descendants of a failed graph included."""
    k_color = K.k_color

    def colorer_k_color_fails(*args):
        if sys._getframe(1).f_globals["__name__"] == "clawchroma.colorer":
            return None
        return k_color(*args)

    monkeypatch.setattr(K, "k_color", colorer_k_color_fails)
    monkeypatch.setattr(colorer, "_try_kempe_swap", lambda *args: False)
    swept = run_stress("exhaustive", max_n=6, workers=0)
    assert swept.payload() == _scanned(6).payload()
    # 10 graphs fail at n = 5, none earlier; at n = 6, 150 of the failures
    # are children of those 10, which fail at the same prefix vertex
    assert swept.violations[CHI_WITHIN_ONE] == 10 + 291 + 150


def test_sweep_carries_omega_and_max_degree(monkeypatch):
    seen = []

    def recording(g, w, delta, chi, _fn=stress.trichotomy):
        seen.append((g, w, delta))
        return _fn(g, w, delta, chi)

    monkeypatch.setattr(stress, "trichotomy", recording)
    run_stress("exhaustive", max_n=6, workers=0)
    assert len(seen) == 13217
    for g, w, delta in seen:
        assert (w, delta) == (omega(g), degree_profile(g)[1])


def test_sweep_carries_failed_neighborhood_shapes(monkeypatch):
    """A four-shape verdict that depends on <N(u)> alone is carried exactly:
    the sweep counts what checking every vertex of every graph does."""

    def fails_at_0_of_degree_3(g, u):
        return not (u == 0 and g.adj[0].bit_count() == 3)

    monkeypatch.setattr(
        stress, "verify_neighborhood_all_cliques", fails_at_0_of_degree_3
    )
    swept = run_stress("exhaustive", max_n=6, workers=0)
    assert swept.payload() == _scanned(6).payload()
    assert swept.violations[NEIGHBORHOOD_SHAPE] > 0


def test_exhaustive_progress_reports_each_level(capsys):
    assert main(["stress", "--exhaustive", "4"]) == 0
    quiet = capsys.readouterr().out
    assert main(["stress", "--exhaustive", "4", "--progress"]) == 0
    out, err = capsys.readouterr()
    assert out == quiet
    levels = [
        re.fullmatch(r"progress: n=(\d+) done, (\d+) in class, \d+\.\d\d s", line)
        for line in err.splitlines()[:4]
    ]
    assert [m and (int(m[1]), int(m[2])) for m in levels] == [
        (1, 1), (2, 2), (3, 8), (4, 60)
    ]


def test_worker_count_from_env(monkeypatch):
    monkeypatch.setenv("CLAWCHROMA_THREADS", "2")
    s = run_stress("exhaustive", max_n=4)
    assert s.payload() == run_stress("exhaustive", max_n=4, workers=0).payload()


def test_check_in_class_graph_clean_on_wheel():
    viol, strict_vertices, fallbacks = check_in_class_graph(wheel(5))
    assert viol == set()
    assert strict_vertices == 0  # wheel violates the strict degree bound
    assert fallbacks == 0


@pytest.mark.parametrize(
    "target, value",
    [
        # improper witness with the right color count
        ("exact_chromatic", (3, Coloring((1, 1, 2, 3, 2)))),
        # proper witness with more colors than chi
        ("exact_chromatic", (3, Coloring((1, 2, 3, 4, 5)))),
        # improper colorer coloring at the bracket's top, returned as witness
        ("color_in_class", (Coloring((1, 1, 2, 3, 2)), RepairTrace.from_steps([]))),
    ],
)
def test_bad_oracle_or_dsatur_coloring_is_a_violation(monkeypatch, target, value):
    g = cycle(5)
    assert check_in_class_graph(g)[0] == set()
    monkeypatch.setattr(stress, target, lambda _g, *_: value)
    assert check_in_class_graph(g)[0] == {CHI_WITHIN_ONE}


def _colorer_raises(g, **_):
    raise ClaimViolationError("colorer_proper", g, "patched")


def _colorer_one_over(g, **_):
    # proper omega + 1 coloring of k4_minus_edge: the missing edge 2-3 is
    # not shared
    steps = [(u, "direct") for u in range(4)]
    return Coloring((1, 2, 3, 4)), RepairTrace.from_steps(steps)


@pytest.mark.parametrize(
    "g, colorer, expected",
    [
        # degree bound holds: a failed run breaks both contracts
        (k4_minus_edge(), _colorer_raises, {CHI_EQUALS_OMEGA, CHI_WITHIN_ONE}),
        # omega + 1 colors meet the relaxed contract only
        (k4_minus_edge(), _colorer_one_over, {CHI_EQUALS_OMEGA}),
        # wheel case: only the relaxed contract applies
        (wheel(5), _colorer_raises, {CHI_WITHIN_ONE}),
    ],
)
def test_colorer_failure_categories(monkeypatch, g, colorer, expected):
    assert check_in_class_graph(g)[0] == set()
    monkeypatch.setattr(stress, "color_in_class", colorer)
    assert check_in_class_graph(g)[0] == expected


def _chi_agrees_with_dsatur_bracket(max_n):
    for n in range(1, max_n + 1):
        for mask in K.scan_in_class(n, 0, 1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            upper = colorer.color_in_class(g)[0]
            assert exact_chromatic(g, upper, omega(g))[0] == exact_chromatic(g)[0]


def test_colorer_bracket_gives_the_dsatur_bracket_chi():
    """The sweep's oracle, bracketed by the colorer's coloring, finds the chi
    that the oracle bracketed by DSATUR does, on every in-class graph."""
    _chi_agrees_with_dsatur_bracket(6)


@pytest.mark.slow
def test_colorer_bracket_gives_the_dsatur_bracket_chi_n7():
    _chi_agrees_with_dsatur_bracket(7)


def test_line_graph_of_petersen_needs_one_oracle_call(monkeypatch):
    """L(Petersen) is in the middle branch with chi = omega + 1 and has no
    join-count certificate; the colorer's 4-coloring tops the bracket, so
    the oracle decides k = 3 alone, and finds no 3-coloring."""
    g = line_graph(petersen())
    w, delta = omega(g), degree_profile(g)[1]
    assert (g.n, w, delta) == (15, 3, 4)
    assert trichotomy(g, w, delta, 4)[0] == MIDDLE_CASE
    assert not _chi_exceeds(g, w)
    oracle_calls = []

    def recorded(adj, n, full, k, clique, _fn=K.k_color):
        raw = _fn(adj, n, full, k, clique)
        if sys._getframe(1).f_globals["__name__"] == "clawchroma.coloring":
            oracle_calls.append((k, raw))
        return raw

    monkeypatch.setattr(K, "k_color", recorded)
    assert check_in_class_graph(g)[0] == set()
    assert oracle_calls == [(3, None)]


def test_fallback_rate_definition():
    s = StressSummary(mode="exhaustive")
    assert s.fallback_rate == 0.0
    s.vertices_colored_strict = 8
    s.exact_fallbacks = 2
    assert s.fallback_rate == 0.25


def test_counterexample_dump(tmp_path):
    g = claw()
    s = StressSummary(mode="exhaustive", max_n=4)
    s.violations["component_shape"] = 1
    s.counterexamples["component_shape"] = (g.n, edge_mask_of(g))
    _dump_counterexamples(s, str(tmp_path))
    col = tmp_path / "counterexample_component_shape.col"
    meta = json.loads(
        (tmp_path / "counterexample_component_shape.json").read_text()
    )
    assert col.exists()
    assert meta["n"] == 4 and meta["category"] == "component_shape"
    assert sorted(tuple(e) for e in meta["edges"]) == sorted(g.edges())
