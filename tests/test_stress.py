import concurrent.futures
import json
import os
import sys
from collections import Counter

import pytest

from clawchroma import _kernels as K
from clawchroma import stress
from clawchroma.cli import _dump_counterexamples
from clawchroma.colorer import RepairTrace
from clawchroma.coloring import Coloring
from clawchroma.errors import (
    ClaimViolationError,
    ParamRangeError,
    ScaleExceededError,
)
from clawchroma.graph import edge_mask_of
from clawchroma.stress import (
    CHI_EQUALS_OMEGA,
    CHI_WITHIN_ONE,
    StressSummary,
    check_in_class_graph,
    run_stress,
)
from graphzoo import claw, cycle, k4_minus_edge

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


def test_sweep_runs_dsatur_once_and_no_colorer_clique_search(monkeypatch):
    """One DSATUR per in-class graph; the colorer keeps prefix omega by
    has_clique, never by a clique_number search."""
    calls = Counter()
    for name in ("dsatur", "clique_number"):
        def counted(*args, _fn=getattr(K, name), _name=name):
            calls[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _fn(*args)

        monkeypatch.setattr(K, name, counted)
    s = run_stress("exhaustive", max_n=5, workers=0)
    assert s.in_class_count == 810
    assert sum(c for (name, _), c in calls.items() if name == "dsatur") == 810
    assert calls["clique_number", "clawchroma.colorer"] == 0
    assert calls["clique_number", "clawchroma.cliques"] == 810  # omega


def test_parallel_merge_is_deterministic():
    serial = run_stress("exhaustive", max_n=4, workers=0)
    parallel = run_stress("exhaustive", max_n=4, workers=2)
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
        # every n <= 4 has fewer graphs than one chunk holds
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
        ("dsatur_greedy", Coloring((1, 2, 3, 3, 2))),
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
