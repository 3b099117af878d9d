import json

import pytest

from clawchroma import stress
from clawchroma.cli import _dump_counterexamples
from clawchroma.coloring import Coloring
from clawchroma.errors import ParamRangeError, ScaleExceededError
from clawchroma.graph import edge_mask_of
from clawchroma.stress import (
    CHI_WITHIN_ONE,
    StressSummary,
    check_in_class_graph,
    run_stress,
)
from graphzoo import claw, cycle

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


def test_parallel_merge_is_deterministic():
    serial = run_stress("exhaustive", max_n=4, workers=0)
    parallel = run_stress("exhaustive", max_n=4, workers=2)
    assert serial.payload() == parallel.payload()

    a = run_stress("random", n_lo=4, n_hi=8, samples=120, seed=9, workers=0)
    b = run_stress("random", n_lo=4, n_hi=8, samples=120, seed=9, workers=2)
    assert a.payload() == b.payload()


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
    monkeypatch.setattr(stress, target, lambda _g: value)
    assert check_in_class_graph(g)[0] == {CHI_WITHIN_ONE}


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
