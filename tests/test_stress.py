import concurrent.futures
import json
import os
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from clawchroma import _kernels as K
from clawchroma import colorer, report, stress
from clawchroma.bitops import iter_bits
from clawchroma.cli import _dump_counterexamples, main
from clawchroma.cliques import omega
from clawchroma.colorer import InsertionState
from clawchroma.coloring import Coloring, check_classes, exact_chromatic, verify_proper
from clawchroma.errors import ParamRangeError, ScaleExceededError
from clawchroma.generators import line_graph
from clawchroma.graph import Graph, build_graph, degree_profile, edge_mask_of, from_edge_mask
from clawchroma.report import MIDDLE_CASE, _chi_exceeds, trichotomy
from clawchroma.stress import (
    CHI_EQUALS_OMEGA,
    CHI_WITHIN_ONE,
    COMPONENT_SHAPE,
    DEGREE_BOUND,
    NEIGHBORHOOD_SHAPE,
    WHEEL_BRANCH,
    StressSummary,
    check_in_class_graph,
    run_stress,
)
from graphzoo import claw, cycle, k4_minus_edge, k_colorable, petersen

from clawchroma import wheel


def test_exhaustive_counts_match_closed_form():
    s = run_stress("exhaustive", max_n=5)
    assert s.graphs_checked == 1 + 2 + 8 + 64 + 1024
    assert s.total_violations == 0
    assert s.in_class_count == 810  # pinned from the first verified run


def test_exhaustive_param_errors():
    with pytest.raises(ScaleExceededError):
        run_stress("exhaustive", max_n=9)
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


def test_random_sweep_memory_does_not_grow_with_samples():
    """Each chunk reads its sample seeds off the master stream as it draws,
    so no list of them is built: 5,000 one-vertex samples peak at a few
    KiB."""
    run_stress("random", n_lo=1, n_hi=1, samples=1, seed=4, workers=0)
    tracemalloc.start()
    try:
        s = run_stress("random", n_lo=1, n_hi=1, samples=5000, seed=4, workers=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.in_class_count == 5000
    assert peak < 64 * 1024


def test_random_zero_samples_is_an_empty_summary():
    s = run_stress("random", n_lo=5, n_hi=6, samples=0, seed=1, workers=0)
    assert s.graphs_checked == 0 and s.in_class_count == 0
    assert s.total_violations == 0


def test_sweep_runs_no_dsatur_and_no_colorer_clique_search(monkeypatch):
    """No DSATUR and no oracle search: every chi is closed by a color count,
    a parent's chi witness extended at v, a join-count certificate or an
    omega-coloring by the colorer's step, so k_color never runs outside
    the colorer; the colorer keeps prefix omega by
    has_clique, never by a clique_number search, and a resumed child reads
    it off its parent's clique table, built once per parent with a record
    off the subset lattice with no clique search; the sweep reads omega off
    the colorer's state, so it searches no clique itself."""
    calls = Counter()
    for name in (
        "dsatur", "k_color", "clique_number", "has_clique", "clique_table", "max_cliques"
    ):
        def counted(*args, _fn=getattr(K, name), _name=name):
            calls[_name, sys._getframe(1).f_globals["__name__"]] += 1
            return _fn(*args)

        monkeypatch.setattr(K, name, counted)
    s = run_stress("exhaustive", max_n=5, workers=0)
    assert s.in_class_count == 810
    assert sum(c for (name, _), c in calls.items() if name == "dsatur") == 0
    assert calls["k_color", "clawchroma.coloring"] == 0
    assert calls["clique_number", "clawchroma.colorer"] == 0
    # omega is the colorer state's, which no failed insertion made stale
    assert calls["clique_number", "clawchroma.stress"] == 0
    assert calls["clique_number", "clawchroma.cliques"] == 0
    # each graph resumes its parent's state, so only its last vertex is
    # inserted; every parent but the empty graph has a record, so its
    # children read omega off its clique table, and only the n = 1 graph
    # asks has_clique
    assert calls["has_clique", "clawchroma.colorer"] == 1
    # the in-class graphs with n <= 4, each a parent with a record
    assert calls["clique_table", "clawchroma.stress"] == 1 + 2 + 8 + 60
    assert sum(c for (name, _), c in calls.items() if name == "max_cliques") == 0


def test_sweep_decides_k5_minus_p3_through_the_new_vertex(monkeypatch):
    """The sweep decides claws and K5-P3s by the truth tables through each
    child's new vertex, one in_class_extensions call per parent, and never
    by a per-mask rule or on a whole child."""
    calls = Counter()
    for name in (
        "in_class_extensions",
        "claw_through",
        "claw_free_has_k5_minus_p3",
        "find_claw",
        "find_k5_minus_p3",
    ):
        def counted(*args, _fn=getattr(K, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(K, name, counted)
    assert run_stress("exhaustive", max_n=6, workers=0).in_class_count == 13217
    # the parents: the empty graph and the 810 in-class graphs with n <= 5
    assert calls == {"in_class_extensions": 811}


def _grown(adj, s):
    """The graph adj plus a vertex joined to s."""
    v = len(adj)
    return Graph(v + 1, (*[a | 1 << v if s >> u & 1 else a for u, a in enumerate(adj)], s))


def _on_resume(monkeypatch, visit):
    """Call visit(g, parent, step) for every child of an exhaustive sweep
    resumed from a parent with a record: g the child, parent its parent's
    colorer state and step resume_last's at its new vertex."""

    def resumed(adj, parent, s, cliques, top, _fn=stress.resume_last):
        step = _fn(adj, parent, s, cliques, top)
        visit(_grown(adj, s), parent, step)
        return step

    monkeypatch.setattr(stress, "resume_last", resumed)


def _on_child(monkeypatch, visit):
    """Call visit(g, parent, step, tables, closed) for every child that
    check_child decides, after it does: the arguments of _on_resume's
    visit, then check_child's tables and its verdict, None when the child
    is built and checked by check_in_class_graph."""
    child = []
    _on_resume(monkeypatch, lambda *args: child.__setitem__(slice(None), args))

    def checked(tables, s, step, _fn=stress.check_child):
        closed = _fn(tables, s, step)
        visit(*child, tables, closed)
        return closed

    monkeypatch.setattr(stress, "check_child", checked)


def test_sweep_checks_each_coloring_once(monkeypatch):
    """A graph checked from scratch (here the n = 1 graph alone) has its
    four shapes checked by verify_neighborhood_all_cliques at every vertex
    and its colorer coloring by one check_classes pass over every vertex.
    Every other graph is closed by check_child: its shapes are read off its
    parent's shape table, one K.shape_table call per parent with a record,
    and its colorer coloring is checked by the N[v] rule from its parent's
    coloring context when its prefix colors are the parent's, else by one
    check_classes pass over every vertex (10 children whose insertion made a
    Kempe swap). A witness of chi that is not the colorer's coloring gets
    one check of its own: the N[v] rule from the parent witness's coloring
    context for a direct extension at v, else one check_classes pass. No
    coloring is checked by verify_proper."""
    checks = Counter()
    for module in (colorer, stress):
        def counted(g, c, _fn=module.verify_proper, _name=module.__name__):
            checks[_name] += 1
            return _fn(g, c)

        monkeypatch.setattr(module, "verify_proper", counted)
    # the coloring checks of the current graph, in order, and the vertices
    # whose shapes it checked
    seen = []
    vertices = set()

    def scratch(g, state, _fn=stress.check_in_class_graph):
        seen.clear()
        vertices.clear()
        out = _fn(g, state)
        assert vertices == set(range(g.n))
        checks["scratch", *seen] += 1
        return out

    def child(tables, s, step, _fn=stress.check_child):
        seen.clear()
        vertices.clear()
        out = _fn(tables, s, step)
        assert not vertices
        checks["closed" if out else "left", *seen] += 1
        return out

    def shape(g, u, _fn=stress.verify_neighborhood_all_cliques):
        vertices.add(u)
        return _fn(g, u)

    def rule(context, s, c, _fn=stress.check_at_new_vertex):
        seen.append("N[v] rule")
        return _fn(context, s, c)

    def classes(adj, colors, check, _fn=stress.check_classes):
        assert check == (1 << len(adj)) - 1
        seen.append("every vertex")
        return _fn(adj, colors, check)

    def table(adj, k, _fn=K.shape_table):
        checks["shape_table"] += 1
        return _fn(adj, k)

    def context(adj, colors, _fn=stress.coloring_context):
        checks["coloring_context"] += 1
        return _fn(adj, colors)

    monkeypatch.setattr(stress, "verify_neighborhood_all_cliques", shape)
    monkeypatch.setattr(stress, "check_in_class_graph", scratch)
    monkeypatch.setattr(stress, "check_child", child)
    monkeypatch.setattr(stress, "check_at_new_vertex", rule)
    monkeypatch.setattr(stress, "check_classes", classes)
    monkeypatch.setattr(stress, "coloring_context", context)
    monkeypatch.setattr(K, "shape_table", table)
    run_stress("exhaustive", max_n=5, workers=0)
    assert checks == {
        # the in-class graphs with n <= 4, each a parent with a record
        "shape_table": 1 + 2 + 8 + 60,
        # and 3 witness contexts, of parents whose witness is not the
        # colorer's coloring and extends directly at some child
        "coloring_context": 1 + 2 + 8 + 60 + 3,
        ("scratch", "every vertex"): 1,
        ("closed", "N[v] rule"): 746,
        ("closed", "every vertex"): 10,
        # the colorer's coloring, then chi's witness
        ("closed", "N[v] rule", "N[v] rule"): 12,
        ("closed", "N[v] rule", "every vertex"): 41,
    }


def _resumed_children(monkeypatch, max_n):
    """Every child of an exhaustive sweep that resume_last resumes (its
    parent has a record): the state insert_last makes from its step equals
    insert_vertices' from vertex 0 in every slot, exact fallbacks included.
    Returns how many children it compared."""
    compared = 0

    def resumed(g, parent, step):
        nonlocal compared
        state = colorer.insert_last(g, parent, step)
        ref = colorer.insert_vertices(g)
        for slot in InsertionState.__slots__:
            assert getattr(state, slot) == getattr(ref, slot), slot
        compared += 1

    _on_resume(monkeypatch, resumed)
    assert run_stress("exhaustive", max_n=max_n, workers=0).total_violations == 0
    return compared


def test_resumed_states_match_insert_vertices(monkeypatch):
    # every graph but the n = 1 graph, whose parent, the empty graph, has
    # no record
    assert _resumed_children(monkeypatch, 6) == 13217 - 1


@pytest.mark.slow
def test_resumed_states_match_insert_vertices_n7(monkeypatch):
    assert _resumed_children(monkeypatch, 7) == 251302 - 1


def _rule_children(monkeypatch, max_n):
    """Every child of an exhaustive sweep that the N[v] rule checks (its
    parent has a record and its colorer colors on P are P's): the rule's
    verdicts from the parent's coloring context equal check_classes' at
    N[v], properness and color count always, branching wherever the
    coloring is proper. Returns how many children it compared."""
    compared = 0

    def checked(g, parent, step):
        nonlocal compared
        state = colorer.insert_last(g, parent, step)
        v, colors = g.n - 1, state.colors
        if state.failure is None and colors[:v] == parent.colors:
            context = stress.coloring_context(g.adj[:v], parent.colors)
            proper, branches, k = stress.check_at_new_vertex(context, g.adj[v], colors[v])
            at_v = check_classes(g.adj, colors, g.adj[v] | 1 << v)
            assert (proper, k) == (at_v[0], at_v[2])
            assert not proper or branches == (at_v[1] is not None)
            compared += 1

    _on_resume(monkeypatch, checked)
    assert run_stress("exhaustive", max_n=max_n, workers=0).total_violations == 0
    return compared


def test_n_v_rule_matches_check_classes(monkeypatch):
    assert _rule_children(monkeypatch, 6) == 12915


@pytest.mark.slow
def test_n_v_rule_matches_check_classes_n7(monkeypatch):
    assert _rule_children(monkeypatch, 7) == 245390


def _children_match_the_full_check(monkeypatch, max_n):
    """Every child that check_child decides, against the full check of the
    child built: check_in_class_graph(g, insert_last(g, P's state, step)),
    from scratch. Where check_child closes the child, that check finds no
    violation, and gives the same chi, vertices colored under the degree
    bound and exact fallbacks; check_child's witness, when it is not the
    colorer's coloring, is proper with chi colors and branches nowhere.
    Where it leaves the child to that check, the child fails a claim.
    Every kept child's state equals the full
    check's, and its record has the same chi. Returns (closed, checked in
    full, kept)."""
    counts = Counter()
    full = {}

    def compare(g, parent, step, tables, closed):
        state = colorer.insert_last(g, parent, step)
        viol, strict, fallbacks, record = check_in_class_graph(g, state)
        full[g.adj] = state, record
        if closed is None:
            assert viol
            counts["checked in full"] += 1
        else:
            chi, witness = closed[:2]
            assert (viol, record[0], strict, fallbacks) == (set(), chi, *closed[2:])
            if witness is not None:
                assert check_classes(g.adj, witness.assignment, g.full_mask()) == (
                    True, None, chi
                )
            counts["closed"] += 1

    _on_child(monkeypatch, compare)
    level = [(Graph(0, ()), None, None)]
    for n in range(1, max_n + 1):
        part, level = stress._extension_chunk((n, level, n < max_n))
        assert part.total_violations == 0
        for g, state, record in level:
            if g.adj in full:
                ref_state, ref_record = full.pop(g.adj)
                for slot in InsertionState.__slots__:
                    assert getattr(state, slot) == getattr(ref_state, slot), slot
                assert record[0] == ref_record[0]
                counts["kept"] += 1
        full.clear()
    return counts["closed"], counts["checked in full"], counts["kept"]


def test_children_match_the_full_check(monkeypatch):
    # every graph but the n = 1 graph, whose parent has no record, is
    # closed, exact-fallback children included; the kept ones are those
    # with n <= 5
    assert _children_match_the_full_check(monkeypatch, 6) == (13216, 0, 809)


@pytest.mark.slow
def test_children_match_the_full_check_n7(monkeypatch):
    assert _children_match_the_full_check(monkeypatch, 7) == (251301, 0, 13216)


def test_n_v_rule_matches_check_classes_at_every_neighborhood_and_color(monkeypatch):
    """For every parent with a record at n <= 5, every neighborhood s of
    the new vertex v (in the class or not) and every color c of v, an old
    one or a new one: the N[v] rule gives the verdicts that check_classes
    gives at N[v] and over every vertex, properness and color count always,
    branching wherever the coloring is proper. Both verdicts occur."""
    parents = []
    level = [(Graph(0, ()), None, None)]
    for n in range(1, 6):
        level = stress._extension_chunk((n, level, True))[1]
        parents += [(g.adj, state.colors) for g, state, record in level if record]
    assert len(parents) == 810
    verdicts = Counter()
    for adj, colors in parents:
        k = len(adj)
        context = stress.coloring_context(adj, colors)
        for s in range(1 << k):
            child = tuple(a | 1 << k if s >> u & 1 else a for u, a in enumerate(adj)) + (s,)
            for c in range(1, len(context[1]) + 2):
                child_colors = colors + (c,)
                proper, branches, count = stress.check_at_new_vertex(context, s, c)
                for check in (s | 1 << k, (1 << k + 1) - 1):
                    at = check_classes(child, child_colors, check)
                    assert (proper, count) == (at[0], at[2])
                    assert not proper or branches == (at[1] is not None)
                verdicts[proper, proper and branches] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, False)}


def test_kept_level_holds_each_fact_once():
    """A kept exhaustive entry (graph, colorer state, record) holds each
    fact once: the state keeps its colors as one tuple and its repairs as
    two vertex masks, and the record (chi, witness) shares that tuple
    whenever the witness is the colorer's coloring: about 490 B per n = 6
    entry."""
    level = [(Graph(0, ()), None, None)]
    for n in range(1, 6):
        level = stress._extension_chunk((n, level, True))[1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = stress._extension_chunk((6, level, True))[1]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 13217 - 810
    assert retained / len(kept) <= 600
    shared = 0
    for _, state, record in kept:
        # an equal witness is the colorer's coloring: any other witness
        # uses fewer colors
        if record is not None and record[1].assignment == state.colors:
            assert record[1].assignment is state.colors
            shared += 1
    # every n = 6 graph passes; the other 1,636 witnesses are a parent's
    # witness extended at v or the oracle's
    assert shared == 10771


def _oracle_calls(monkeypatch, max_n):
    calls = 0

    def oracle(*args, _fn=report.exact_chromatic):
        nonlocal calls
        calls += 1
        return _fn(*args)

    monkeypatch.setattr(report, "exact_chromatic", oracle)
    assert run_stress("exhaustive", max_n=max_n, workers=0).total_violations == 0
    return calls


def test_oracle_calls_per_exhaustive_pass(monkeypatch):
    """How often prove_chi falls through to the exact oracle: never. Where
    neither the colorer's coloring nor the parent's chi and witness close
    the bracket, a join-count certificate or the colorer's step in omega
    colors does."""
    assert _oracle_calls(monkeypatch, 6) == 0


@pytest.mark.slow
def test_oracle_calls_per_exhaustive_pass_n7(monkeypatch):
    assert _oracle_calls(monkeypatch, 7) == 0


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


def test_pooled_random_progress_reports_each_chunk(monkeypatch, pool_sizes, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    run_stress(**RANDOM_120, workers=2, progress=True)
    assert pool_sizes == [2]
    assert capsys.readouterr().err.splitlines() == [
        "progress: chunk 1/2",
        "progress: chunk 2/2",
    ]


def test_extension_sweeps_the_scans_graphs(monkeypatch):
    expected = {
        n: K.scan_in_class(n, 0, 1 << (n * (n - 1) // 2)) for n in range(1, 7)
    }
    swept = {n: [] for n in expected}

    def record(g, *_):
        swept[g.n].append(edge_mask_of(g))
        return set(), 0, 0, None

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
            g = from_edge_mask(n, mask)
            scanned.record(g, colorer.insert_vertices(g))
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


# children at n = 6, each with a claw through its new vertex 5, so that the
# colorer's proper coloring has a two-class component branching there: at 5
# itself (joined to three isolated vertices, all colored 1) and at vertex 0
# of the path 1-0-2 (5, joined to 0 and 3, takes 0's neighbors' color)
CLAW_CHILDREN = {
    (0, 0, 0, 0, 0): (0b100000, 0b100000, 0b100000, 0, 0, 0b111),
    (0b110, 1, 1, 0, 0): (0b100110, 1, 1, 0b100000, 0, 0b1001),
}


def test_through_v_checks_match_full_checks_under_faults(monkeypatch):
    """The checks through the new vertex count what checking each graph in
    full does when the colorer errs. Its direct step gives v the color of
    its one neighbor, which makes graphs fail with children from vertex 4
    on; at vertex 5 it gives v a color outside the palette (v joined to two
    vertices other than 0), or recolors vertex 0 like a neighbor, so the
    prefix changes with no repair. The claw children above, taken in class
    by both sweeps, have colorings branching at v and at a neighbor of v in
    v's pair. Every Kempe swap and exact fallback at vertex 4 fails, so some
    parents' insertion failed."""
    color_step, k_color = colorer.color_step, K.k_color

    def faulty_step(adj, colors, u, nb, prefix, target):
        mech = color_step(adj, colors, u, nb, prefix, target)
        if mech != "direct" or u < 4:
            return mech
        if nb.bit_count() == 1:
            colors[u] = colors[nb.bit_length() - 1]
        elif u == 5 and nb.bit_count() == 2 and not nb & 1:
            colors[u] = target + 1
        elif u == 5 and nb.bit_count() == 3 and adj[0] & prefix:
            colors[0] = colors[(adj[0] & prefix).bit_length() - 1]
        return mech

    def failing_swap(adj, colors, u, *args, _fn=colorer._try_kempe_swap):
        return u != 4 and _fn(adj, colors, u, *args)

    def colorer_k_color_fails(*args):
        if sys._getframe(1).f_globals["__name__"] == "clawchroma.colorer":
            return None
        return k_color(*args)

    def with_claws(adj, n, _fn=K.in_class_extensions):
        extra = CLAW_CHILDREN.get(adj)
        return _fn(adj, n) + ([extra[-1]] if extra and n == 6 else [])

    def scan_with_claws(n, start, stop, _fn=K.scan_in_class):
        extra = [edge_mask_of(Graph(6, a)) for a in CLAW_CHILDREN.values()]
        return _fn(n, start, stop) + (extra if n == 6 else [])

    monkeypatch.setattr(colorer, "color_step", faulty_step)
    monkeypatch.setattr(colorer, "_try_kempe_swap", failing_swap)
    monkeypatch.setattr(K, "k_color", colorer_k_color_fails)
    monkeypatch.setattr(K, "in_class_extensions", with_claws)
    monkeypatch.setattr(K, "scan_in_class", scan_with_claws)
    swept = run_stress("exhaustive", max_n=6, workers=0)
    assert swept.payload() == _scanned(6).payload()
    assert swept.violations[COMPONENT_SHAPE] == 2
    assert swept.violations[CHI_WITHIN_ONE] > 0


def test_faulty_extension_step_is_counted(monkeypatch):
    """A parent's chi witness extended at v by a faulty step, which gives v
    its least neighbor's color, is an improper witness of chi: the sweep
    checks it and counts the graph."""

    def faulty_step(adj, colors, u, nb, prefix, target, _fn=colorer.color_step):
        mech = _fn(adj, colors, u, nb, prefix, target)
        if mech == "direct" and nb:
            colors[u] = colors[(nb & -nb).bit_length() - 1]
        return mech

    monkeypatch.setattr(report, "color_step", faulty_step)
    swept = run_stress("exhaustive", max_n=6, workers=0)
    assert swept.violations[CHI_WITHIN_ONE] > 0


def test_faulty_extension_outside_n_v_is_counted(monkeypatch):
    """A faulty step that extends a parent's chi witness at v and also gives
    a vertex w of P, with no neighbor in N[v], the color of a neighbor of w
    makes a clash that no fact at N[v] reads and keeps the color count. The
    witness's colors on P are no longer the parent witness's, so the sweep
    checks it over every vertex and counts the graph; a pass over N[v]
    alone counts none at n <= 5."""

    def faulty_step(adj, colors, u, nb, prefix, target, _fn=colorer.color_step):
        mech = _fn(adj, colors, u, nb, prefix, target)
        if mech == "direct":
            for w in iter_bits(prefix & ~nb):
                a = adj[w] & prefix
                if a and not a & nb and colors.count(colors[w]) > 1:
                    colors[w] = colors[a.bit_length() - 1]
                    break
        return mech

    monkeypatch.setattr(report, "color_step", faulty_step)
    swept = run_stress("exhaustive", max_n=5, workers=0)
    assert swept.violations[CHI_WITHIN_ONE] > 0


def test_sweep_carries_omega_and_max_degree(monkeypatch):
    """The omega and delta the sweep decides the branch by: the ones
    check_in_class_graph and check_child (in the wheel branch) hand
    trichotomy, and resume_last's on the children that check_child
    closes."""
    seen = {}

    def recording(g, w, delta, chi, _fn=stress.trichotomy):
        seen.setdefault(g, set()).add((w, delta))
        return _fn(g, w, delta, chi)

    def closed(g, parent, step, tables, verdict):
        if verdict is not None:
            seen.setdefault(g, set()).add(step[1:3])

    monkeypatch.setattr(stress, "trichotomy", recording)
    _on_child(monkeypatch, closed)
    run_stress("exhaustive", max_n=6, workers=0)
    assert len(seen) == 13217
    for g, facts in seen.items():
        assert facts == {(omega(g), degree_profile(g)[1])}


def test_sweep_carries_failed_neighborhood_shapes(monkeypatch):
    """A four-shape verdict that depends on <N(u)> alone is carried exactly:
    the sweep counts what checking every vertex of every graph does. The
    verdict is planted at both of its codings: the per-vertex check, and
    the shape table, whose bit s reads vertex 0 of degree 3 once v is
    joined to s."""

    def fails_at_0_of_degree_3(g, u):
        return not (u == 0 and g.adj[0].bit_count() == 3)

    def table_fails_at_0_of_degree_3(adj, k):
        if not k or adj[0].bit_count() != 2:
            return 0
        return sum(1 << s for s in range(1, 1 << k, 2))

    monkeypatch.setattr(
        stress, "verify_neighborhood_all_cliques", fails_at_0_of_degree_3
    )
    monkeypatch.setattr(K, "shape_table", table_fails_at_0_of_degree_3)
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
        re.fullmatch(
            r"progress: n=(\d+) done, (\d+) in class, \d+\.\d\d s"
            r" \(extensions \d+\.\d\d s, tables \d+\.\d\d s, (\d+) built\)",
            line,
        )
        for line in err.splitlines()[:4]
    ]
    # the graphs check_in_class_graph checks in full: the n = 1 graph and
    # those check_child does not close, none up to n = 5
    assert [m and (int(m[1]), int(m[2]), int(m[3])) for m in levels] == [
        (1, 1, 1), (2, 2, 0), (3, 8, 0), (4, 60, 0)
    ]


def test_worker_count_from_env(monkeypatch):
    monkeypatch.setenv("CLAWCHROMA_THREADS", "2")
    s = run_stress("exhaustive", max_n=4)
    assert s.payload() == run_stress("exhaustive", max_n=4, workers=0).payload()


def _checked(g):
    """check_in_class_graph on g from scratch, as the reference scan runs it."""
    return check_in_class_graph(g, colorer.insert_vertices(g))


def test_check_in_class_graph_clean_on_wheel():
    g = wheel(5)
    viol, strict_vertices, fallbacks, record = _checked(g)
    assert viol == set()
    assert strict_vertices == 0  # wheel violates the strict degree bound
    assert fallbacks == 0
    # a graph that passes gets a record (chi, witness): chi and chi's witness
    chi, witness = record
    assert chi == 4 == witness.colors_used


# L(Petersen), on which the colorer uses 4 colors: chi = 4 has no join-count
# certificate and no 3-coloring, so the oracle decides it
LINE_PETERSEN = line_graph(petersen())


@pytest.mark.parametrize(
    "target, value, expected",
    [
        # oracle witness: improper with the right color count; it branches
        # too, at a vertex with a neighbor of its own color
        (
            "exact_chromatic",
            (4, Coloring(tuple(1 + u % 4 for u in range(15)))),
            {CHI_WITHIN_ONE, COMPONENT_SHAPE},
        ),
        # oracle witness: proper with more colors than chi
        ("exact_chromatic", (4, Coloring(tuple(range(1, 16)))), {CHI_WITHIN_ONE}),
        # improper colorer state on C5, which the sweep rejects
        ("insert_vertices", InsertionState((1, 1, 2, 3, 2), 2, 2), {CHI_WITHIN_ONE}),
    ],
    ids=["exact_chromatic-value0", "exact_chromatic-value1", "insert_vertices-value2"],
)
def test_bad_oracle_or_dsatur_coloring_is_a_violation(monkeypatch, target, value, expected):
    if target == "exact_chromatic":
        module, g = report, LINE_PETERSEN
    else:
        module, g = colorer, cycle(5)
    assert _checked(g)[0] == set()
    monkeypatch.setattr(module, target, lambda _g, *_: value)
    assert _checked(g)[0] == expected


def _colorer_raises(g):
    """The state of a colorer run that failed at vertex 0, leaving omega and
    the maximum degree stale."""
    return InsertionState((0,) * g.n, 0, 0, "no coloring of a prefix")


def _colorer_one_over(g):
    """A proper omega + 1 coloring of k4_minus_edge: the missing edge 2-3 is
    not shared."""
    return InsertionState((1, 2, 3, 4), 3, 3)


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
def test_colorer_failure_categories(g, colorer, expected):
    assert _checked(g)[0] == set()
    assert check_in_class_graph(g, colorer(g))[0] == expected


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


def _sweep_certificates(monkeypatch, max_n):
    """The join-count certificates an exhaustive sweep trusts in place of the
    oracle, on V, some N[v] or a component, or on some V - v, each
    confirmed by the oracle: no omega-coloring exists. Returns the count of
    each kind."""
    certified = Counter()

    def confirming(name):
        def confirmed(g, w, _fn=getattr(report, name)):
            holds = _fn(g, w)
            if holds:
                assert k_colorable(g, w) is None
                certified[name] += 1
            return holds

        return confirmed

    for name in ("_chi_exceeds", "_chi_exceeds_without_a_vertex"):
        monkeypatch.setattr(report, name, confirming(name))
    assert run_stress("exhaustive", max_n=max_n, workers=0).total_violations == 0
    return certified["_chi_exceeds"], certified["_chi_exceeds_without_a_vertex"]


def test_sweep_certificates_agree_with_the_oracle(monkeypatch):
    # the 12 labeled C5s, the 72 labeled W5s and, by a component, the 60
    # labeled C5 + K1 whose isolated vertex is not the last (where it is,
    # the parent C5's chi proves chi by heredity)
    assert _sweep_certificates(monkeypatch, 6) == (144, 0)


@pytest.mark.slow
def test_sweep_certificates_agree_with_the_oracle_n7(monkeypatch):
    # fewer than the graphs with chi = omega + 1: where the parent's chi is
    # already omega + 1, heredity proves it and no certificate is searched
    assert _sweep_certificates(monkeypatch, 7) == (16506, 0)


def _sweep_chi_from_parents(monkeypatch, max_n):
    """The chi values an exhaustive sweep takes with no certificate and no
    oracle, other than a color count equal to omega: by heredity (chi of
    G - v above omega bounds chi below), from the parent's witness extended
    at v, or from prove_chi's omega-coloring by the colorer's step; each
    confirmed by the oracle: no (chi - 1)-coloring exists, and the witness
    is proper with chi colors."""
    taken = Counter()
    searched = []

    def certificate(*args, _fn=report._chi_exceeds):
        searched.append("certificate")
        return _fn(*args)

    def oracle(*args, _fn=report.exact_chromatic):
        searched.append("oracle")
        return _fn(*args)

    def confirm(g, chi, witness, how):
        assert k_colorable(g, chi - 1) is None
        assert witness.colors_used == chi and verify_proper(g, witness) is None
        taken[how] += 1

    def proved(g, w, upper, _fn=report.prove_chi):
        searched.append("prove_chi")
        chi, witness = _fn(g, w, upper)
        # a certificate's witness is upper
        if searched[-1] != "oracle" and witness is not upper:
            confirm(g, chi, witness, "omega-coloring")
        return chi, witness

    def child(tables, s, step, _fn=stress.check_child):
        searched.clear()
        closed = _fn(tables, s, step)
        if closed is not None and not searched:
            chi, witness = closed[:2]
            g = _grown(tables.adj, s)
            if witness is not None:
                confirm(g, chi, witness, "extension")
            elif chi > step[1]:
                confirm(g, chi, Coloring(tuple(step[0])), "heredity")
        return closed

    monkeypatch.setattr(report, "_chi_exceeds", certificate)
    monkeypatch.setattr(report, "exact_chromatic", oracle)
    monkeypatch.setattr(stress, "prove_chi", proved)
    monkeypatch.setattr(stress, "check_child", child)
    assert run_stress("exhaustive", max_n=max_n, workers=0).total_violations == 0
    return dict(taken)


def test_sweep_chi_from_parents_agrees_with_the_oracle(monkeypatch):
    assert _sweep_chi_from_parents(monkeypatch, 6) == {
        "heredity": 12, "extension": 1527, "omega-coloring": 162
    }


@pytest.mark.slow
def test_sweep_chi_from_parents_agrees_with_the_oracle_n7(monkeypatch):
    assert _sweep_chi_from_parents(monkeypatch, 7) == {
        "heredity": 1380, "extension": 34381, "omega-coloring": 4121
    }


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
    assert _checked(g)[0] == set()
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
