"""Planted faults, one row each: a row replaces one binding of the program
and pins the exact counts of one sweep, exhaustive or random. Every sweep
category is raised by some row, so each category is shown to count a real
fault."""

import pytest

from clawchroma import _kernels as K
from clawchroma import colorer, report, stress
from clawchroma.bitops import iter_bits
from clawchroma.recognition import _is_c5, _is_p4
from clawchroma.stress import (
    CATEGORIES,
    CHI_EQUALS_OMEGA,
    CHI_WITHIN_ONE,
    COMPONENT_SHAPE,
    DEGREE_BOUND,
    NEIGHBORHOOD_SHAPE,
    WHEEL_BRANCH,
    run_stress,
)

_has_clique = K.has_clique
_shape_table = K.shape_table


def _shape_table_dropping(case):
    """K.shape_table with one case of its rules dropped: bit s is also set
    wherever case(child, s) holds, child being the grown graph's adjacency
    (vertex k joined to s)."""

    def table(adj, k):
        vbit = 1 << k
        dropped = 0
        for s in range(vbit):
            child = [a | vbit if s >> u & 1 else a for u, a in enumerate(adj)] + [s]
            if case(child, s):
                dropped |= 1 << s
        return _shape_table(adj, k) | dropped

    return table


_try_kempe_swap = colorer._try_kempe_swap


def _kempe_swap_keeping_highest(adj, colors, u, *args):
    """colorer._try_kempe_swap, except that the highest vertex of a swapped
    component of two or more vertices keeps its color. The prefix is the
    vertices below u, and a swap recolors exactly its component's."""
    before = colors[:u]
    if not _try_kempe_swap(adj, colors, u, *args):
        return False
    swapped = [x for x in range(u) if colors[x] != before[x]]
    if len(swapped) > 1:
        colors[swapped[-1]] = before[swapped[-1]]
    return True


EXHAUSTIVE_5 = dict(mode="exhaustive", max_n=5)
EXHAUSTIVE_6 = dict(mode="exhaustive", max_n=6)
RANDOM_2000 = dict(mode="random", n_lo=5, n_hi=22, samples=2000, seed=1)

# (module, name, replacement, sweep, in-class graphs, nonzero violation counts)
ROWS = [
    # a claw table that never finds a claw, at the kernel's one binding, lets
    # claws into the sweep's children: more graphs are taken in class, and
    # the checks that claws break count them
    pytest.param(
        K, "claw_table", lambda adj, k: 0, EXHAUSTIVE_5, 1059,
        {NEIGHBORHOOD_SHAPE: 249, COMPONENT_SHAPE: 229, DEGREE_BOUND: 159,
         WHEEL_BRANCH: 154},
        id="claw_table-finds-no-claw",
    ),
    # has_clique asking for one vertex more than it is given makes the
    # colorer's prefix omega too low and the join-count certificate's query
    # too strict; a certificate whose w is below |U| is a proof of chi > w,
    # so the graphs are counted, with no ZeroDivisionError. The colorer asks
    # has_clique only in insert_vertices: at the n = 1 graph, whose omega it
    # leaves at 0, so that graph fails and its children, and the children of
    # every graph that fails in turn, are inserted by insert_vertices too
    # (738 of the 810 graphs), and at an exact fallback
    pytest.param(
        K, "has_clique", lambda adj, n, sub, k: _has_clique(adj, n, sub, k + 1),
        EXHAUSTIVE_5, 810,
        {DEGREE_BOUND: 736, WHEEL_BRANCH: 416, CHI_WITHIN_ONE: 27,
         CHI_EQUALS_OMEGA: 15},
        id="has_clique-one-too-many",
    ),
    # a clique table that is never set: omega never rises at a child that
    # insert_last resumes, so the colorer's omega is too low
    pytest.param(
        K, "clique_table", lambda adj, k: 0, EXHAUSTIVE_5, 810,
        {DEGREE_BOUND: 404, WHEEL_BRANCH: 374, CHI_WITHIN_ONE: 15,
         CHI_EQUALS_OMEGA: 15},
        id="clique_table-never-set",
    ),
    # the colorer's palette one color too large under the degree bound: the
    # sweep holds the colorer to the branch, not to the colorer's own target
    pytest.param(
        colorer, "target_colors", lambda w, delta: w + 1, EXHAUSTIVE_5, 810,
        {CHI_EQUALS_OMEGA: 10},
        id="target_colors-omega-plus-one",
    ),
    # the palette one color too small outside the degree bound: insertion
    # finds no coloring where chi = omega + 1
    pytest.param(
        colorer, "target_colors", lambda w, delta: w, EXHAUSTIVE_5, 810,
        {CHI_WITHIN_ONE: 12},
        id="target_colors-omega",
    ),
    # the 72 labeled W5s at n = 6 lose their wheel
    pytest.param(
        report, "find_induced_wheel6", lambda g: None, EXHAUSTIVE_6, 13217,
        {WHEEL_BRANCH: 72},
        id="find_induced_wheel6-none",
    ),
    # a Kempe swap that leaves its component's highest vertex unswapped
    # makes improper colorings: the colorer's, and a parent's chi witness
    # extended at v by the same swap
    pytest.param(
        colorer, "_try_kempe_swap", _kempe_swap_keeping_highest, EXHAUSTIVE_5, 810,
        {CHI_EQUALS_OMEGA: 6, CHI_WITHIN_ONE: 36, COMPONENT_SHAPE: 8},
        id="kempe_swap-keeps-highest-vertex",
    ),
    # the per-vertex check now runs only where no parent hands a record:
    # the n = 1 graph fails, so no graph has a record and each is counted
    pytest.param(
        stress, "verify_neighborhood_all_cliques", lambda g, u: False,
        EXHAUSTIVE_5, 810,
        {NEIGHBORHOOD_SHAPE: 810},
        id="verify_neighborhood_all_cliques-false",
    ),
    # the shape table without its P4 and C5 exceptions at v: the 12 labeled
    # gems, a P4 joined to v, fail at v
    pytest.param(
        K, "shape_table",
        _shape_table_dropping(lambda child, s: _is_p4(child, s) or _is_c5(child, s)),
        EXHAUSTIVE_5, 810,
        {NEIGHBORHOOD_SHAPE: 12},
        id="shape_table-no-p4-or-c5-at-v",
    ),
    # the shape table without its P4 case at a u in s with |N_P(u)| = 3
    pytest.param(
        K, "shape_table",
        _shape_table_dropping(
            lambda child, s: any(
                child[u].bit_count() == 4 and _is_p4(child, child[u])
                for u in iter_bits(s)
            )
        ),
        EXHAUSTIVE_5, 810,
        {NEIGHBORHOOD_SHAPE: 48},
        id="shape_table-no-p4-at-u",
    ),
    # the random draw's claw rule finds no claw: claws get into the drawn
    # graphs, and the checks that claws break count them
    pytest.param(
        K, "claw_through", lambda adj, nb: False, RANDOM_2000, 787,
        {DEGREE_BOUND: 194, WHEEL_BRANCH: 142, COMPONENT_SHAPE: 316,
         NEIGHBORHOOD_SHAPE: 335},
        id="claw_through-finds-no-claw",
    ),
]


@pytest.mark.parametrize("module, name, fault, sweep, in_class, counts", ROWS)
def test_planted_fault_is_counted(
    monkeypatch, module, name, fault, sweep, in_class, counts
):
    monkeypatch.setattr(module, name, fault)
    s = run_stress(**sweep, workers=0)
    assert s.in_class_count == in_class
    assert s.violations == {c: counts.get(c, 0) for c in CATEGORIES}


def test_every_category_is_raised_by_some_row():
    raised = {c for row in ROWS for c, count in row.values[-1].items() if count}
    assert raised == set(CATEGORIES)


def test_the_colorer_target_has_one_binding():
    """The sweep bounds the colorer by the branch, so a fault in the
    colorer's own target rule reaches the sweep's count."""
    assert not hasattr(stress, "target_colors")


@pytest.mark.xfail(
    strict=True,
    reason="a false join-count certificate makes chi = omega + 1 where the"
    " branch allows it; no sweep category counts it (ROADMAP item 7)",
)
def test_false_certificate_is_counted(monkeypatch):
    monkeypatch.setattr(report, "_chi_exceeds", lambda g, w: True)
    assert run_stress("exhaustive", max_n=6, workers=0).total_violations > 0
