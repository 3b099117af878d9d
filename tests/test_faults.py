"""Planted faults, one row each: a row replaces one binding of the program
and pins the exact counts of one exhaustive sweep. Every sweep category is
raised by some row, so each category is shown to count a real fault."""

import pytest

from clawchroma import _kernels as K
from clawchroma import colorer, report, stress
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

# (module, name, replacement, max_n, in-class graphs, nonzero violation counts)
ROWS = [
    # a claw table that never finds a claw, at the kernel's one binding, lets
    # claws into the sweep's children: more graphs are taken in class, and
    # the checks that claws break count them
    pytest.param(
        K, "claw_table", lambda adj, k: 0, 5, 1059,
        {NEIGHBORHOOD_SHAPE: 249, COMPONENT_SHAPE: 229, DEGREE_BOUND: 159,
         WHEEL_BRANCH: 154},
        id="claw_table-finds-no-claw",
    ),
    # has_clique asking for one vertex more than it is given makes the
    # colorer's prefix omega too low and the join-count certificate's query
    # too strict; a certificate whose w is below |U| is a proof of chi > w,
    # so the graphs are counted, with no ZeroDivisionError
    pytest.param(
        K, "has_clique", lambda adj, n, sub, k: _has_clique(adj, n, sub, k + 1),
        5, 810,
        {DEGREE_BOUND: 736, WHEEL_BRANCH: 416, CHI_WITHIN_ONE: 27,
         CHI_EQUALS_OMEGA: 15},
        id="has_clique-one-too-many",
    ),
    # the colorer's palette one color too large under the degree bound: the
    # sweep holds the colorer to the branch, not to the colorer's own target
    pytest.param(
        colorer, "target_colors", lambda w, delta: w + 1, 5, 810,
        {CHI_EQUALS_OMEGA: 10},
        id="target_colors-omega-plus-one",
    ),
    # the palette one color too small outside the degree bound: insertion
    # finds no coloring where chi = omega + 1
    pytest.param(
        colorer, "target_colors", lambda w, delta: w, 5, 810,
        {CHI_WITHIN_ONE: 12},
        id="target_colors-omega",
    ),
    # the 72 labeled W5s at n = 6 lose their wheel
    pytest.param(
        report, "find_induced_wheel6", lambda g: None, 6, 13217,
        {WHEEL_BRANCH: 72},
        id="find_induced_wheel6-none",
    ),
    pytest.param(
        stress, "verify_neighborhood_all_cliques", lambda g, u: False, 5, 810,
        {NEIGHBORHOOD_SHAPE: 810},
        id="verify_neighborhood_all_cliques-false",
    ),
]


@pytest.mark.parametrize("module, name, fault, max_n, in_class, counts", ROWS)
def test_planted_fault_is_counted(
    monkeypatch, module, name, fault, max_n, in_class, counts
):
    monkeypatch.setattr(module, name, fault)
    s = run_stress("exhaustive", max_n=max_n, workers=0)
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
