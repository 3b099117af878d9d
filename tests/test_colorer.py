import pytest

from clawchroma import colorer
from clawchroma.colorer import (
    InsertionState,
    class_color,
    color_in_class,
    finish_coloring,
    insert_vertices,
    omega_color_strict,
)
from clawchroma.coloring import verify_proper
from clawchroma.errors import (
    BoundViolatedError,
    ClaimViolationError,
    NotInClassError,
    ScaleExceededError,
)
from clawchroma.graph import degree_profile, from_edge_mask
from clawchroma.recognition import is_in_class
from graphzoo import (
    claw,
    complete,
    empty,
    enumerate_labeled,
    induced_subgraph,
    k4_minus_edge,
    prism,
)

from clawchroma import blown_up_odd_cycle, omega, wheel


def test_strict_k4_minus_edge():
    g = k4_minus_edge()
    coloring, _ = omega_color_strict(g)
    assert coloring.colors_used == 3
    assert verify_proper(g, coloring) is None


def test_strict_prism():
    coloring, _ = omega_color_strict(prism())
    assert coloring.colors_used == 3


def test_strict_k5():
    coloring, _ = omega_color_strict(complete(5))
    assert coloring.colors_used == 5


def test_strict_rejects_wheel():
    with pytest.raises(BoundViolatedError) as exc:
        omega_color_strict(wheel(5))
    assert (exc.value.delta, exc.value.omega) == (5, 3)


def test_strict_rejects_out_of_class():
    with pytest.raises(NotInClassError):
        omega_color_strict(claw())
    with pytest.raises(NotInClassError):
        class_color(claw())


def test_scale_cap():
    with pytest.raises(ScaleExceededError):
        class_color(empty(65))


def test_class_color_examples():
    for g, expected in [
        (wheel(5), 4),
        (blown_up_odd_cycle(2, 2), 4),
        (k4_minus_edge(), 3),
    ]:
        coloring, _ = class_color(g)
        assert coloring.colors_used == expected
        assert verify_proper(g, coloring) is None


def test_trace_counts_match_log():
    # from_edge_mask(6, 10940) is the first n = 6 graph whose coloring
    # needs the exact fallback
    fallback_case = from_edge_mask(6, 10940)
    for g in (blown_up_odd_cycle(2, 3), fallback_case):
        _, trace = class_color(g)
        assert [u for u, _ in trace.steps] == list(range(g.n))
        mechs = [m for _, m in trace.steps]
        assert trace.direct_colors == mechs.count("direct")
        assert trace.kempe_swaps == mechs.count("kempe_swap")
        assert trace.exact_fallbacks == mechs.count("exact_fallback")
        assert trace.direct_colors + trace.kempe_swaps + trace.exact_fallbacks == g.n
        assert trace.pair_recolor_moves == trace.cascade_moves == 0
        if g is fallback_case:
            assert trace.exact_fallbacks >= 1


def _strict_eligible(g):
    if not is_in_class(g):
        return False
    return g.n > 0 and degree_profile(g)[1] <= 2 * omega(g) - 3


def test_strict_contract_exhaustive_small():
    # n = 6 is where the exact fallback first runs alongside Kempe swaps
    for n in range(1, 7):
        for g in enumerate_labeled(n, _strict_eligible):
            coloring, _ = color_in_class(g)
            assert verify_proper(g, coloring) is None
            assert coloring.colors_used == omega(g)


def test_relaxed_contract_exhaustive_small():
    # This also covers every intermediate state of the colorer. It reads
    # only the edges of the prefix, so after k insertions its colors are, up
    # to renumbering, its output on the induced prefix G[0..k-1]. That prefix
    # is itself a labeled in-class graph coloured here, and color_in_class
    # checks each output for properness before returning. So resuming the
    # state of G[0..n-2] at vertex n-1 must give the same coloring and trace.
    for n in range(1, 7):
        for g in enumerate_labeled(n, lambda h: bool(is_in_class(h))):
            coloring, trace = color_in_class(g)
            assert verify_proper(g, coloring) is None
            assert coloring.colors_used <= omega(g) + 1
            prefix = insert_vertices(induced_subgraph(g, range(n - 1))[0])
            assert finish_coloring(g, insert_vertices(g, prefix)) == (coloring, trace)


@pytest.mark.parametrize(
    "state, category",
    [
        # vertices 0 and 1 are adjacent and share a color
        (InsertionState([1, 1, 2, 3], [], 3, 3), "colorer_proper"),
        # proper, but omega + 1 colors where max degree <= 2*omega - 3
        (InsertionState([1, 2, 3, 4], [], 3, 3), "colorer_bound"),
        # an exact fallback found no coloring
        (InsertionState([1, 0, 0, 0], [], 1, 0, "patched"), "prefix_colorable"),
    ],
)
def test_finish_coloring_contract(state, category):
    """finish_coloring is the one check of the colorer's coloring that
    report and the public colorers rely on."""
    with pytest.raises(ClaimViolationError) as exc:
        finish_coloring(k4_minus_edge(), state)
    assert exc.value.category == category


@pytest.mark.parametrize("color", [class_color, omega_color_strict])
def test_a_fault_in_the_target_rule_is_raised(monkeypatch, color):
    """The colorer's output is held to the paper's bound, not to the target
    rule it colors by: with the palette one color too large, the n = 5
    graph of edge mask 966 (omega = max degree = 3, under the degree bound)
    gets 4 colors, which both public colorers raise as colorer_bound, and
    omega_color_strict raises no BoundViolatedError, since the bound holds."""
    g = from_edge_mask(5, 966)
    assert (omega(g), degree_profile(g)[1]) == (3, 3)
    monkeypatch.setattr(colorer, "target_colors", lambda w, delta: w + 1)
    with pytest.raises(ClaimViolationError) as exc:
        color(g)
    assert exc.value.category == "colorer_bound"


def test_deterministic_output():
    g = blown_up_odd_cycle(3, 2)
    assert class_color(g) == class_color(g)
