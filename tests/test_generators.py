import pytest

from clawchroma.errors import ParamRangeError, ScaleExceededError
from clawchroma.generators import (
    SplitMix64,
    blown_up_odd_cycle,
    enumerate_labeled,
    line_graph,
    random_claw_free_graph,
    random_graph,
    random_in_class,
    random_in_class_graph,
    seeded_line_graphs,
    wheel,
)
from clawchroma.graph import degree_profile
from clawchroma.recognition import find_claw, is_in_class
from graphzoo import claw, complete, cycle, empty

from clawchroma import exact_chromatic, omega


def test_splitmix64_reference_vectors():
    # published outputs of splitmix64 for these seeds
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    s = SplitMix64(1234567)
    assert [s.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_wheel_examples():
    g = wheel(5)
    assert g.n == 6 and g.edge_count == 10
    assert degree_profile(g)[1] == 5 and omega(g) == 3
    assert wheel(3) == complete(4)
    g = wheel(4)
    assert g.n == 5 and g.degree(0) == 4


def test_wheel_param_range():
    with pytest.raises(ParamRangeError):
        wheel(2)


def test_wheel_class_boundary():
    assert is_in_class(wheel(5))
    # one more rim vertex admits three pairwise non-adjacent rim neighbors
    assert find_claw(wheel(6)) is not None


def test_blowup_examples():
    g = blown_up_odd_cycle(2, 2)
    assert g.n == 7
    assert (omega(g), degree_profile(g)[1], exact_chromatic(g)[0]) == (3, 4, 4)

    assert blown_up_odd_cycle(2, 1) == cycle(5)

    g = blown_up_odd_cycle(2, 3)
    assert (omega(g), degree_profile(g)[1], exact_chromatic(g)[0]) == (4, 6, 5)


def test_blowup_vertex_count():
    for n in range(2, 5):
        for m in range(1, 5):
            g = blown_up_odd_cycle(n, m)
            assert g.n == (2 * n + 1) + (m - 1) * n


def test_blowup_family_in_class():
    for n in range(2, 5):
        for m in range(1, 5):
            assert is_in_class(blown_up_odd_cycle(n, m)), (n, m)


def test_blowup_param_range():
    with pytest.raises(ParamRangeError):
        blown_up_odd_cycle(1, 2)
    with pytest.raises(ParamRangeError):
        blown_up_odd_cycle(2, 0)


def test_line_graph_examples():
    assert line_graph(complete(3)) == complete(3)
    assert line_graph(claw()) == complete(3)
    # the line graph of a cycle is again a cycle (up to labels)
    lg = line_graph(cycle(5))
    assert lg.n == 5 and degree_profile(lg) == ((2, 2, 2, 2, 2), 2)
    assert exact_chromatic(lg)[0] == 3


def test_line_graphs_are_claw_free():
    for g in seeded_line_graphs(60, seed=11):
        assert find_claw(g) is None


def test_random_graph_determinism():
    a = random_graph(12, 0.4, SplitMix64(5))
    b = random_graph(12, 0.4, SplitMix64(5))
    assert a == b
    assert random_graph(6, 0.0, SplitMix64(1)).edge_count == 0
    assert random_graph(6, 1.0, SplitMix64(1)) == complete(6)


def test_random_in_class_examples():
    g = random_in_class(10, 0.3, seed=1, max_tries=10000)
    assert g is not None and is_in_class(g)

    # p = 0 draws the edgeless graph, which is in class on the first try
    assert random_in_class(5, 0.0, seed=3) == empty(5)

    a = random_in_class(9, 0.5, seed=42)
    b = random_in_class(9, 0.5, seed=42)
    assert a == b


def test_random_claw_free_graph_matches_random_graph():
    # same graph when the plain draw is claw-free, else None; same stream use
    stream = SplitMix64(29)
    kept = dropped = 0
    for i in range(600):
        n = (0, 1, 2)[i] if i < 3 else stream.next_below(16)
        p = 0.75 + 0.25 * stream.next_unit() if i % 2 else stream.next_unit()
        seed = stream.next_u64()
        plain, early = SplitMix64(seed), SplitMix64(seed)
        g = random_graph(n, p, plain)
        expected = g if find_claw(g) is None else None
        assert random_claw_free_graph(n, p, early) == expected
        assert early.next_u64() == plain.next_u64()
        kept += expected is not None
        dropped += expected is None
    assert kept > 100 and dropped > 100


def test_random_in_class_graph_matches_random_graph():
    # same graph when the plain draw is in the class, else None; same stream use
    stream = SplitMix64(31)
    kept = claw_free_dropped = 0
    for i in range(600):
        n = (0, 1, 2)[i] if i < 3 else stream.next_below(16)
        p = 0.75 + 0.25 * stream.next_unit() if i % 2 else stream.next_unit()
        seed = stream.next_u64()
        plain, early = SplitMix64(seed), SplitMix64(seed)
        g = random_graph(n, p, plain)
        expected = g if is_in_class(g) else None
        assert random_in_class_graph(n, p, early) == expected
        assert early.next_u64() == plain.next_u64()
        kept += expected is not None
        claw_free_dropped += expected is None and find_claw(g) is None
    assert kept > 100 and claw_free_dropped > 50


def test_random_claw_free_graph_param_range():
    with pytest.raises(ParamRangeError):
        random_claw_free_graph(-1, 0.5, SplitMix64(0))
    with pytest.raises(ParamRangeError):
        random_claw_free_graph(5, -0.1, SplitMix64(0))
    with pytest.raises(ScaleExceededError):
        random_claw_free_graph(1025, 0.5, SplitMix64(0))


def test_random_in_class_matches_plain_draw_loop():
    def plain(n, p, seed, max_tries):
        stream = SplitMix64(seed)
        for _ in range(max_tries):
            g = random_graph(n, p, stream)
            if is_in_class(g):
                return g
        return None

    cases = [
        (5, 0.0, 3, 10000),
        (7, 1.0, 4, 10000),
        (10, 0.3, 1, 10000),
        (9, 0.5, 42, 10000),
        (12, 0.85, 7, 10000),
        (16, 0.5, 11, 3),
    ]
    for n, p, seed, max_tries in cases:
        assert random_in_class(n, p, seed, max_tries) == plain(n, p, seed, max_tries)


def test_random_in_class_param_range():
    with pytest.raises(ParamRangeError):
        random_in_class(5, 1.5, seed=0)
    with pytest.raises(ParamRangeError):
        random_in_class(5, 0.5, seed=0, max_tries=0)


def test_enumerate_labeled_counts():
    assert sum(1 for _ in enumerate_labeled(4)) == 64
    assert sum(1 for _ in enumerate_labeled(5)) == 1024


def test_enumerate_labeled_in_class_counts():
    # regression values pinned from the first verified run
    assert sum(1 for _ in enumerate_labeled(4, lambda g: bool(is_in_class(g)))) == 60
    assert sum(1 for _ in enumerate_labeled(5, lambda g: bool(is_in_class(g)))) == 739


def test_enumerate_labeled_scale_cap():
    with pytest.raises(ScaleExceededError):
        next(enumerate_labeled(8))


def test_enumeration_order_is_ascending_masks():
    graphs = list(enumerate_labeled(3))
    assert graphs[0].edge_count == 0
    assert graphs[1].has_edge(0, 1) and graphs[1].edge_count == 1
    assert graphs[-1] == complete(3)
