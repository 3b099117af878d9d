import time
import tracemalloc
from itertools import combinations

import pytest

from clawchroma import generators
from clawchroma.errors import ParamRangeError, ScaleExceededError
from clawchroma.generators import (
    SplitMix64,
    blown_up_odd_cycle,
    line_graph,
    random_claw_free_graph,
    random_graph,
    random_in_class,
    random_in_class_graph,
    wheel,
)
from clawchroma.graph import degree_profile
from clawchroma.recognition import find_claw, is_in_class
from graphzoo import (
    bits_tuple,
    claw,
    complete,
    cycle,
    empty,
    enumerate_labeled,
    seeded_line_graphs,
)

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


def _raises_scale_fast(build, *args):
    # the vertex count is checked before any edge is built
    start = time.perf_counter()
    with pytest.raises(ScaleExceededError, match="outside 0..1024"):
        build(*args)
    assert time.perf_counter() - start < 0.01


def test_wheel_param_range():
    with pytest.raises(ParamRangeError):
        wheel(2)
    assert wheel(1023).n == 1024
    _raises_scale_fast(wheel, 1024)
    _raises_scale_fast(wheel, 300000)


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
    assert blown_up_odd_cycle(511, 1).n == 1023
    _raises_scale_fast(blown_up_odd_cycle, 512, 1)
    _raises_scale_fast(blown_up_odd_cycle, 100000, 3)


def test_line_graph_examples():
    assert line_graph(complete(3)) == complete(3)
    assert line_graph(claw()) == complete(3)
    # the line graph of a cycle is again a cycle (up to labels)
    lg = line_graph(cycle(5))
    assert lg.n == 5 and degree_profile(lg) == ((2, 2, 2, 2, 2), 2)
    assert exact_chromatic(lg)[0] == 3
    _raises_scale_fast(line_graph, complete(46))  # 1,035 edges


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
    g = random_in_class(10, 0.3, seed=1)
    assert g is not None and is_in_class(g)

    # p = 0 draws the edgeless graph, which is in class on the first try
    assert random_in_class(5, 0.0, seed=3) == empty(5)

    a = random_in_class(9, 0.5, seed=42)
    b = random_in_class(9, 0.5, seed=42)
    assert a == b


def test_random_claw_free_graph_matches_random_graph():
    # same graph when the plain draw is claw-free, else None; same stream use
    # odd i draw from the complement-side loop, p in [0.5, 1) and n up to 40
    stream = SplitMix64(29)
    kept = dropped = 0
    for i in range(600):
        n = (0, 1, 2)[i] if i < 3 else stream.next_below(41 if i % 2 else 16)
        p = 0.5 + 0.5 * stream.next_unit() if i % 2 else stream.next_unit()
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


def _assert_same_draw(draw, keep, n, p, seed):
    plain, packed = SplitMix64(seed), SplitMix64(seed)
    g = random_graph(n, p, plain)
    expected = g if keep(g) else None
    assert draw(n, p, packed) == expected, (n, p)
    assert packed.next_u64() == plain.next_u64(), (n, p)
    return expected is not None


def _claw_free(g):
    return find_claw(g) is None


# edgeless, complete, complete but for values >= 2^64 - 2^11, edge only on a
# zero value (threshold 1), dense enough to drop some draws late, and the two
# p on either side of the switch to the complement-side claw loop (threshold
# 2^63 and 2^63 - 2^11)
EDGE_PROBS = (0.0, 1.0, 1 - 2**-53, 2**-64, 0.95, 0.5, 0.5 - 2**-53)


def test_random_claw_free_graph_matches_random_graph_across_blocks():
    # n up to 70 reaches every block boundary below 70, the last of them
    # (55) the first that the cap of 1024 lanes per block sets
    assert generators._block_bounds()[:6] == (1, 8, 16, 32, 55, 71)
    kept = 0
    for p in EDGE_PROBS:
        for n in range(71):
            kept += _assert_same_draw(random_claw_free_graph, _claw_free, n, p, n)
    # the first four keep every draw, the other three keep some and drop some
    assert 4 * 71 < kept < 5 * 71


def test_random_in_class_graph_matches_random_graph_across_blocks():
    # the reference's K5-P3 scan is cubic on near-complete draws, so those
    # are checked on either side of every block boundary below 70 only
    bounds = [b for b in generators._block_bounds() if b <= 70]
    near = sorted({n for b in bounds for n in (b - 1, b, b + 1)} | {70})
    for p in EDGE_PROBS:
        for n in near if p > 0.99 else range(71):
            _assert_same_draw(random_in_class_graph, is_in_class, n, p, n)


@pytest.mark.parametrize("p", [1.0, 0.999])
def test_random_claw_free_graph_matches_random_graph_at_1024(p):
    # the complement-side loop takes 0.15 s here, the N(k) loop 0.8 s
    start = time.perf_counter()
    random_claw_free_graph(1024, p, SplitMix64(17))
    assert time.perf_counter() - start < 0.5
    _assert_same_draw(random_claw_free_graph, _claw_free, 1024, p, 17)


def test_random_in_class_graph_at_1024_complete():
    n = 1024
    stream, plain = SplitMix64(17), SplitMix64(17)
    assert random_in_class_graph(n, 1.0, stream) == complete(n)
    plain.skip(n * (n - 1) // 2)
    assert stream.next_u64() == plain.next_u64()


def _excluded_by_complement(g):
    """The forbidden subgraph of a near-complete g, read from its sparse
    complement H: "claw" for a triangle of H with a vertex outside the three
    closed H-neighborhoods, "k5_minus_p3" for an induced path a-c-b of H
    with an edge of g outside them, None when g is in the class."""
    full = g.full_mask()
    h = [full & ~g.adj[v] & ~(1 << v) for v in range(g.n)]
    for c in range(g.n):
        for a, b in combinations(bits_tuple(h[c]), 2):
            rest = full & ~(h[a] | h[b] | h[c] | 1 << a | 1 << b | 1 << c)
            if h[a] >> b & 1:
                if rest:
                    return "claw"
            elif any(rest & g.adj[v] for v in bits_tuple(rest)):
                return "k5_minus_p3"
    return None


def test_excluded_by_complement_matches_is_in_class():
    stream = SplitMix64(47)
    reasons = set()
    for _ in range(300):
        n = 5 + stream.next_below(20)
        g = random_graph(n, 0.9 + 0.1 * stream.next_unit(), stream)
        reason = _excluded_by_complement(g)
        assert (reason is None) == bool(is_in_class(g))
        reasons.add(reason)
    assert reasons == {None, "claw", "k5_minus_p3"}


@pytest.mark.parametrize("n, seed", [(128, 0), (128, 2), (1024, 0)])
def test_random_in_class_graph_near_complete(n, seed):
    # claw-free draws at p = 0.999, each checked against the complement;
    # (128, 0) and (1024, 0) hold a K5-P3, (128, 2) is in the class
    g = random_claw_free_graph(n, 0.999, SplitMix64(seed))
    assert g is not None
    expected = g if _excluded_by_complement(g) is None else None
    assert random_in_class_graph(n, 0.999, SplitMix64(seed)) == expected
    assert (expected is None) == (seed == 0)


def test_random_claw_free_graph_block_constants_stay_bounded():
    # p = 0 mixes every block of the 1024-vertex draw, as p = 1 does, but
    # skips the claw checks, whose allocations make tracing them take 20 s.
    # A one-value-at-a-time draw peaks at 0.06 MB here; the bounded caches
    # of block constants may add under 3 MB (1.6 MB measured).
    for cache in (
        generators._lane_masks,
        generators._row_offsets,
        generators._block_steps,
    ):
        cache.cache_clear()
    tracemalloc.start()
    try:
        g = random_claw_free_graph(1024, 0.0, SplitMix64(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 0
    assert generators._block_steps.cache_info().misses > 100
    assert peak < 3 * 2**20


def test_random_claw_free_graph_param_range():
    with pytest.raises(ParamRangeError):
        random_claw_free_graph(-1, 0.5, SplitMix64(0))
    with pytest.raises(ParamRangeError):
        random_claw_free_graph(5, -0.1, SplitMix64(0))
    with pytest.raises(ScaleExceededError):
        random_claw_free_graph(1025, 0.5, SplitMix64(0))


def test_random_in_class_matches_plain_draw_loop():
    def plain(n, p, seed):
        stream = SplitMix64(seed)
        for _ in range(generators.RANDOM_IN_CLASS_TRIES):
            g = random_graph(n, p, stream)
            if is_in_class(g):
                return g
        return None

    cases = [
        (5, 0.0, 3),
        (7, 1.0, 4),
        (10, 0.3, 1),
        (9, 0.5, 42),
        (12, 0.85, 7),
        (16, 0.5, 11),  # no in-class draw within the budget
    ]
    for n, p, seed in cases:
        assert random_in_class(n, p, seed) == plain(n, p, seed)


def test_random_in_class_param_range():
    with pytest.raises(ParamRangeError):
        random_in_class(5, 1.5, seed=0)


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
