"""Small helpers for vertex sets stored as integer bitmasks.

Bit i of a mask corresponds to vertex i. Python integers give word-parallel
membership, intersection and popcount at any width, so the same helpers back
both the pure kernels and the high-level modules.
"""

from __future__ import annotations

from collections.abc import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def universal_vertices(adj, sub: int) -> int:
    """The vertices of sub adjacent to every other vertex of sub.

    sub is a clique iff all of it is universal.
    """
    u = m = sub
    while m:
        b = m & -m
        hit = (adj[b.bit_length() - 1] | b) & sub
        if hit != sub:  # b and the vertices it misses are not universal
            u &= hit ^ b
            m &= hit
        m ^= b
    return u


def mask_components(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected components of the subgraph induced by sub.

    Returned as masks, ordered by least contained vertex.
    """
    comps = []
    rest = sub
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        while frontier:
            grow = 0
            m = frontier
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1]
                m ^= b
            grow &= sub & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps
