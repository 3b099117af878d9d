"""Reference speed probe for the end-to-end run.

On a small shared virtual machine the speed of identical work drifts by up
to 1.6x, over seconds and over minutes alike, so raw times of one run cannot
be compared with those of a run made a minute later.  The probe measures how
fast the machine runs a fixed piece of the benchmark's own Python work (a
slice: integer arithmetic, set intersections, dict updates and a recursive
bitmask clique search, about 4 ms) right after each stretch of about 0.2 s
of measured work, in the same process and between the program's operations.
Each measured time is then scaled to the speed at which a slice takes
``NOMINAL_SLICE_S``, by the median of the slices run just before and just
after it: the machine's speed holds for one to a few seconds at a time.
The slice is not program code, so no change to the program moves it.
"""

from __future__ import annotations

import random
import statistics
import time

NOMINAL_SLICE_S = 0.004
# probe time as a share of the measured time it follows
SHARE = 0.1

_rng = random.Random(5)
_SETS = [frozenset(_rng.randrange(200) for _ in range(20)) for _ in range(60)]
_ADJ = [0] * 32
for _u in range(32):
    for _v in range(_u + 1, 32):
        if _rng.random() < 0.5:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _clique(cand: int, size: int, best: list[int]) -> None:
    if size > best[0]:
        best[0] = size
    while cand:
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if size + bin(cand).count("1") + 1 <= best[0]:
            return
        _clique(cand & _ADJ[v], size + 1, best)


def reference_slice() -> int:
    """A fixed piece of work; returns a checksum so that nothing is skipped."""
    total = 0
    for i in range(8000):
        total += i * i % 7
    for a in _SETS:
        for b in _SETS[:30]:
            total += len(a & b)
    counts: dict[int, int] = {}
    for i in range(4000):
        key = i * 7919 % 503
        counts[key] = counts.get(key, 0) + 1
    best = [0]
    _clique((1 << len(_ADJ)) - 1, 0, best)
    return total + len(counts) + best[0]


class SpeedProbe:
    """Times reference slices and scales measured times by the local speed."""

    def __init__(self):
        self.slices: list[float] = []
        self.previous: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def scale(self, busy: list[float]) -> list[float]:
        """Run slices worth SHARE of the busy times, which were just measured,
        and return those times scaled by NOMINAL_SLICE_S over the median of
        the slices run just before and just after them."""
        total = sum(busy)
        batch = []
        for _ in range(max(1, round(total * SHARE / NOMINAL_SLICE_S))):
            start = time.perf_counter()
            reference_slice()
            batch.append(time.perf_counter() - start)
        factor = NOMINAL_SLICE_S / statistics.median(self.previous + batch)
        self.slices += batch
        self.previous = batch
        self.raw_s += total
        self.scaled_s += total * factor
        return [t * factor for t in busy]

    def factor(self) -> float:
        """Scaled over raw time, over everything scaled so far."""
        return self.scaled_s / self.raw_s
