"""A fixed piece of pure-Python work that gauges the host's current speed.

The benchmark's host is a shared VM whose speed changes on its own: the
same session can take 1.5x longer from one minute to the next, because
other tenants contend for the core and its caches. ``run.py`` times this
yardstick right before and right after every session and scales the
session's wall time by ``REFERENCE_S / yardstick time``. The result reads
as the session's time on the reference host at its faster speed.

The yardstick does what the library's hot paths do, with none of the
library's code: it shuffles and walks a pool of small objects, updates
their float attributes through method calls, appends to lists and builds
tuples (as ``Tissue.tick`` does), and formats, hashes, joins, splits and
sorts strings (as the log writers and readers do). On the reference host,
scaling by it cut the run-to-run spread of the median session time from
0.17-0.29 to 0.02-0.04; scaling by a tight integer loop left 0.05-0.10.
Its work is fixed, so a change to ``src/dca`` never changes it.
"""

from __future__ import annotations

import gc
import random
import time

# The yardstick's wall time on the reference host (2-vCPU Intel Xeon VM at
# 2.1 GHz, Python 3.11) at its faster speed
REFERENCE_S = 0.014


class _Cell:
    def __init__(self, ident: int):
        self.a = 0.0
        self.b = 0.0
        self.c = 0.0
        self.ident = ident
        self.store: list[str] = []

    def step(self, d: tuple[float, float, float]) -> bool:
        self.a += d[0]
        self.b += d[1]
        self.c += d[2]
        return self.c > 5.0


def _objects() -> int:
    rng = random.Random(1)
    cells = [_Cell(i) for i in range(100)]
    records = []
    for t in range(150):
        order = list(range(100))
        rng.shuffle(order)
        d = (0.1, 0.2, rng.random() * 0.3)
        for idx in order:
            cell = cells[idx]
            if rng.random() < 0.5:
                cell.store.append(str(idx))
            if cell.step(d):
                records.append((t, cell.ident, tuple(cell.store), cell.a))
                cells[idx] = _Cell(idx)
    return len(records)


def _strings() -> int:
    counts: dict[str, int] = {}
    for i in range(8000):
        key = f"k{i % 700}\t{i}"
        counts[key] = counts.get(key, 0) + 1
    text = "\n".join(counts)
    return len(sorted(line.split("\t") for line in text.split("\n")))


def measure() -> float:
    """Wall seconds of one pass of the yardstick.

    The cyclic garbage collector is off during the pass: a collection
    walks every live object of the process, so with it on the pass would
    also time the heap that the workload happens to hold.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _objects()
        _strings()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
