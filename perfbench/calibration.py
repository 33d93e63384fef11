"""Host-speed calibration: rescale host seconds to a reference speed.

Shared hosts drift in speed, in regimes lasting tens of seconds: on a
shared 2-core x86-64 virtual machine a fixed pure-Python loop, timed in
ten-second windows over five minutes, ran between 21.6 and 39.0 ms, an
inter-quartile spread of 40% of the median that longer runs do not
average away.  Raw host seconds from two runs minutes apart therefore
differ by more than any regression worth catching.

So before every cell and after the last one the benchmark times
:func:`kernel`, a fixed interpreter-bound workload written in this file
(it imports nothing from the program and runs with the cyclic collector
off, so no program change can move it), and rescales the cell's host
seconds by ``REFERENCE_KERNEL_S / measured kernel time``.  The result
is host seconds *at reference speed*: a change that makes the program
faster lowers it exactly as it lowers raw host time, while the host's
own drift cancels.  Scaling each cell by the kernel samples on
either side of it, ten separate 30-second runs of the same cells on
that machine gave a median cell time whose inter-quartile spread, as a
share of the median, was 0.24 raw, 0.08 with the cache-resident event
loop alone as the kernel and 0.05 with the two-phase kernel below
(``peerhood_plaza``; ``dtn_ferry`` 0.33, 0.06 and 0.03).  The kernel
tracks the simulator only partly, so some drift remains.  Raw host
seconds and the measured speed are printed alongside.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import statistics
import time

#: Kernel time that defines reference speed (about what one run of
#: :func:`kernel` takes on a shared 2-core x86-64 virtual machine).
REFERENCE_KERNEL_S = 0.060

#: Kernel runs per calibration; their median is used.
REPEATS = 3


class _Node:
    __slots__ = ("name", "x", "y", "seen", "links")

    def __init__(self, name: str, x: float, y: float):
        self.name = name
        self.x = x
        self.y = y
        self.seen: dict[str, int] = {}
        self.links: list[tuple[float, int]] = []


def kernel() -> int:
    """A fixed workload shaped like the simulator's hot paths.

    Two phases: a small event loop over 60 objects that stays in cache,
    and a scan over a freshly built crowd of 3000.  Each phase alone
    tracked one workload's cell times well and another's worse; the
    sum tracked both (figures in the module docstring).  Returns the
    event count so the work cannot be skipped.
    """
    return _event_loop(3000) + _crowd_scan(3000, 1500)


def _event_loop(events: int) -> int:
    """Heap-ordered events, per-event neighbour scans with float
    geometry, dict counters and attribute updates on 60 slotted
    objects."""
    nodes = [_Node(f"n{i}", (i * 37) % 101 * 1.0, (i * 53) % 103 * 1.0)
             for i in range(60)]
    heap: list[tuple[float, int, _Node]] = []
    for sequence, node in enumerate(nodes):
        heapq.heappush(heap, (sequence * 0.1, sequence, node))
    sequence = len(nodes)
    done = 0
    while heap and done < events:
        when, _seq, node = heapq.heappop(heap)
        done += 1
        near = [other.name for other in nodes
                if math.hypot(other.x - node.x, other.y - node.y) < 30.0]
        for name in near[:5]:
            node.seen[name] = node.seen.get(name, 0) + 1
        node.x = (node.x + 3.7) % 101
        heapq.heappush(heap, (when + 1.0 + (done % 7) * 0.1, sequence,
                              node))
        sequence += 1
    return done


def _crowd_scan(count: int, events: int) -> int:
    """A freshly built crowd of ``count`` objects bucketed on a 25 m
    grid; each event scans the nine cells around one object and
    records what it sees."""
    rng = random.Random(7)
    nodes = [_Node(f"n{i}", rng.random() * 500.0, rng.random() * 500.0)
             for i in range(count)]
    grid: dict[tuple[int, int], list[_Node]] = {}
    for node in nodes:
        grid.setdefault((int(node.x // 25), int(node.y // 25)),
                        []).append(node)
    heap: list[tuple[float, int, _Node]] = []
    for sequence, node in enumerate(nodes[:200]):
        heapq.heappush(heap, (rng.random(), sequence, node))
    sequence = 200
    done = 0
    while heap and done < events:
        when, _seq, node = heapq.heappop(heap)
        done += 1
        cx, cy = int(node.x // 25), int(node.y // 25)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for other in grid.get((cx + dx, cy + dy), ()):
                    if math.hypot(other.x - node.x,
                                  other.y - node.y) < 25.0:
                        node.seen[other.name] = (
                            node.seen.get(other.name, 0) + 1)
        node.links.append((when, done))
        heapq.heappush(heap, (when + rng.random(), sequence,
                              nodes[(done * 7919) % count]))
        sequence += 1
    return done


def kernel_seconds() -> float:
    """Median host time of :data:`REPEATS` kernel runs.

    The kernel runs in the program's process, so the cyclic collector
    is emptied first and kept off while it is timed: a collection that
    walked the program's live heap, or program-side tuning of ``gc``,
    would otherwise move the scale applied to every reported time.  The
    collector's previous state is restored afterwards.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
