"""A reference clock for the host's speed, read while the simulator runs.

A shared host's speed for one single-threaded Python process swings by
up to 2x over seconds to minutes, as other tenants come and go. Raw
wall time then measures the neighbours as much as the simulator. The
:class:`RefClock` interleaves short slices of a fixed pure-Python
workload with the simulation: every ``PERIOD_S`` of wall time a
``SIGALRM`` handler runs ``SLICE_EVENTS`` events of a small
discrete-event loop (heap of tuples, slotted objects, a deque, a dict:
the kind of work the simulator's own hot path does) and times them.

The simulation's wall time minus the slices, divided by the slices'
mean time per reference event, is its cost in *reference events*: a
figure that a slower or faster moment of the host scales out of,
because both sides are timed within the same tens of milliseconds.
The reference workload lives in the benchmark, so no change to the
simulator can move it.

The handler runs on the main thread between bytecodes and touches no
simulator state; the garbage collector is paused during a slice, so a
collection of the simulator's objects is never charged to the clock.
"""

from __future__ import annotations

import gc
import heapq
import signal
from collections import deque
from time import perf_counter_ns

#: Wall time between slices, and reference events per slice (3-4 ms
#: on a 2-vCPU Xeon guest, so the slices take 6-8% of a run).
PERIOD_S = 0.05
SLICE_EVENTS = 2_000

_NODES = 64
_QUEUED = 256


class _Node:
    __slots__ = ("backlog", "sent", "received", "peer")

    def __init__(self):
        self.backlog = deque()
        self.sent = 0
        self.received = 0
        self.peer = None

    def deliver(self, now: int, item: int, table: dict) -> int:
        self.received += 1
        backlog = self.backlog
        backlog.append(item)
        if len(backlog) > 4:
            backlog.popleft()
        key = (item & 1023, self.received & 15)
        table[key] = table.get(key, 0) + 1
        self.sent += 1
        return now + 1 + (item * 2654435761 + self.sent) % 997


class ReferenceLoop:
    """A fixed discrete-event loop whose state persists between slices,
    so every slice does the same kind and amount of work."""

    def __init__(self):
        nodes = [_Node() for _ in range(_NODES)]
        for index, node in enumerate(nodes):
            node.peer = nodes[(index * 7 + 3) % _NODES]
        self.heap = [(index * 37 % 1000, index, nodes[index % _NODES], index)
                     for index in range(_QUEUED)]
        heapq.heapify(self.heap)
        self.seq = _QUEUED
        self.table: dict = {}

    def step(self, events: int) -> None:
        heap = self.heap
        table = self.table
        seq = self.seq
        pop = heapq.heappop
        push = heapq.heappush
        for _ in range(events):
            now, _, node, item = pop(heap)
            seq += 1
            push(heap, (node.deliver(now, item, table), seq, node.peer, item))
        self.seq = seq
        if len(table) > 4096:
            table.clear()


class RefClock:
    """Runs reference slices on a wall-clock timer between
    :meth:`start` and :meth:`stop` and sums their time."""

    def __init__(self):
        self.loop = ReferenceLoop()
        self.slices = 0
        self.ns = 0
        self._previous = None

    def start(self) -> None:
        self.loop.step(SLICE_EVENTS)  # warm the loop's code and objects
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        began = perf_counter_ns()
        self.loop.step(SLICE_EVENTS)
        self.ns += perf_counter_ns() - began
        self.slices += 1
        if enabled:
            gc.enable()

    def ns_per_event(self) -> float:
        return self.ns / (self.slices * SLICE_EVENTS) if self.slices else float("nan")
