"""A reference clock: CPU seconds scaled by the speed of a fixed loop.

On a shared host the speed this process gets from its core changes by up to
2x, in spells of seconds to minutes, whenever another tenant's work lands on
the same physical core.  Raw CPU seconds of one fixed piece of work then
spread by ±25% from run to run, far beyond any bound worth gating.

The clock times a fixed reference loop right before and right after each
measured call and scales the call's CPU seconds by
``REFERENCE_S / mean(before, after)``: what the call would have cost at the
speed the loop runs at on an uncontended core.  The loop lives here, not in
the package, so a change to the package cannot change it and a real
speed-up shows in full.  It is a small discrete-event kernel with the
simulator's instruction mix: a heap of generator processes, slotted event
objects and lookups in a table too large for the first-level caches.  A
tight arithmetic loop tracks the spells far worse; this one tracks them to
a few percent.
"""

from __future__ import annotations

import gc
import heapq
import time

#: CPU seconds of one :func:`reference_loop` on an uncontended core of the
#: 2.0 GHz Xeon the benchmark was sized on.  A fixed constant: it only sets
#: the scale of the reported seconds, never their ratios.
REFERENCE_S = 0.0075

_TABLE_SIZE = 1 << 16
_TABLE = {i: (i * 2654435761) & 0xFFFFF for i in range(_TABLE_SIZE)}


class _Event:
    __slots__ = ("time", "value", "callbacks")

    def __init__(self, time: float, value: int):
        self.time = time
        self.value = value
        self.callbacks = []


class _Process:
    __slots__ = ("gen", "resumes")

    def __init__(self, gen):
        self.gen = gen
        self.resumes = 0


def _worker(index: int, board: dict):
    key = index
    now = 0.0
    while True:
        key = _TABLE[key & (_TABLE_SIZE - 1)]
        event = _Event(now, key)
        event.callbacks.append(board)
        board[key & 4095] = event
        now = yield 1.0 + (key % 7) * 0.25


def reference_loop(steps: int = 5000, processes: int = 64) -> int:
    """Run the reference kernel for ``steps`` resumptions; returns a
    checksum, the same on every call."""
    board: dict = {}
    heap: list = []
    seq = 0
    for i in range(processes):
        proc = _Process(_worker(i, board))
        heapq.heappush(heap, (next(proc.gen), seq, proc))
        seq += 1
    for _ in range(steps):
        now, _seq, proc = heapq.heappop(heap)
        proc.resumes += 1
        delay = proc.gen.send(now)
        seq += 1
        heapq.heappush(heap, (now + delay, seq, proc))
    return sum(e.value for e in board.values()) + len(board)


def reference_time() -> float:
    """CPU seconds of one :func:`reference_loop`, after a short untimed run
    that brings its table and code back into the caches the measured call
    just used.  The garbage collector is off meanwhile: the loop's
    allocations would otherwise trigger collections that walk whatever the
    measured call left alive, and time those instead of the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_loop(1000)
        t0 = time.process_time()
        reference_loop()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Times calls in reference-scaled CPU seconds.

    Consecutive calls share the loop timed between them; the first call
    times one before it.
    """

    def __init__(self):
        self._before: float | None = None

    def call(self, fn, *args):
        """``(fn(*args), scaled seconds, raw CPU seconds)``."""
        if self._before is None:
            self._before = reference_time()
        t0 = time.process_time()
        try:
            result = fn(*args)
        except BaseException:
            self._before = None
            raise
        raw = time.process_time() - t0
        after = reference_time()
        scaled = raw * 2 * REFERENCE_S / (self._before + after)
        self._before = after
        return result, scaled, raw
