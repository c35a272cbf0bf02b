"""Host speed, sampled while the benchmark runs.

The machines this benchmark runs on share their cores: the same pure-Python
loop takes from 110 ms to 182 ms within one minute, and 20-second runs of the
same code differ by up to 30%. Both the package and this module's reference
work are pure-Python interpretation, so they slow down together.
``HostSpeed`` runs a fixed piece of reference work every ``INTERVAL``
seconds from a SIGALRM timer (in the benchmark's one thread, between two
bytecodes of whatever runs), records how long it took, and keeps a running
total of the time spent on it so that callers can leave it out of their own
timings.

``scale()`` turns a time measured during a sampled period into the time it
would have taken on a host that does the reference work in ``REFERENCE_S``,
from the median of the samples taken in that period.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

INTERVAL = 0.05
MIN_WINDOW = 9  # samples, about half a second
REFERENCE_S = 0.0005  # about the reference work's time on an idle 2-vCPU host


@dataclass
class _Node:
    kind: str
    kids: list
    value: int


def _tree(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node("leaf", [], value)
    return _Node("pair", [_tree(depth - 1, 2 * value), _tree(depth - 1, 2 * value + 1)], value)


def _walk(node: _Node):
    yield node
    for kid in node.kids:
        yield from _walk(kid)


def reference_work() -> int:
    """The package's kind of work in miniature: build a dataclass tree, walk
    it with a recursive generator and ``match``, and copy a state dict over
    and over as the oracle does."""
    total = 0
    for node in _walk(_tree(7, 1)):
        match node:
            case _Node(kind="leaf", value=v):
                total += v
            case _Node():
                total += 1
    state = {f"v{i}": i for i in range(20)}
    for _ in range(30):
        state = {k: v + 1 for k, v in state.items()}
    return total + state["v0"]


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in reference work so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: int, end: int) -> float:
        """Factor from measured to reference time over the period in which
        samples ``start`` to ``end`` were taken. A short period borrows
        samples on both sides, up to ``MIN_WINDOW``; 1.0 with no samples."""
        if end - start < MIN_WINDOW:
            middle = (start + end) // 2
            start = max(0, middle - MIN_WINDOW // 2)
            end = start + MIN_WINDOW
        window = self.samples[start:end]
        return REFERENCE_S / statistics.median(window) if window else 1.0
