"""Host-speed calibration: scale measured seconds to a fixed host speed.

On a shared machine the speed of the CPU a process runs on drifts by up to
2x within seconds (frequency scaling, neighbours on the same cores), while
wall and CPU time agree -- the process is not descheduled, it runs slower.
:class:`SpeedSampler` measures that speed *while* the work runs: a thread
pinned to the same CPU as the measuring thread times a fixed ~1 ms slice
of interpreter work (generators, a heap, dict and attribute traffic)
every ``PERIOD_S`` seconds.  A section's host seconds, minus the time the
slices took from it, are multiplied by ``NOMINAL_SLICE_S`` over the mean
slice time seen during the section.  The result reads as seconds on a host
on which one slice takes ``NOMINAL_SLICE_S``.

The slice lives here, outside the program, so no change to the simulator can
move it; the sampler's own cost (a few per cent, in the GIL hand-overs) is
the same for every version of the program.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from heapq import heappop, heappush
from typing import Callable, Tuple

#: Seconds one calibration slice takes at the reference speed (about its
#: typical time on the 2-core x86_64 VM the benchmark was defined on,
#: CPython 3.11).
NOMINAL_SLICE_S = 0.001

#: Seconds between two slices.
PERIOD_S = 0.01

_ROUNDS = 4


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0


def _ticks(count: int):
    for index in range(count):
        yield index


def calibration_slice() -> float:
    """Host seconds for one fixed slice of interpreter work."""
    start = time.perf_counter()
    heap = []
    cells = {}
    for round_index in range(_ROUNDS):
        for index in _ticks(256):
            key = (index * 7919 + round_index) % 1021
            heappush(heap, (key, index))
            cell = cells.get(key & 255)
            if cell is None:
                cell = cells[key & 255] = _Cell(key)
            cell.hits += 1
        while heap:
            heappop(heap)
    return time.perf_counter() - start


def calibrate(host_seconds: float, sampler_seconds: float, mean_slice: float) -> float:
    """Calibrated seconds of a section: its host seconds without the
    sampler's, at the speed the mean slice shows."""
    return (host_seconds - sampler_seconds) * NOMINAL_SLICE_S / mean_slice


class SpeedSampler:
    """Samples the measuring CPU's speed from a background thread.

    Construction pins the calling thread -- and with it the sampler thread
    and any child process -- to one CPU, so the slices run where the work
    runs; :meth:`close` restores the affinity.  :meth:`timed` measures one
    section.
    """

    def __init__(self) -> None:
        self._affinity = None
        if hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})
        self._slices = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._slices.append(calibration_slice())

    def mark(self) -> int:
        """Position in the sample stream."""
        return len(self._slices)

    def since(self, mark: int) -> Tuple[float, float]:
        """Seconds the slices took since ``mark``, and their mean duration.

        The mean, not the median: the host slows down in bursts, and a
        section's elapsed time integrates every burst it overlapped.
        """
        slices = self._slices[mark:]
        taken = sum(slices)
        if len(slices) < 3:  # too short to sample: use everything seen so far
            slices = self._slices or [calibration_slice()]
        return taken, statistics.fmean(slices)

    def timed(self, fn: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``fn()``; return its result, host seconds and calibrated seconds."""
        mark = self.mark()
        begin = time.perf_counter()
        result = fn()
        host = time.perf_counter() - begin
        return result, host, calibrate(host, *self.since(mark))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
