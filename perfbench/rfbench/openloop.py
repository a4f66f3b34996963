"""Open-loop sending: each input is due at its own timestamp.

An open-loop generator keeps to its schedule however slow the system
under test is, so a stall shows up as latency of the inputs due during
it. Every latency the benchmark reports is therefore timed from the
moment its triggering report was *due*, not from when the sender got
round to it; how late the sender ran is recorded beside it
(``gen.lateness_ms_p99``) as a check that the schedule was kept.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

__all__ = ["due_offsets", "Schedule"]


def due_offsets(times) -> np.ndarray:
    """Seconds after stream start at which each arrival is due.

    ``times`` are report timestamps in *arrival* order. A report that a
    reordering fault delays arrives among later-stamped ones, so the
    due time is the running maximum of the timestamps: an arrival is
    due when the stream clock reaches the newest timestamp so far.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return times
    clock = np.maximum.accumulate(times)
    return clock - clock[0]


class Schedule:
    """Paces arrivals against a wall clock and records sender lateness.

    Args:
        offsets: due offsets from :func:`due_offsets`.
        clock / sleep: injectable for tests (``time.perf_counter`` and
            ``time.sleep`` by default).
    """

    def __init__(self, offsets, clock=time.perf_counter, sleep=time.sleep) -> None:
        self.offsets = np.asarray(offsets, dtype=float)
        self.clock = clock
        self.sleep = sleep
        self.start: float | None = None
        self.lateness = np.zeros(len(self.offsets))

    def begin(self, lead: float = 0.0) -> None:
        """Start the schedule ``lead`` seconds from now."""
        self.start = self.clock() + lead

    def due(self, index: int) -> float:
        """Absolute due time of arrival ``index``."""
        return self.start + float(self.offsets[index])

    def wait(self, index: int) -> float:
        """Block until arrival ``index`` is due; return its due time."""
        due = self.due(index)
        now = self.clock()
        if now < due:
            self.sleep(due - now)
            now = self.clock()
        self.lateness[index] = now - due
        return due

    async def await_due(self, index: int) -> float:
        """:meth:`wait` for a coroutine sender."""
        due = self.due(index)
        now = self.clock()
        if now < due:
            await asyncio.sleep(due - now)
            now = self.clock()
        self.lateness[index] = now - due
        return due
