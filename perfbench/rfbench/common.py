"""What every workload returns, plus small measurement helpers."""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.analysis.metrics import trajectory_error_rfidraw

from .stats import percentile

__all__ = [
    "Outcome",
    "Check",
    "Phases",
    "peak_rss_mb",
    "process_hwm_mb",
    "word_errors_cm",
    "add_percentile",
    "tail_percentiles",
    "overhead_share",
    "settle",
]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """One workload run.

    Attributes:
        metrics: ``{name: (value, unit, samples)}`` end-to-end metrics
            (untraced run) or per-layer metrics (traced run).
        attempted / failed: operations sent and operations that did not
            complete correctly.
        checks: output checks; the run is correct only if all pass.
        info: extra ``name: value`` lines printed for people.
        recorder: the traced run's :class:`SpanRecorder`, if any.
    """

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)
    recorder: object = None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def put(self, name: str, value: float, unit: str, samples: int | None = None) -> None:
        self.metrics[name] = (float(value), unit, samples)

    @property
    def correct(self) -> bool:
        return all(check.ok for check in self.checks)


class Phases:
    """Wall seconds per benchmark phase, for the ``info`` lines."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = perf_counter()

    def mark(self, name: str) -> None:
        now = perf_counter()
        self.seconds[name] = round(now - self._last, 2)
        self._last = now


def add_percentile(outcome: Outcome, name: str, samples, q: float, unit: str,
                   scale: float = 1.0) -> None:
    """Record percentile ``q`` of ``samples`` or fail the run's checks.

    A workload is sized so every percentile it reports is supported; a
    sample too small for one is a sizing fault, reported as a failed
    check rather than as a number.
    """
    value = percentile(samples, q)
    if value is None:
        outcome.check(f"{name} has {len(samples)} samples", False,
                      f"too few samples for p{q:g}")
        return
    outcome.put(name, value * scale, unit, len(samples))


def tail_percentiles(samples, qs=(90, 99), scale: float = 1.0) -> dict:
    """Percentiles ``qs`` of ``samples`` for the ``info`` lines; a
    percentile the sample cannot support shows as ``None``."""
    values = {f"p{q:g}": percentile(samples, q) for q in qs}
    return {key: None if value is None else value * scale for key, value in values.items()}


def settle() -> None:
    """Collect garbage, then exempt every object alive now from later
    collections. The benchmark holds its whole input stream in memory,
    which a program fed by a reader never does; without this, every
    full collection in a timed section would rescan 10^5 reports."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def word_errors_cm(result, run, offset: float) -> np.ndarray:
    """Per-point trajectory error of one word, paper §8.1 rule, in cm."""
    truth = run.truth_on(np.asarray(result.times) - offset)
    return 100.0 * trajectory_error_rfidraw(result.trajectory, truth)


def overhead_share(run_once, pairs: int = 2) -> float:
    """Tracing cost as a share of untraced time, on the same work.

    ``run_once(traced)`` does one fixed piece of work, with tracing off
    or on, and returns the seconds it took (discarding its spans). It
    runs once to warm caches, then ``pairs`` times off and on
    alternately. Returns ``median(on) / median(off) - 1``.
    """
    run_once(False)
    off, on = [], []
    for _ in range(pairs):
        off.append(run_once(False))
        on.append(run_once(True))
    return statistics.median(on) / statistics.median(off) - 1.0
