"""``fleet_serve``: sixteen writers, real time, through the sharded service.

The serving operator's path. The merged stream of sixteen writers, with
light testbed faults (drops, duplicates and reorders shorter than the
idle timeout), is sent at its real timestamps into a
``TrackingService`` with ``min(2, cores)`` shards and the corpus
recogniser. Burst batching, pickling over pipes, ``ingest_burst`` /
``step_many`` in the workers, the event merge and the robust-ingest
paths all do work here; the 100k lexicon does none.

The same stream also runs through one in-process ``SessionManager``
(the twin). Untraced, the twin ingests report by report, which tells
which report completed each point; its per-EPC results are the
reference the service must match bit for bit. Traced, the twin takes
the stream in ``burst_size`` bursts, so the layers the shard workers
run can be timed in this process.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import pickle
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro.lexicon.recognizer import RecognizerFactory
from repro.serve import TrackingService, shard_for
from repro.stream import SessionConfig, SessionManager
from repro.stream.manager import PointEmitted, SessionFinalized
from repro.testbed.config import FaultSpec

from .common import (
    Outcome,
    add_percentile,
    overhead_share,
    peak_rss_mb,
    Phases,
    process_hwm_mb,
    settle,
    tail_percentiles,
    word_errors_cm,
)
from .inputs import WordPool, build_system, merged_stream, schedule_writers
from .openloop import Schedule, due_offsets
from .tracing import SpanRecorder

WRITERS = 16
SHARDS = max(1, min(2, os.cpu_count() or 1))
BURST_SIZE = 256
CONFIG = SessionConfig(idle_timeout=0.3, retain_results=64, out_of_order="drop")
FAULTS = FaultSpec(
    drop_rate=0.01, duplicate_rate=0.005, reorder_rate=0.01, reorder_max_shift=0.1
)
READY_TIMEOUT = 120.0
#: The paced sender ships partial bursts this often, as an interactive
#: caller must: the service sends a shard's burst only once
#: ``BURST_SIZE`` reports fill it, which at this load takes ~100 ms.
FLUSH_SECONDS = 0.025
#: Unpaced replays of the stream, each through a fresh service; their
#: median wall time gives the capacity, and each adds a set-up sample.
REPLAYS = 2


class ReadyFactory:
    """Recogniser factory that reports when a shard worker is ready.

    Wraps the factory the service ships to its workers: after the
    recogniser is built, the worker puts its pid on ``queue``. Set-up
    ends when every shard has reported, not when ``start()`` returns.
    """

    def __init__(self, factory, queue) -> None:
        self.factory = factory
        self.queue = queue

    def __call__(self):
        recognizer = self.factory()
        self.queue.put(os.getpid())
        return recognizer


async def start_service(system, factory, shards: int, **service_kwargs):
    """Start a service and wait until every shard built its recogniser.

    Returns ``(service, setup_seconds, worker_pids)``.
    """
    loop = asyncio.get_running_loop()
    # The service forks its workers where it can, and the queue they report
    # on comes from the same context: a spawn or forkserver queue would
    # start a resource-tracker process that can outlive the run.
    methods = multiprocessing.get_all_start_methods()
    queue = multiprocessing.get_context("fork" if "fork" in methods else None).Queue()
    start = perf_counter()
    service = TrackingService(
        system, shards=shards, config=CONFIG,
        recognizer_factory=ReadyFactory(factory, queue), **service_kwargs,
    )
    try:
        await service.start()
        pids = []
        for _ in range(shards):
            pids.append(await loop.run_in_executor(None, queue.get, True, READY_TIMEOUT))
        setup = perf_counter() - start
    except BaseException:
        await service.stop()
        raise
    finally:
        queue.close()
        queue.join_thread()
    return service, setup, pids


def eviction_index(stream, shards: int, idle_timeout: float) -> dict[str, int]:
    """Per EPC, the stream index of the report whose arrival evicts it.

    Mirrors the manager's idle rule on each shard's own sub-stream: a
    tag is evicted by the first arrival that moves the shard's
    report-time frontier more than ``idle_timeout`` past the tag's last
    report. EPCs that no arrival evicts (closed at drain) are absent.
    """
    by_shard: dict[int, list[int]] = defaultdict(list)
    last: dict[str, float] = {}
    for index, report in enumerate(stream):
        by_shard[shard_for(report.epc_hex, shards)].append(index)
        if report.time > last.get(report.epc_hex, float("-inf")):
            last[report.epc_hex] = report.time
    evicted = {}
    for indices in by_shard.values():
        times = np.array([stream[i].time for i in indices])
        cutoff = np.maximum.accumulate(times) - idle_timeout
        epcs = {stream[i].epc_hex for i in indices}
        for epc in epcs:
            position = int(np.searchsorted(cutoff, last[epc], side="right"))
            if position < len(indices):
                evicted[epc] = indices[position]
    return evicted


class _Received:
    """Events of one service run, stamped on arrival."""

    def __init__(self, measure_bytes: bool) -> None:
        self.measure_bytes = measure_bytes
        self.points: dict[str, list[float]] = defaultdict(list)
        self.finals: dict[str, list] = defaultdict(list)
        self.event_bytes = 0

    async def consume(self, service) -> None:
        async for event in service.events():
            now = perf_counter()
            if self.measure_bytes:
                self.event_bytes += len(pickle.dumps(event))
            if isinstance(event, PointEmitted):
                self.points[event.epc_hex].append(now)
            elif isinstance(event, SessionFinalized):
                self.finals[event.epc_hex].append((event.result, event.recognition, now))


async def _serve(system, factory, stream, schedule, measure_bytes, recorder=None):
    """One service run; paced by ``schedule``, or unpaced when it is None."""
    service, setup, pids = await start_service(system, factory, SHARDS, burst_size=BURST_SIZE)
    received = _Received(measure_bytes)
    consumer = asyncio.ensure_future(received.consume(service))
    if recorder is not None:
        recorder.wrap_async(TrackingService, "ingest", "serve.ingest",
                            request=lambda args, kwargs: args[1].epc_hex)
    try:
        if schedule is not None:
            schedule.begin(lead=0.05)
            flushed = schedule.start
            for index, report in enumerate(stream):
                await schedule.await_due(index)
                await service.ingest(report)
                if perf_counter() - flushed >= FLUSH_SECONDS:
                    await service.flush()
                    flushed = perf_counter()
            start = schedule.start
            # No report evicts the last words; the stream's end does,
            # one idle timeout after its last report was due.
            tail_due = schedule.due(len(stream) - 1) + CONFIG.idle_timeout
            await asyncio.sleep(max(0.0, tail_due - perf_counter()))
        else:
            start = perf_counter()
            for report in stream:
                await service.ingest(report)
        await service.flush()
        workers_mb = sum(process_hwm_mb(pid) for pid in pids)
        drained = await service.drain()
        wall = perf_counter() - start
        await consumer
    finally:
        if recorder is not None:
            recorder.restore()
        consumer.cancel()
        await service.stop()
    return received, drained, setup, wall, workers_mb


def _twin_sequential(system, recognizer, stream):
    """Report-by-report twin: results, and which report completed each point."""
    manager = SessionManager(system, config=CONFIG, recognizer=recognizer)
    current = [0]
    point_report: dict[str, list[int]] = defaultdict(list)
    finals: dict[str, tuple] = {}
    manager.on_point = lambda event: point_report[event.epc_hex].append(current[0])
    manager.on_session_finalized = lambda event: finals.__setitem__(
        event.epc_hex, (event.result, event.recognition))
    for index, report in enumerate(stream):
        current[0] = index
        manager.ingest(report)
    manager.finalize_all()
    return finals, point_report, manager.stats()


def _twin_bursts(manager, stream) -> tuple[dict, float]:
    """Burst twin: the stream in ``BURST_SIZE`` bursts through ingest_burst."""
    finals: dict[str, tuple] = {}
    manager.on_session_finalized = lambda event: finals.__setitem__(
        event.epc_hex, (event.result, event.recognition))
    start = perf_counter()
    for lo in range(0, len(stream), BURST_SIZE):
        manager.ingest_burst(stream[lo:lo + BURST_SIZE])
    manager.finalize_all()
    return finals, perf_counter() - start


def _install_twin(recorder: SpanRecorder, manager, system, recognizer) -> None:
    recorder.wrap(manager, "ingest_burst", "stream.ingest_burst")
    recorder.wrap(system.positioner, "candidates", "core.candidates")
    recorder.wrap(system.tracer, "begin", "core.begin")
    recorder.wrap(system.tracer, "step_many", "core.step_many",
                  count=lambda result, args: sum(len(positions) for positions, _ in result))
    recorder.wrap(system.tracer, "finish", "core.finish")
    recorder.wrap(recognizer, "recognize", "handwriting.classify")


def _same_result(a, b) -> bool:
    return (
        np.array_equal(a[0].times, b[0].times)
        and np.array_equal(a[0].trajectory, b[0].trajectory)
        and (a[1].word if a[1] else None) == (b[1].word if b[1] else None)
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    phases = Phases()
    system = build_system()
    factory = RecognizerFactory()

    runs = WordPool().fill(WRITERS, seconds)
    occurrences = schedule_writers(runs, WRITERS, seed, shards=SHARDS)
    stream, injected = merged_stream(occurrences, faults=FAULTS)
    schedule = Schedule(due_offsets([report.time for report in stream]))
    phases.mark("inputs")

    settle()
    recorder = SpanRecorder() if trace else None
    paced, drained, setup, _, workers_mb = asyncio.run(
        _serve(system, factory, stream, schedule, trace, recorder))
    phases.mark("paced")
    setups = [setup]
    replays, replay_walls = [], []
    for _ in range(REPLAYS):
        replay, _, setup, wall, workers = asyncio.run(_serve(system, factory, stream, None, False))
        setups.append(setup)
        replays.append(replay)
        replay_walls.append(wall)
        workers_mb = max(workers_mb, workers)
    phases.mark("replays")

    start = perf_counter()
    recognizer = factory()
    init_s = perf_counter() - start
    if trace:
        twin_manager = SessionManager(system, config=CONFIG, recognizer=recognizer)
        _install_twin(recorder, twin_manager, system, recognizer)
        try:
            twin, twin_busy = _twin_bursts(twin_manager, stream)
        finally:
            recorder.restore()
        twin_stats = twin_manager.stats()
    else:
        twin, point_report, twin_stats = _twin_sequential(system, recognizer, stream)
    phases.mark("twin")

    # -- checks ---------------------------------------------------------
    stats = drained.stats
    words_ok = 0
    correct_words = 0
    identical = 0
    errors = []
    word_latency = []
    evicted_by = eviction_index(stream, SHARDS, CONFIG.idle_timeout)
    for occurrence in occurrences:
        finals = paced.finals.get(occurrence.epc, [])
        if len(finals) != 1:
            continue
        result, recognition, arrived = finals[0]
        if recognition is None or not np.all(np.isfinite(result.trajectory)):
            continue
        words_ok += 1
        correct_words += recognition.word == occurrence.word
        errors.append(word_errors_cm(result, occurrence.run, occurrence.offset))
        references = [twin.get(occurrence.epc)] + [
            replay.finals[occurrence.epc][0] if len(replay.finals.get(occurrence.epc, ())) == 1
            else None
            for replay in replays
        ]
        if all(ref is not None and _same_result((result, recognition), ref)
               for ref in references):
            identical += 1
        if occurrence.epc in evicted_by:
            due = schedule.due(evicted_by[occurrence.epc])
        else:
            due = schedule.due(len(stream) - 1) + CONFIG.idle_timeout
        word_latency.append(arrived - due)
    words = len(occurrences)
    outcome.check("every word finalised once, finite, recognised", words_ok == words,
                  f"{words_ok}/{words}")
    outcome.check("service = in-process twin = unpaced replays, bit for bit", identical == words,
                  f"{identical}/{words}")
    outcome.check("no failed sessions", stats.failed_sessions == 0 and not drained.failures,
                  str(stats.failed_sessions))
    outcome.check("no recognition errors", stats.recognition_errors == 0,
                  str(stats.recognition_errors))
    outcome.check("ingested reports = reports sent", stats.ingested_reports == len(stream),
                  f"{stats.ingested_reports}/{len(stream)}")
    outcome.check(
        "dropped reports and stragglers match the twin",
        (stats.dropped_reports, stats.stragglers)
        == (twin_stats.dropped_reports, twin_stats.stragglers),
        f"{stats.dropped_reports}/{stats.stragglers} vs "
        f"{twin_stats.dropped_reports}/{twin_stats.stragglers}",
    )
    outcome.attempted = words + len(stream)
    outcome.failed = (words - words_ok) + abs(len(stream) - stats.ingested_reports)
    outcome.info.update(
        words=words, distinct_words=len({o.word for o in occurrences}), reports=len(stream),
        shards=SHARDS, stream_seconds=round(float(schedule.offsets[-1]), 3),
        evicted_words=len(evicted_by), faults=injected, phase_seconds=phases.seconds,
    )
    capacity = len(stream) / statistics.median(replay_walls)

    if not trace:
        point_latency = []
        for epc, arrivals in paced.points.items():
            completed_by = point_report.get(epc, [])
            if len(completed_by) != len(arrivals):
                outcome.check(f"points of {epc} match the twin", False,
                              f"{len(arrivals)} vs {len(completed_by)}")
                continue
            point_latency.extend(
                arrived - schedule.due(index) for arrived, index in zip(arrivals, completed_by))
        outcome.info["point_latency_ms_tail"] = tail_percentiles(point_latency, scale=1e3)
        outcome.put("setup_s", statistics.median(setups), "s", len(setups))
        add_percentile(outcome, "point_latency_ms_p50", point_latency, 50, "ms", 1e3)
        add_percentile(outcome, "word_latency_ms_p50", word_latency, 50, "ms", 1e3)
        outcome.put("capacity_reports_per_s", capacity, "reports/s", len(stream))
        outcome.put("word_accuracy", correct_words / words, "share", words)
        if errors:
            pooled = np.concatenate(errors)
            outcome.put("traj_error_cm_p50", float(np.median(pooled)), "cm", len(pooled))
        outcome.put("peak_rss_mb", peak_rss_mb() + workers_mb, "MB")
        return outcome

    # -- per-layer metrics (traced run) ----------------------------------
    ms = 1e-6
    add_percentile(outcome, "gen.lateness_ms_p99", schedule.lateness, 99, "ms", 1e3)
    add_percentile(outcome, "stream.burst_ms_p50",
                   recorder.durations_ns("stream.ingest_burst"), 50, "ms", ms)
    outcome.put("stream.dropped_reports", stats.dropped_reports, "count")
    outcome.put("stream.stragglers", stats.stragglers, "count")
    add_percentile(outcome, "core.warmup_ms_p50", recorder.warmups_ns(), 50, "ms", ms)
    step_many = [span for span in recorder.spans if span.name == "core.step_many"]
    add_percentile(outcome, "core.step_many_ms_p50", [s.duration for s in step_many], 50, "ms", ms)
    add_percentile(outcome, "core.step_many_rows_p50", [s.count for s in step_many], 50, "count")
    add_percentile(outcome, "core.finish_ms_p50", recorder.durations_ns("core.finish"), 50,
                   "ms", ms)
    outcome.put("handwriting.init_s", init_s, "s")
    add_percentile(outcome, "handwriting.classify_ms_p50",
                   recorder.durations_ns("handwriting.classify"), 50, "ms", ms)
    add_percentile(outcome, "serve.ingest_wait_ms_p99", recorder.durations_ns("serve.ingest"),
                   99, "ms", ms)
    shard_of = [shard_for(report.epc_hex, SHARDS) for report in stream]
    bursts = []
    for shard in range(SHARDS):
        sub = [report for report, owner in zip(stream, shard_of) if owner == shard]
        bursts.extend(
            len(pickle.dumps(("burst", 0, sub[lo:lo + BURST_SIZE])))
            for lo in range(0, len(sub), BURST_SIZE)
        )
    add_percentile(outcome, "serve.burst_bytes_p50", bursts, 50, "bytes")
    outcome.put("serve.event_bytes_per_report", paced.event_bytes / len(stream), "bytes")
    per_shard = np.bincount(shard_of, minlength=SHARDS)
    outcome.put("serve.shard_skew", per_shard.max() / per_shard.mean(), "ratio")
    outcome.put("serve.overhead_ratio", (len(stream) / twin_busy) / capacity, "ratio")

    probe, _ = merged_stream(occurrences[:3], faults=FAULTS)

    def probe_once(traced: bool) -> float:
        manager = SessionManager(system, config=CONFIG, recognizer=recognizer)
        mark = len(recorder)
        if traced:
            _install_twin(recorder, manager, system, recognizer)
        try:
            return _twin_bursts(manager, probe)[1]
        finally:
            recorder.restore()
            recorder.truncate(mark)

    outcome.put("trace.overhead_share", overhead_share(probe_once), "share")
    outcome.recorder = recorder
    return outcome
