"""``words_live``: ten writers, real time, one in-process SessionManager.

The virtual-touch-screen user's path. Ten writers write pool words back
to back with a pen-up gap; their merged report stream is sent at its
real timestamps into one ``SessionManager`` whose idle timeout is the
pen-up. Ingest, warm-up, per-instant tracer steps, finalize and 100k
lexicon recognition all run on the sending thread, so a slow
recognition delays the other writers' ink — which is what the traced
``gen.lateness_ms_p99`` and the point-latency tail printed beside the
metrics show.

The traced run also makes one traced pass of the ``figure_sweep`` job
list, so the research path's layers (simulation, Gen2 inventory, channel
synthesis, batched reconstruction, AoA baseline) keep per-layer numbers.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import repro.lexicon.recognizer as lexicon_recognizer
from repro.lexicon.recognizer import LexiconRecognizer
from repro.lexicon.store import default_lexicon
from repro.stream import SessionConfig, SessionManager

from .common import (
    Outcome,
    Phases,
    add_percentile,
    overhead_share,
    peak_rss_mb,
    settle,
    tail_percentiles,
    word_errors_cm,
)
from .inputs import WordPool, build_system, merged_stream, schedule_writers
from .openloop import Schedule, due_offsets
from .sweep import trace_research_path
from .tracing import SpanRecorder

WRITERS = 10
LEXICON_SIZE = 100_000
SETUP_REPEATS = 3
CONFIG = SessionConfig(idle_timeout=0.3, retain_results=64)


def _setup():
    """Cold lexicon build, recogniser and system, as a fresh process pays."""
    default_lexicon.cache_clear()
    start = perf_counter()
    lexicon = default_lexicon(LEXICON_SIZE)
    built = perf_counter()
    recognizer = LexiconRecognizer(lexicon=lexicon)
    system = build_system()
    return perf_counter() - start, built - start, recognizer, system


def _install(recorder: SpanRecorder, manager, system, recognizer) -> None:
    recorder.wrap(manager, "ingest", "stream.ingest",
                  request=lambda args, kwargs: args[0].epc_hex)
    recorder.wrap(manager, "finalize", "stream.finalize",
                  request=lambda args, kwargs: args[0])
    recorder.wrap(system.positioner, "candidates", "core.candidates")
    recorder.wrap(system.tracer, "begin", "core.begin")
    recorder.wrap(system.tracer, "step", "core.step")
    recorder.wrap(system.tracer, "finish", "core.finish")
    recorder.wrap(recognizer, "recognize", "lexicon.recognize")
    recorder.wrap(recognizer.index, "shortlist", "lexicon.shortlist")
    recorder.wrap(lexicon_recognizer, "dtw_distance_many", "lexicon.dtw")


class _Run:
    """One paced pass of a stream through a fresh manager."""

    def __init__(self, system, recognizer) -> None:
        self.manager = SessionManager(system, config=CONFIG, recognizer=recognizer)
        self.due: float | None = None
        self.point_latency: list[float] = []
        self.finals: dict[str, list] = defaultdict(list)
        self.manager.on_point = self._on_point
        self.manager.on_session_finalized = self._on_finalized
        self.busy = 0.0

    def _on_point(self, event) -> None:
        self.point_latency.append(perf_counter() - self.due)

    def _on_finalized(self, event) -> None:
        self.finals[event.epc_hex].append(
            (event.result, event.recognition, perf_counter() - self.due))

    def paced(self, stream, schedule: Schedule) -> float:
        manager = self.manager
        schedule.begin(lead=0.05)
        busy = 0.0
        for index, report in enumerate(stream):
            self.due = schedule.wait(index)
            start = perf_counter()
            manager.ingest(report)
            busy += perf_counter() - start
        # No report evicts the last words; the stream's end does, one
        # idle timeout after its last report was due.
        self.due = schedule.due(len(stream) - 1) + CONFIG.idle_timeout
        schedule.sleep(max(0.0, self.due - perf_counter()))
        start = perf_counter()
        manager.finalize_all()
        end = perf_counter()
        self.busy = busy + (end - start)
        return end - schedule.start

    def unpaced(self, stream) -> float:
        manager = self.manager
        start = perf_counter()
        for report in stream:
            self.due = perf_counter()
            manager.ingest(report)
        self.due = perf_counter()
        manager.finalize_all()
        return perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    phases = Phases()
    setups = [_setup() for _ in range(SETUP_REPEATS)]
    phases.mark("setup")
    _, _, recognizer, system = setups[-1]

    runs = WordPool().fill(WRITERS, seconds)
    occurrences = schedule_writers(runs, WRITERS, seed)
    stream, _ = merged_stream(occurrences)
    schedule = Schedule(due_offsets([report.time for report in stream]))
    phases.mark("inputs")

    live = _Run(system, recognizer)
    recorder = SpanRecorder()
    cached_before = recognizer.cached_templates
    if trace:
        _install(recorder, live.manager, system, recognizer)
    settle()
    try:
        wall = live.paced(stream, schedule)
    finally:
        recorder.restore()
    stats = live.manager.stats()
    phases.mark("paced")

    # -- checks -------------------------------------------------------
    words_ok = 0
    correct_words = 0
    errors = []
    word_latency = []
    for occurrence in occurrences:
        finals = live.finals.get(occurrence.epc, [])
        if len(finals) != 1:
            continue
        result, recognition, latency = finals[0]
        if recognition is None or not np.all(np.isfinite(result.trajectory)):
            continue
        words_ok += 1
        correct_words += recognition.word == occurrence.word
        errors.append(word_errors_cm(result, occurrence.run, occurrence.offset))
        word_latency.append(latency)
    words = len(occurrences)
    outcome.check("every word finalised once, finite, recognised", words_ok == words,
                  f"{words_ok}/{words}")
    outcome.check("no failed sessions", stats.failed_sessions == 0 and not live.manager.failures,
                  str(stats.failed_sessions))
    outcome.check("no recognition errors", stats.recognition_errors == 0,
                  str(stats.recognition_errors))
    outcome.check("ingested reports = reports sent", stats.ingested_reports == len(stream),
                  f"{stats.ingested_reports}/{len(stream)}")
    outcome.attempted = words + len(stream)
    outcome.failed = (words - words_ok) + abs(len(stream) - stats.ingested_reports)
    outcome.info.update(
        words=words, distinct_words=len({o.word for o in occurrences}),
        reports=len(stream), stream_seconds=round(float(schedule.offsets[-1]), 3),
        points=len(live.point_latency),
        # The tail is set by which recognitions collide on the ingest
        # thread, which the writers' schedule decides: shown, not gated.
        point_latency_ms_tail=tail_percentiles(live.point_latency, scale=1e3),
        phase_seconds=phases.seconds,
    )

    if not trace:
        outcome.put("setup_s", statistics.median(s[0] for s in setups), "s", SETUP_REPEATS)
        add_percentile(outcome, "point_latency_ms_p50", live.point_latency, 50, "ms", 1e3)
        add_percentile(outcome, "word_latency_ms_p50", word_latency, 50, "ms", 1e3)
        outcome.put("capacity_reports_per_s", len(stream) / live.busy, "reports/s", len(stream))
        outcome.put("word_accuracy", correct_words / words, "share", words)
        if errors:
            pooled = np.concatenate(errors)
            outcome.put("traj_error_cm_p50", float(np.median(pooled)), "cm", len(pooled))
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome

    # -- per-layer metrics (traced run) ----------------------------------
    self_by_name = recorder.self_ns_by_name()
    ms = 1e-6
    lateness = schedule.lateness
    add_percentile(outcome, "gen.lateness_ms_p99", lateness, 99, "ms", 1e3)
    stream_self = sum(self_by_name["stream.ingest"]) + sum(self_by_name["stream.finalize"])
    outcome.put("stream.self_us_per_report", stream_self * 1e-3 / len(stream), "us", len(stream))
    outcome.put("stream.busy_share", live.busy / wall, "share")
    add_percentile(outcome, "core.warmup_ms_p50", recorder.warmups_ns(), 50, "ms", ms)
    steps = recorder.durations_ns("core.step")
    add_percentile(outcome, "core.step_ms_p50", steps, 50, "ms", ms)
    add_percentile(outcome, "core.step_ms_p99", steps, 99, "ms", ms)
    outcome.put("core.step_calls", len(steps), "count")
    finishes = recorder.durations_ns("core.finish")
    add_percentile(outcome, "core.finish_ms_p50", finishes, 50, "ms", ms)
    outcome.put("lexicon.build_s", statistics.median(s[1] for s in setups), "s", SETUP_REPEATS)
    recognitions = recorder.durations_ns("lexicon.recognize")
    add_percentile(outcome, "lexicon.recognize_ms_p50", recognitions, 50, "ms", ms)
    outcome.put("lexicon.recognize_ms_per_word", sum(recognitions) * ms / len(recognitions), "ms",
                len(recognitions))
    shortlists = recorder.durations_ns("lexicon.shortlist")
    add_percentile(outcome, "lexicon.shortlist_ms_p50", shortlists, 50, "ms", ms)
    dtw = recorder.durations_ns("lexicon.dtw")
    outcome.put("lexicon.dtw_ms_per_word", sum(dtw) * ms / len(recognitions), "ms", len(dtw))
    outcome.put("lexicon.dtw_evals_per_word", stats.dtw_evals / stats.classified, "count",
                stats.classified)
    shortlisted = sum(int(size) * n for size, n in stats.shortlist_hist.items())
    misses = recognizer.cached_templates - cached_before
    outcome.put("lexicon.template_hit_ratio", 1.0 - misses / shortlisted, "share", shortlisted)

    trace_research_path(outcome, recorder)

    probe, _ = merged_stream(occurrences[:2])

    def probe_once(traced: bool) -> float:
        probe_run = _Run(system, recognizer)
        mark = len(recorder)
        if traced:
            _install(recorder, probe_run.manager, system, recognizer)
        try:
            return probe_run.unpaced(probe)
        finally:
            recorder.restore()
            recorder.truncate(mark)

    outcome.put("trace.overhead_share", overhead_share(probe_once), "share")
    outcome.recorder = recorder
    return outcome
