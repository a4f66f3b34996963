"""``figure_sweep``: the fig15 research path, closed loop, one process.

A fixed list of fig15-shaped jobs — two words of each length 2–6, users
0–4, LOS and NLOS, 2–3.5 m — runs in batches, as the figure scripts do:
``simulate_words(run_baseline=True, batch_reconstruct=True)``, then per
word the AoA baseline, the corpus ``WordRecognizer`` and the §8.1
trajectory error. It is the only workload where the Gen2 protocol,
channel synthesis and the baseline do timed work.

As in fig15, each batch is one word length. The seed orders the
batches and the words within them. The list runs several times; every
repeat must reproduce the first bit for bit.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

import repro.core.pipeline as core_pipeline
import repro.experiments.scenarios as scenarios
from repro.baseline.tracker import ArrayIntersectionTracker
from repro.core.engine import BatchedTracer
from repro.core.positioning import MultiResolutionPositioner
from repro.experiments.scenarios import ScenarioConfig, WordJob, simulate_words
from repro.handwriting.corpus import words_by_length
from repro.handwriting.recognizer import WordRecognizer
from repro.rf.engine import ChannelBank
from repro.rfid.reader import Reader

from .common import (
    Outcome,
    add_percentile,
    overhead_share,
    peak_rss_mb,
    settle,
    word_errors_cm,
)
from .inputs import POOL_SEED
from .tracing import SpanRecorder

LENGTHS = (2, 3, 4, 5, 6)
SETUP_REPEATS = 3
#: Seconds one repeat of the list takes on a 2-core x86 box; sets how
#: many repeats a run makes, the same number on every machine.
REPEAT_SECONDS = 7.0
_CHANNEL_METHODS = (
    "one_way_response", "round_trip_response", "phase_at", "rssi_dbm",
    "tag_incident_power_dbm", "incident_power_dbm_one", "measure",
)


def job_list() -> list[WordJob]:
    """The fixed jobs: two frequency-weighted corpus words per length."""
    rng = np.random.default_rng([POOL_SEED, 15])
    grouped = words_by_length()
    jobs = []
    for length in LENGTHS:
        pool = grouped[length]
        weights = 1.0 / np.arange(1, len(pool) + 1)
        picks = rng.choice(len(pool), size=2, replace=False, p=weights / weights.sum())
        for word in (pool[int(i)] for i in picks):
            index = len(jobs)
            jobs.append(WordJob(
                word,
                user=index % 5,
                seed=POOL_SEED * 100 + index,
                config=ScenarioConfig(distance=2.0 + 0.5 * (index % 4), los=index % 3 != 2),
            ))
    return jobs


def batches_for(jobs, seed: int) -> list[list[WordJob]]:
    """One batch per word length, as fig15 runs them, in seeded order."""
    rng = np.random.default_rng([seed, 15])
    batches = [[job for job in jobs if len(job.word) == length] for length in LENGTHS]
    for batch in batches:
        rng.shuffle(batch)
    rng.shuffle(batches)
    return batches


def run_batch(batch, recognizer) -> list[dict]:
    """One batch as the figure scripts run it; per-job records."""
    start = perf_counter()
    runs = simulate_words(batch, run_baseline=True, batch_reconstruct=True)
    points_ready = perf_counter() - start
    records = []
    for job, run_ in zip(batch, runs):
        run_.baseline_trajectory  # the AoA baseline fig15 also runs
        result = run_.rfidraw_result
        word = recognizer.classify(result.trajectory)
        errors = word_errors_cm(result, run_, 0.0)
        records.append(dict(
            job=job, result=result, word=word, errors=errors,
            points=len(result.times), reports=len(run_.rfidraw_log),
            points_ready=points_ready, word_ready=perf_counter() - start,
        ))
    return records


def _install(recorder: SpanRecorder, recognizer) -> None:
    recorder.wrap(scenarios, "simulate_word", "experiments.simulate")
    recorder.wrap(Reader, "inventory", "rfid.inventory")
    for name in _CHANNEL_METHODS:
        recorder.wrap(ChannelBank, name, "rf.channel")
    recorder.wrap(core_pipeline, "reconstruct_many", "core.reconstruct_many")
    recorder.wrap(MultiResolutionPositioner, "candidates", "core.candidates")
    recorder.wrap(BatchedTracer, "begin", "core.begin")
    recorder.wrap(BatchedTracer, "step_many", "core.step_many",
                  count=lambda result, args: sum(len(positions) for positions, _ in result))
    recorder.wrap(BatchedTracer, "finish", "core.finish")
    recorder.wrap(ArrayIntersectionTracker, "track", "baseline.track")
    recorder.wrap(recognizer, "classify", "handwriting.classify")


def put_research_layers(outcome: Outcome, recorder: SpanRecorder, words: int) -> None:
    """Per-word time in the layers only the research path calls:
    simulation, the Gen2 inventory (self), channel synthesis (outermost
    ``ChannelBank`` calls), batched reconstruction and the AoA baseline."""
    ms = 1e-6
    spans = recorder.spans
    inventory_self = recorder.self_ns_by_name()["rfid.inventory"]
    channel = sum(
        span.duration for span in spans
        if span.name == "rf.channel"
        and (span.parent is None or spans[span.parent].name != "rf.channel")
    )
    for name, total in (
        ("experiments.simulate_ms_per_word", sum(recorder.durations_ns("experiments.simulate"))),
        ("rfid.inventory_self_ms_per_word", sum(inventory_self)),
        ("rf.channel_ms_per_word", channel),
        ("core.reconstruct_many_ms_per_word",
         sum(recorder.durations_ns("core.reconstruct_many"))),
        ("baseline.track_ms_per_word", sum(recorder.durations_ns("baseline.track"))),
    ):
        outcome.put(name, total * ms / words, "ms", words)


def trace_research_path(outcome: Outcome, recorder: SpanRecorder) -> None:
    """One traced pass of the fixed job list, for another workload's
    traced run: ``figure_sweep`` is not in ``BENCHMARK.json`` (see the
    README), but its layers are still measured."""
    recognizer = WordRecognizer()
    jobs = job_list()
    _install(recorder, recognizer)
    try:
        for batch in batches_for(jobs, seed=0):
            run_batch(batch, recognizer)
    finally:
        recorder.restore()
    put_research_layers(outcome, recorder, len(jobs))


def _same(a: dict, b: dict) -> bool:
    return (
        a["word"] == b["word"]
        and np.array_equal(a["result"].times, b["result"].times)
        and np.array_equal(a["result"].trajectory, b["result"].trajectory)
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        recognizer = WordRecognizer()
        setups.append(perf_counter() - start)

    jobs = job_list()
    batches = batches_for(jobs, seed)
    repeats = max(2, math.ceil(seconds / REPEAT_SECONDS))
    recorder = SpanRecorder()
    if trace:
        _install(recorder, recognizer)
    repeat_records = []
    walls = []
    batch_rates = []
    try:
        for _ in range(repeats):
            settle()
            start = perf_counter()
            records = []
            for batch in batches:
                done = run_batch(batch, recognizer)
                batch_rates.append(sum(r["reports"] for r in done) / done[-1]["word_ready"])
                records.extend(done)
            walls.append(perf_counter() - start)
            repeat_records.append(records)
    finally:
        recorder.restore()

    # -- checks ---------------------------------------------------------
    first = repeat_records[0]
    good = 0
    for records in repeat_records:
        for record, reference in zip(records, first):
            finite = bool(np.all(np.isfinite(record["result"].trajectory)))
            good += finite and isinstance(record["word"], str) and _same(record, reference)
    attempted = len(jobs) * repeats
    outcome.check("every repeat reproduces trajectories and words bit for bit, finite",
                  good == attempted, f"{good}/{attempted}")
    outcome.attempted = attempted
    outcome.failed = attempted - good
    reports = sum(record["reports"] for record in first)
    outcome.info.update(
        jobs=len(jobs), repeats=repeats, reports_per_repeat=reports,
        words_per_s=round(statistics.median(len(jobs) / wall for wall in walls), 4),
        repeat_seconds=[round(wall, 3) for wall in walls],
    )

    if not trace:
        every = [record for records in repeat_records for record in records]
        point_latency = [r["points_ready"] for r in every for _ in range(r["points"])]
        outcome.put("setup_s", statistics.median(setups), "s", SETUP_REPEATS)
        add_percentile(outcome, "point_latency_ms_p50", point_latency, 50, "ms", 1e3)
        add_percentile(outcome, "word_latency_ms_p50", [r["word_ready"] for r in every], 50,
                       "ms", 1e3)
        outcome.put("capacity_reports_per_s", statistics.median(batch_rates), "reports/s",
                    len(batch_rates))
        correct = sum(record["word"] == record["job"].word for record in first)
        outcome.put("word_accuracy", correct / len(first), "share", len(first))
        pooled = np.concatenate([record["errors"] for record in first])
        outcome.put("traj_error_cm_p50", float(np.median(pooled)), "cm", len(pooled))
        outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
        return outcome

    # -- per-layer metrics (traced run) ----------------------------------
    ms = 1e-6
    put_research_layers(outcome, recorder, attempted)
    add_percentile(outcome, "core.warmup_ms_p50", recorder.warmups_ns(), 50, "ms", ms)
    step_many = [span for span in recorder.spans if span.name == "core.step_many"]
    add_percentile(outcome, "core.step_many_ms_p50", [s.duration for s in step_many], 50, "ms", ms)
    add_percentile(outcome, "core.step_many_rows_p50", [s.count for s in step_many], 50, "count")
    add_percentile(outcome, "core.finish_ms_p50", recorder.durations_ns("core.finish"), 50,
                   "ms", ms)
    outcome.put("handwriting.init_s", statistics.median(setups), "s", SETUP_REPEATS)
    add_percentile(outcome, "handwriting.classify_ms_p50",
                   recorder.durations_ns("handwriting.classify"), 50, "ms", ms)

    probe = [job for job in jobs if len(job.word) <= 3][:2]

    def probe_once(traced: bool) -> float:
        mark = len(recorder)
        if traced:
            _install(recorder, recognizer)
        try:
            start = perf_counter()
            run_batch(probe, recognizer)
            return perf_counter() - start
        finally:
            recorder.restore()
            recorder.truncate(mark)

    outcome.put("trace.overhead_share", overhead_share(probe_once), "share")
    outcome.recorder = recorder
    return outcome
