"""Benchmark inputs: a fixed word pool, and per-seed writer schedules.

Every workload writes words from one fixed pool of ``simulate_word``
runs. Words are drawn from the embedded corpus with frequency-rank
(Zipf) weights, so common words recur as they do in text; each distinct
word gets one user (0–4), LOS or NLOS and one simulation seed. The pool
is the same for every workload seed. With a word pool drawn per seed,
word accuracy over the 25–45 words a run can write in real time would
be a binomial draw whose quartile spread across seeds is several times
the bound any end-to-end metric may have; with a fixed pool, accuracy
and trajectory error are exact, and a change in them is a change in the
program.

The workload seed draws everything about how the words are delivered:
each writer's word order, start offset and pen-up gaps, the fresh EPCs
and the sweep's batch order. Inputs are built before any timed section,
so the program sees only finished report streams.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro.core.pipeline import RFIDrawSystem
from repro.core.positioning import PositionerConfig
from repro.experiments.scenarios import (
    SIDE_IN_WAVELENGTHS,
    WALL_Z_OFFSET,
    ScenarioConfig,
    SimulationRun,
    hash_word,
    simulate_word,
)
from repro.geometry.layouts import rfidraw_layout
from repro.geometry.plane import writing_plane
from repro.handwriting.corpus import CORPUS
from repro.rf.constants import DEFAULT_WAVELENGTH
from repro.rfid.reader import PhaseReport
from repro.serve import shard_for
from repro.testbed.config import FaultSpec
from repro.testbed.faults import FaultPipeline

__all__ = [
    "POOL_SEED",
    "PoolEntry",
    "Occurrence",
    "word_sequence",
    "build_system",
    "WordPool",
    "schedule_writers",
    "merged_stream",
]

#: Seed of the fixed word pool. Fixed once, before any result was seen.
POOL_SEED = 2014

#: Mean pen-up gap between one writer's words, in seconds. Gaps are
#: drawn uniformly from ``GAP_RANGE``; the shortest must exceed the
#: live idle timeout (0.3 s) so that every word is closed by eviction.
GAP_RANGE = (0.4, 0.8)

#: Where simulated pool runs are cached (inside the benchmark's checkout;
#: ignored by git).
CACHE_DIR = Path(__file__).resolve().parents[1] / "out" / "pool"

#: A typical pool word's writing time plus pen-up gap, in seconds; sizes
#: the first batch of simulations.
TYPICAL_WORD_SECONDS = 8.0


@dataclass(frozen=True)
class PoolEntry:
    """One distinct pool word and how it was written."""

    word: str
    user: int
    los: bool
    sim_seed: int


@dataclass(frozen=True)
class Occurrence:
    """One written word in a stream: a pool run placed on a writer."""

    index: int
    word: str
    writer: int
    offset: float
    epc: str
    run: SimulationRun

    @property
    def end(self) -> float:
        return self.offset + _duration(self.run)


def word_sequence(count: int, seed: int = POOL_SEED) -> list[PoolEntry]:
    """The first ``count`` draws of the fixed Zipf word sequence.

    Draws are made one at a time from a single generator, so a longer
    sequence extends a shorter one: the pool for a longer run contains
    the pool for a shorter one.
    """
    words = [word for word in CORPUS if len(word) >= 2]
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()
    draw = np.random.default_rng([seed, 0])
    attributes = np.random.default_rng([seed, 1])
    chosen: dict[str, PoolEntry] = {}
    sequence = []
    for _ in range(count):
        word = words[int(draw.choice(len(words), p=weights))]
        if word not in chosen:
            chosen[word] = PoolEntry(
                word=word,
                user=int(attributes.integers(5)),
                los=bool(attributes.random() < 2.0 / 3.0),
                sim_seed=int(attributes.integers(2**31)),
            )
        sequence.append(chosen[word])
    return sequence


def build_system() -> RFIDrawSystem:
    """The one tracking system every pool word is written to.

    The same deployment, 2 m plane and candidate count that
    ``SimulationRun.system`` builds for a default-config run.
    """
    deployment = rfidraw_layout(
        DEFAULT_WAVELENGTH, SIDE_IN_WAVELENGTHS, origin=(0.0, WALL_Z_OFFSET)
    )
    return RFIDrawSystem(
        deployment,
        writing_plane(ScenarioConfig().distance),
        DEFAULT_WAVELENGTH,
        positioner_config=PositionerConfig(
            candidate_count=ScenarioConfig().candidate_count
        ),
    )


def _simulate(entry: PoolEntry) -> SimulationRun:
    return simulate_word(
        entry.word,
        user=entry.user,
        seed=entry.sim_seed,
        config=ScenarioConfig(los=entry.los),
        run_baseline=False,
    )


def _source_digest() -> str:
    """Hash of the ``repro`` package sources: cached runs are only valid
    for the code that simulated them."""
    package = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class WordPool:
    """Simulates pool words once each and keeps their runs.

    Runs are also pickled under ``cache_dir``, keyed by the pool entry
    and a hash of the ``repro`` sources, so later runs of the benchmark
    in the same checkout load their inputs instead of simulating them.
    """

    def __init__(self, cache_dir: Path = CACHE_DIR) -> None:
        self.runs: dict[str, SimulationRun] = {}
        self.cache_dir = Path(cache_dir)
        self._digest = _source_digest()

    def _path(self, entry: PoolEntry) -> Path:
        key = f"{entry.word}-{entry.user}-{int(entry.los)}-{entry.sim_seed}-{self._digest}"
        return self.cache_dir / f"{key}.pkl"

    def simulate(self, entries) -> None:
        """Load or simulate the entries not held yet.

        Simulation only builds inputs and is never timed. It runs in
        this process (about 0.3 s a word), so a run starts no process
        that could outlive it.
        """
        todo = []
        for entry in {e.word: e for e in entries if e.word not in self.runs}.values():
            path = self._path(entry)
            if path.is_file():
                with open(path, "rb") as handle:
                    self.runs[entry.word] = pickle.load(handle)
            else:
                todo.append(entry)
        runs = [_simulate(entry) for entry in todo]
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        for entry, run in zip(todo, runs):
            self.runs[entry.word] = run
            path = self._path(entry)
            partial = path.with_suffix(f".{os.getpid()}.tmp")
            with open(partial, "wb") as handle:
                pickle.dump(run, handle, protocol=pickle.HIGHEST_PROTOCOL)
            partial.replace(path)

    def fill(self, writers: int, seconds: float) -> list[SimulationRun]:
        """Runs of the sequence prefix that keeps ``writers`` busy.

        Counts each word's duration plus a mean pen-up gap, and stops
        once the total covers ``writers`` times ``seconds``.
        """
        writing_seconds = writers * seconds
        count = math.ceil(writing_seconds / TYPICAL_WORD_SECONDS) + 2
        while True:
            sequence = word_sequence(count)
            self.simulate(sequence)
            runs = []
            total = 0.0
            for entry in sequence:
                run = self.runs[entry.word]
                runs.append(run)
                total += _duration(run) + sum(GAP_RANGE) / 2.0
                if total >= writing_seconds:
                    return runs
            count = math.ceil(1.25 * count)


def _duration(run: SimulationRun) -> float:
    return run.trace.times[-1] + 0.3


def schedule_writers(runs, writers: int, seed: int, shards: int | None = None) -> list[Occurrence]:
    """Place every run on one of ``writers`` concurrent writers.

    Words go longest first to the writer with the least writing so far,
    so that every writer finishes near the same time; then the seed
    shuffles each writer's own words and draws its start offset and
    every pen-up gap. Each occurrence gets a fresh EPC. With ``shards``,
    EPCs are drawn so that writer ``w``'s tags route to shard
    ``w % shards``: the load split is then set by the writers, not by
    how CRC-32 happens to spread two dozen EPCs.
    """
    rng = np.random.default_rng([seed, 7])
    order = sorted(rng.permutation(len(runs)), key=lambda i: -_duration(runs[int(i)]))
    loads = [(0.0, writer) for writer in range(writers)]
    assigned: list[list[SimulationRun]] = [[] for _ in range(writers)]
    for position in order:
        load, writer = heapq.heappop(loads)
        run = runs[int(position)]
        assigned[writer].append(run)
        heapq.heappush(loads, (load + _duration(run), writer))
    salt = int(rng.integers(2**62))
    occurrences = []
    for writer, words in enumerate(assigned):
        rng.shuffle(words)
        offset = float(rng.uniform(0.0, 1.0))
        for run in words:
            index = len(occurrences)
            epc = f"{salt:016X}{index:08X}"
            if shards is not None:
                attempt = 0
                while shard_for(epc, shards) != writer % shards:
                    attempt += 1
                    epc = f"{salt ^ attempt:016X}{index:08X}"
            occurrences.append(Occurrence(
                index=index, word=run.word, writer=writer, offset=offset, epc=epc, run=run
            ))
            offset += _duration(run) + float(rng.uniform(*GAP_RANGE))
    return occurrences


def merged_stream(occurrences, faults: FaultSpec | None = None):
    """Every occurrence's reports, re-stamped and merged in arrival order.

    With ``faults``, each word's reports first pass through the testbed
    fault pipeline, seeded by the word: a pool word is perturbed the
    same way in every stream, so its trajectory and recognition do not
    change with the workload seed. A report the pipeline delays arrives
    when its word's stream clock reaches the newest timestamp before it.

    Returns ``(reports, fault_counters)``.
    """
    keyed = []
    counters: dict[str, int] = {}
    for occurrence in occurrences:
        reports = occurrence.run.rfidraw_log.reports
        if faults is not None:
            pipeline = FaultPipeline.from_spec(faults, seed=hash_word(occurrence.word))
            reports = pipeline.inject(reports)
            for name, value in pipeline.flat_counters().items():
                counters[name] = counters.get(name, 0) + value
        offset, epc = occurrence.offset, occurrence.epc
        arrivals = np.maximum.accumulate([report.time for report in reports]) + offset
        keyed.extend(
            (
                float(arrival),
                occurrence.index,
                position,
                PhaseReport(
                    time=report.time + offset,
                    epc_hex=epc,
                    reader_id=report.reader_id,
                    antenna_id=report.antenna_id,
                    phase=report.phase,
                    rssi_dbm=report.rssi_dbm,
                ),
            )
            for position, (arrival, report) in enumerate(zip(arrivals, reports))
        )
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed], counters
