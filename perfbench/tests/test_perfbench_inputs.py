"""Writer schedules, balanced shard routing and fault-preserving merges."""

from types import SimpleNamespace

import numpy as np

from rfbench.inputs import GAP_RANGE, merged_stream, schedule_writers
from repro.rfid.reader import PhaseReport
from repro.serve import shard_for
from repro.testbed.config import FaultSpec
from repro.testbed.faults import FaultPipeline
from repro.experiments.scenarios import hash_word


def fake_run(word, seconds, rate=200.0):
    times = np.arange(0.0, seconds, 1.0 / rate)
    reports = [
        PhaseReport(time=float(t), epc_hex="0" * 24, reader_id=1, antenna_id=i % 4,
                    phase=float(i % 6), rssi_dbm=-50.0)
        for i, t in enumerate(times)
    ]
    return SimpleNamespace(
        word=word,
        trace=SimpleNamespace(times=np.array([0.0, seconds - 0.3])),
        rfidraw_log=SimpleNamespace(reports=reports),
    )


RUNS = [fake_run(word, 1.0 + 0.25 * i) for i, word in enumerate(["to", "the", "and", "of", "in"])]


def test_writers_never_overlap_and_route_to_their_shard():
    occurrences = schedule_writers(RUNS * 3, writers=4, seed=3, shards=2)
    assert len({o.epc for o in occurrences}) == len(occurrences)
    for occurrence in occurrences:
        assert shard_for(occurrence.epc, 2) == occurrence.writer % 2
    for writer in range(4):
        mine = sorted((o for o in occurrences if o.writer == writer), key=lambda o: o.offset)
        for earlier, later in zip(mine, mine[1:]):
            assert later.offset >= earlier.end + GAP_RANGE[0]
    again = schedule_writers(RUNS * 3, writers=4, seed=3, shards=2)
    assert [(o.epc, o.offset) for o in again] == [(o.epc, o.offset) for o in occurrences]


def test_merge_keeps_each_words_faulted_arrival_order():
    faults = FaultSpec(drop_rate=0.05, duplicate_rate=0.05, reorder_rate=0.1,
                       reorder_max_shift=0.05)
    occurrences = schedule_writers(RUNS, writers=2, seed=1)
    stream, counters = merged_stream(occurrences, faults=faults)
    assert counters["reorder.reordered"] > 0
    for occurrence in occurrences:
        expected = FaultPipeline.from_spec(faults, seed=hash_word(occurrence.word)).inject(
            occurrence.run.rfidraw_log.reports)
        mine = [report for report in stream if report.epc_hex == occurrence.epc]
        got = np.array([(r.time - occurrence.offset, r.phase) for r in mine])
        want = np.array([(r.time, r.phase) for r in expected])
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-9)
