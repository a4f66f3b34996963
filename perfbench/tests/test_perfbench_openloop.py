"""Open-loop due times, sender lateness, and which report evicts a word."""

import asyncio

import numpy as np

from rfbench.fleet import eviction_index
from rfbench.openloop import Schedule, due_offsets
from repro.serve import shard_for
from repro.serve.workload import fleet_system, synthetic_fleet
from repro.stream import SessionConfig, SessionManager


def test_due_offsets_follow_the_newest_timestamp():
    # The third arrival was delayed by a reorder: it is due when the
    # stream clock reaches the newest timestamp already sent.
    offsets = due_offsets([10.0, 10.1, 10.05, 10.3])
    assert np.allclose(offsets, [0.0, 0.1, 0.1, 0.3])


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def test_schedule_sleeps_when_early_and_records_lateness_when_late():
    clock = FakeClock()
    schedule = Schedule([0.0, 1.0, 2.0], clock=clock, sleep=clock.sleep)
    schedule.begin(lead=0.5)
    assert schedule.wait(0) == 0.5
    assert clock.slept == [0.5]
    clock.now += 2.0  # the system under test stalls for 2 s
    assert schedule.wait(1) == 1.5
    assert schedule.wait(2) == 2.5
    assert clock.slept == [0.5]  # no sleep while behind schedule
    assert np.allclose(schedule.lateness, [0.0, 1.0, 0.0])


def test_await_due_keeps_the_schedule_in_a_coroutine():
    schedule = Schedule([0.0, 0.02, 0.04])

    async def send():
        schedule.begin()
        return [await schedule.await_due(index) for index in range(3)]

    dues = asyncio.run(send())
    assert np.allclose(np.diff(dues), [0.02, 0.02])
    assert (schedule.lateness >= 0).all() and (schedule.lateness < 0.05).all()


def test_eviction_index_matches_the_managers_idle_rule():
    system = fleet_system()
    stream = synthetic_fleet(system, tags=5, active_span=0.5, stagger=0.35)
    config = SessionConfig(idle_timeout=0.1)
    shards = 2
    observed = {}
    current = [0]
    managers = [SessionManager(system, config=config) for _ in range(shards)]
    for manager in managers:
        manager.on_session_evicted = lambda event: observed.__setitem__(event.epc_hex, current[0])
    for index, report in enumerate(stream):
        current[0] = index
        managers[shard_for(report.epc_hex, shards)].ingest(report)
    assert observed, "the stream must evict some tags"
    assert eviction_index(stream, shards, config.idle_timeout) == observed
