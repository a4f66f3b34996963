"""fleet_serve set-up ends when every shard has built its recogniser."""

import asyncio
import os
import time

from rfbench.fleet import start_service
from repro.serve.workload import fleet_system

FACTORY_SECONDS = 0.4


def slow_factory():
    time.sleep(FACTORY_SECONDS)
    return None


def test_setup_waits_for_every_shard_recogniser():
    async def main():
        service, setup, pids = await start_service(fleet_system(), slow_factory, shards=2)
        try:
            drained = await service.drain()
        finally:
            await service.stop()
        return setup, pids, drained

    setup, pids, drained = asyncio.run(main())
    assert setup >= FACTORY_SECONDS
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert drained.results == {}
