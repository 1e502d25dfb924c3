"""Load-generation acceptance: 50 concurrent clients through chaos.

The issue's acceptance criterion: a loadgen run with 50 concurrent
clients through the ChaosProxy at alpha=0.2 completes with zero hung
tasks.  Marked ``net`` and ``slow``.
"""

import asyncio

import pytest

from repro.net import ChaosProxy, DocumentStore, NetServer, run_loadgen
from repro.prep.request import TransferSettings

from tests.netutil import assert_no_leaked_tasks, chaos_model, make_prepared

pytestmark = [pytest.mark.net, pytest.mark.slow]


def test_fifty_clients_through_chaos_at_alpha_02():
    async def go():
        prepared, payload = make_prepared(size=2048, packet_size=64)
        store = DocumentStore()
        store.add(prepared)
        async with NetServer(store) as server:
            async with ChaosProxy(
                server.host,
                server.port,
                # The paper's alpha=0.2 on live bytes; REPRO_CHAOS_MODEL
                # swaps the i.i.d. channel for a matched bursty one.
                model=chaos_model(0.2, 42),
            ) as proxy:
                report, results = await run_loadgen(
                    proxy.host, proxy.port, "doc", clients=50
                )
            assert proxy.stats["corrupted"] > 0

        assert report.clients == 50
        assert report.failed == 0
        assert report.succeeded == 50
        assert report.decoded == 50
        for result in results:
            assert result is not None
            assert result.payload == payload
        assert report.payload_bytes == 50 * len(payload)
        assert 0.0 < report.p50_seconds <= report.p90_seconds <= report.p99_seconds
        assert report.fetches_per_second > 0
        # Zero hung tasks after servers, proxy, and 50 clients wind down.
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_loadgen_counts_unreachable_server_as_failed():
    async def go():
        prepared, _ = make_prepared()
        store = DocumentStore()
        store.add(prepared)
        server = NetServer(store)
        await server.start()
        port = server.port
        await server.stop()
        report, results = await run_loadgen(
            "127.0.0.1",
            port,
            "doc",
            clients=3,
            settings=TransferSettings(max_reconnects=0),
        )
        assert report.failed == 3
        assert report.succeeded == 0
        assert results == [None, None, None]
        await assert_no_leaked_tasks()

    asyncio.run(go())
