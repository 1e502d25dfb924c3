"""Seeded property sweep for the networked §4.2 protocol.

Random (M, N, alpha, loss, disconnect) grids run through a
:class:`ChaosProxy` on loopback.  The invariants:

* a fetch reports ``decoded`` only when reconstruction from >= M
  intact cooked packets succeeded — asserted by comparing the
  reconstructed payload byte-for-byte against the original;
* a fetch that does not decode exhausted an explicit budget
  (reconnects or rounds), never an undocumented state;
* a transfer resumed across a mid-stream disconnect is byte-identical
  to an uninterrupted one;
* no asyncio task outlives its test.
"""

import asyncio
import random

import pytest

from repro import obs
from repro.channel import IIDModel
from repro.net import ChaosProxy, DocumentStore, NetClient, NetServer
from repro.obs.trace import (
    NET_CONN_CLOSE,
    NET_CONN_OPEN,
    NET_ROUND_SERVED,
    TRANSFER_COMPLETE,
    TRANSFER_START,
    load_jsonl,
)
from repro.prep.request import TransferSettings
from repro.transport.cache import PacketCache

from tests.netutil import assert_no_leaked_tasks, make_prepared

pytestmark = pytest.mark.net


def sweep_cases(count=8, master_seed=20000806):
    """Seeded random grid over geometry and fault rates."""
    rng = random.Random(master_seed)
    cases = []
    for index in range(count):
        cases.append(
            dict(
                seed=rng.randrange(1 << 30),
                # Kept so that m * gamma <= 255 (the GF(256) bound on N).
                size=rng.choice([512, 2048, 4096]),
                packet_size=rng.choice([64, 128, 256]),
                gamma=rng.choice([1.25, 1.5, 2.0]),
                drop=rng.choice([0.0, 0.05, 0.15]),
                corrupt=rng.choice([0.0, 0.1, 0.2, 0.35]),
                disconnect=rng.choice([0.0, 0.002, 0.01]),
            )
        )
    return cases


@pytest.mark.parametrize("case", sweep_cases(), ids=lambda c: f"seed{c['seed']}")
def test_chaos_sweep(case):
    async def go():
        prepared, payload = make_prepared(
            size=case["size"],
            packet_size=case["packet_size"],
            gamma=case["gamma"],
            seed=case["seed"],
        )
        store = DocumentStore()
        store.add(prepared)
        max_reconnects = 6
        async with NetServer(store) as server:
            # Uninterrupted baseline, straight to the server.
            baseline = await NetClient(
                server.host, server.port, cache=PacketCache()
            ).fetch("doc")
            assert baseline.status == "decoded"
            assert baseline.payload == payload

            async with ChaosProxy(
                server.host,
                server.port,
                model=IIDModel(
                    rng=random.Random(case["seed"]),
                    drop=case["drop"],
                    corrupt=case["corrupt"],
                    disconnect=case["disconnect"],
                ),
                max_disconnects=3,
            ) as proxy:
                client = NetClient(
                    proxy.host,
                    proxy.port,
                    cache=PacketCache(),
                    settings=TransferSettings(max_reconnects=max_reconnects),
                    reconnect_delay=0.01,
                )
                result = await client.fetch("doc")

        if result.status == "decoded":
            # Decode implies >= M intact packets were accumulated; the
            # reconstruction being byte-identical is the proof.
            assert result.payload == payload
            assert result.payload == baseline.payload
        else:
            # The only legal non-decode outcomes are exhausted budgets.
            assert result.status == "failed"
            assert (
                result.reconnects > max_reconnects
                or result.rounds >= client.max_rounds
            )
        await assert_no_leaked_tasks()

    asyncio.run(go())


@pytest.mark.parametrize("cut_fraction", [0.25, 0.5, 0.9])
def test_resumed_transfer_is_byte_identical(cut_fraction):
    """A mid-transfer disconnect resumes from cache, byte-identical."""

    async def go():
        prepared, payload = make_prepared(size=4096, packet_size=64)
        store = DocumentStore()
        store.add(prepared)
        # The cut must land before M intact frames arrive (the client
        # decodes and stops as soon as it holds M), so scale by M.
        cut_after = max(1, int(prepared.m * cut_fraction))
        async with NetServer(store) as server:
            uninterrupted = await NetClient(
                server.host, server.port, cache=PacketCache()
            ).fetch("doc")
            assert uninterrupted.status == "decoded"

            async with ChaosProxy(
                server.host, server.port, cut_after_frames=cut_after
            ) as proxy:
                client = NetClient(
                    proxy.host,
                    proxy.port,
                    cache=PacketCache(),
                    reconnect_delay=0.01,
                )
                resumed = await client.fetch("doc")

            assert resumed.status == "decoded"
            assert resumed.reconnects >= 1
            assert resumed.payload == uninterrupted.payload == payload
            # The resumed connection really skipped the cached packets.
            assert server.stats["resumed_frames_skipped"] > 0
        await assert_no_leaked_tasks()

    asyncio.run(go())


def test_trace_context_survives_reconnect(tmp_path):
    """One transfer ID correlates both peers across a cut-and-resume.

    The client mints the ID once; after the chaos proxy severs the
    first connection the redial's ``HELLO`` carries the *same* ID, so
    the exported JSONL shows a single correlated timeline: the client's
    ``transfer_start``/``transfer_complete`` and the server's
    ``net_conn_open``/``net_round_served``/``net_conn_close`` — one
    open per connection, the resumed one flagged.
    """

    async def go():
        prepared, payload = make_prepared(size=4096, packet_size=64)
        store = DocumentStore()
        store.add(prepared)
        async with NetServer(store) as server:
            async with ChaosProxy(
                server.host, server.port, cut_after_frames=max(1, prepared.m // 2)
            ) as proxy:
                client = NetClient(
                    proxy.host,
                    proxy.port,
                    cache=PacketCache(),
                    reconnect_delay=0.01,
                )
                result = await client.fetch("doc")
        assert result.status == "decoded"
        assert result.reconnects >= 1
        assert result.payload == payload
        await assert_no_leaked_tasks()

    obs.enable()
    try:
        asyncio.run(go())
        trace_path = tmp_path / "trace.jsonl"
        obs.OBS.trace.export_jsonl(str(trace_path))
    finally:
        obs.disable(reset=True)

    events = load_jsonl(str(trace_path))
    starts = [e for e in events if e["event"] == TRANSFER_START]
    assert len(starts) == 1
    transfer_id = starts[0]["transfer"]
    # Wire-minted ID, not the recorder's local tN numbering.
    assert not transfer_id.startswith("t")

    opens = [e for e in events if e["event"] == NET_CONN_OPEN]
    rounds = [e for e in events if e["event"] == NET_ROUND_SERVED]
    closes = [e for e in events if e["event"] == NET_CONN_CLOSE]
    completes = [e for e in events if e["event"] == TRANSFER_COMPLETE]
    assert len(opens) >= 2              # original dial + >= 1 redial
    assert len(closes) == len(opens)
    assert rounds and completes

    # Every event of the transfer — both peers — shares the one ID.
    for event in opens + rounds + closes + completes:
        assert event["transfer"] == transfer_id, event
    # Exactly the redials are flagged as resumed, and each connection
    # carries its own span (.c1, .c2, ...) under the shared ID.
    assert [e["resumed"] for e in opens].count(False) == 1
    assert [e["resumed"] for e in opens].count(True) == len(opens) - 1
    spans = {e["span"] for e in opens}
    assert len(spans) == len(opens)
    assert all(span.startswith(transfer_id + ".c") for span in spans)


def test_no_cache_restart_still_decodes():
    """NoCaching: a drop restarts from scratch yet converges."""

    async def go():
        prepared, payload = make_prepared(size=2048, packet_size=64)
        store = DocumentStore()
        store.add(prepared)
        async with NetServer(store) as server:
            async with ChaosProxy(
                server.host, server.port, cut_after_frames=prepared.m // 2
            ) as proxy:
                client = NetClient(
                    proxy.host, proxy.port, cache=None, reconnect_delay=0.01
                )
                result = await client.fetch("doc")
            assert result.status == "decoded"
            assert result.reconnects >= 1
            assert result.payload == payload
            # Nothing was carried, so the server never skipped frames.
            assert server.stats["resumed_frames_skipped"] == 0
        await assert_no_leaked_tasks()

    asyncio.run(go())
