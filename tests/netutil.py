"""Shared helpers for the socket-marked ``net``/``slow`` suites."""

import asyncio
import os
import random

from repro.channel import GilbertElliottModel, IIDModel
from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender


def chaos_model(alpha, seed, *, drop=0.0, disconnect=0.0, burst_length=5.0):
    """The chaos :class:`~repro.channel.ChannelModel` CI selects.

    ``REPRO_CHAOS_MODEL`` picks the channel family — ``iid`` (default)
    or ``gilbert`` (burst errors matched to the same stationary
    *alpha*) — so the chaos-matrix CI leg replays the same suite over
    both channel shapes without editing any test.
    """
    kind = os.environ.get("REPRO_CHAOS_MODEL", "iid").strip().lower()
    rng = random.Random(seed)
    if kind in ("", "iid"):
        return IIDModel(rng=rng, drop=drop, corrupt=alpha, disconnect=disconnect)
    if kind == "gilbert":
        if drop or disconnect:
            raise ValueError(
                "the gilbert chaos family models corruption only; "
                "drop/disconnect need REPRO_CHAOS_MODEL=iid"
            )
        return GilbertElliottModel.matched_to_alpha(
            alpha, burst_length=burst_length, rng=rng
        )
    raise ValueError(
        f"unknown REPRO_CHAOS_MODEL {kind!r} (valid: iid, gilbert)"
    )


def make_prepared(
    document_id="doc",
    size=2048,
    packet_size=64,
    gamma=1.5,
    seed=99,
):
    """Cook a deterministic pseudo-random payload; returns (prepared, payload)."""
    payload = bytes(random.Random(seed).randrange(256) for _ in range(size))
    sender = DocumentSender(
        Packetizer(packet_size=packet_size, redundancy_ratio=gamma)
    )
    return sender.prepare_raw(document_id, payload), payload


async def assert_no_leaked_tasks():
    """Every server/proxy/client task must be finished by teardown.

    Each test runs under its own ``asyncio.run`` loop, so anything
    still pending here was leaked by the code under test.
    """
    for _ in range(5):  # let done-callbacks and cancellations settle
        await asyncio.sleep(0)
    current = asyncio.current_task()
    leaked = [
        task for task in asyncio.all_tasks() if task is not current and not task.done()
    ]
    assert not leaked, f"leaked tasks: {leaked!r}"
