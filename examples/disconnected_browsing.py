#!/usr/bin/env python3
"""Browsing across disconnections (paper §4: "occasional disconnection
during transmission of web information is common").

Simulates a commuter scenario: the client starts a download, the link
drops for a stretch (a tunnel), and connectivity returns.  With the
packet cache, the attempts before and after the outage combine —
no byte received before the tunnel is wasted.  Also shows the bursty
Gilbert–Elliott channel as the milder cousin of a hard outage.

Run:  python examples/disconnected_browsing.py
"""

import random

from repro.coding import Packetizer
from repro.channel import GilbertElliottModel
from repro.prep import DocumentSender
from repro.transport import ModelChannel, NullCache, PacketCache
from repro.transport.disconnect import OutageChannel, resumable_transfer

DOCUMENT = b"A technical report worth reading on the train. " * 250  # ~11.7 KB


def tunnel_scenario(cache, label: str) -> None:
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.05))
    prepared = sender.prepare_raw("report", DOCUMENT)
    # The tunnel: connectivity vanishes from t=2s to t=30s; the thin
    # redundancy margin (gamma = 1.05) means single rounds rarely
    # suffice at alpha = 0.2 — progress must combine across attempts.
    channel = OutageChannel(
        outages=[(2.0, 30.0)], alpha=0.2, rng=random.Random(42)
    )
    result = resumable_transfer(
        prepared,
        channel,
        cache=cache,
        max_attempts=25,
        rounds_per_attempt=1,
    )
    status = "reconstructed" if result.success else "gave up"
    print(
        f"  {label:10s} {status:13s} after {result.attempts:2d} attempt(s), "
        f"{result.total_frames:4d} frames, {result.total_response_time:6.1f}s of air time"
    )
    if result.success:
        assert result.payload == DOCUMENT


def bursty_scenario() -> None:
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.7))
    prepared = sender.prepare_raw("report", DOCUMENT)
    rng = random.Random(7)
    channel = ModelChannel(
        GilbertElliottModel.matched_to_alpha(0.3, burst_length=8.0, rng=rng), rng=rng
    )
    result = resumable_transfer(prepared, channel, cache=PacketCache(), max_attempts=10)
    print(
        f"  bursty a*=0.3 (fades of ~8 packets): "
        f"{'ok' if result.success else 'failed'} in {result.attempts} attempt(s), "
        f"{result.total_response_time:.1f}s"
    )


def main() -> None:
    print("Tunnel scenario (28s outage in the middle of a download):")
    tunnel_scenario(PacketCache(), "Caching")
    tunnel_scenario(NullCache(), "NoCaching")
    print("\nBursty channel (Gilbert-Elliott, same stationary loss rate):")
    bursty_scenario()


if __name__ == "__main__":
    main()
