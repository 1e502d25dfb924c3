#!/usr/bin/env python3
"""Fault tolerance deep-dive: dispersal, stalls, and the packet cache.

Demonstrates the §4 machinery in isolation:

1. Rabin dispersal vs the systematic Vandermonde code — any-M-of-N
   reconstruction and the clear-text-prefix property;
2. the negative binomial planner choosing N for a target success rate;
3. a stalled transfer on a terrible channel, recovered across
   retransmission rounds by the Caching strategy while NoCaching
   keeps starting over.

Run:  python examples/faulty_channel_recovery.py
"""

import random

from repro.analysis import minimal_cooked_packets, stall_probability
from repro.coding import Packetizer, RabinDispersal, SystematicRSCodec
from repro.prep import DocumentSender, TransferSettings
from repro.transport import (
    PacketCache,
    WirelessChannel,
    transfer_document,
)

DOCUMENT = (
    b"Weakly-connected mobile clients need the high content-bearing "
    b"portions of a web document to survive a faulty wireless channel. "
) * 40  # ~5 KB


def dispersal_demo() -> None:
    print("=== 1. Information dispersal ===")
    packetizer = Packetizer(packet_size=128, redundancy_ratio=2.0)
    raw = packetizer.split(DOCUMENT)
    m = len(raw)
    n = packetizer.cooked_packet_count(m)

    systematic = SystematicRSCodec(m, n)
    cooked = systematic.encode(raw)
    print(f"M={m} raw packets -> N={n} cooked packets (systematic)")
    assert cooked[:m] == raw
    print("first M cooked packets are the raw packets in clear text: OK")

    rng = random.Random(1)
    keep = rng.sample(range(n), m)  # any M of the N survive
    recovered = systematic.decode({i: cooked[i] for i in keep})
    assert b"".join(recovered)[: len(DOCUMENT)] == DOCUMENT
    print(f"reconstructed from an arbitrary {m}-subset of cooked packets: OK")

    rabin = RabinDispersal(m, n)
    cooked_r = rabin.encode(raw)
    clear_leaks = sum(1 for c in cooked_r[:m] if c in raw)
    print(f"Rabin (non-systematic) cooked packets equal to raw ones: {clear_leaks}")


def planner_demo() -> None:
    print("\n=== 2. Choosing N analytically ===")
    m = 40
    for alpha in (0.1, 0.3, 0.5):
        n95 = minimal_cooked_packets(m, alpha, 0.95)
        n99 = minimal_cooked_packets(m, alpha, 0.99)
        print(
            f"alpha={alpha:3.1f}: N(S=95%)={n95:3d} (gamma={n95/m:.2f})   "
            f"N(S=99%)={n99:3d} (gamma={n99/m:.2f})   "
            f"stall prob. at N=60: {stall_probability(m, 60, alpha):.4f}"
        )


def caching_demo() -> None:
    print("\n=== 3. Stall recovery: Caching vs NoCaching ===")
    sender = DocumentSender(Packetizer(packet_size=128, redundancy_ratio=1.2))
    # alpha=0.4 with gamma=1.2 stalls most rounds: the cache is decisive.
    for label, cache in (("NoCaching", None), ("Caching  ", PacketCache())):
        channel = WirelessChannel(alpha=0.4, rng=random.Random(99))
        prepared = sender.prepare_raw("demo", DOCUMENT)
        result = transfer_document(
            prepared, channel, cache=cache, settings=TransferSettings(max_rounds=200)
        )
        status = "ok" if result.success else "gave up"
        print(
            f"{label}: {status} after {result.rounds:3d} round(s), "
            f"{result.frames_sent:5d} frames, {result.response_time:8.1f}s"
        )
        if result.success:
            assert result.payload == DOCUMENT


def main() -> None:
    dispersal_demo()
    planner_demo()
    caching_demo()


if __name__ == "__main__":
    main()
