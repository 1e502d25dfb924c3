#!/usr/bin/env python3
"""Quickstart: from an XML document to a fault-tolerant transfer.

Walks the full pipeline on the bundled draft paper:

1. parse the XML and build its structural characteristic (SC);
2. compute information content, then QIC/MQIC for a query;
3. schedule paragraph-LOD multi-resolution transmission;
4. cook the packet stream with the systematic erasure code;
5. transfer it over a lossy simulated wireless channel and recover.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    LOD,
    Query,
    SCPipeline,
    TransmissionSchedule,
    WirelessChannel,
    annotate_sc,
    transfer_document,
)
from repro.coding import Packetizer
from repro.data import draft_paper_source
from repro.text.keywords import KeywordExtractor
from repro.prep import DocumentSender
from repro.transport import PacketCache
from repro.xmlkit import parse_xml


def main() -> None:
    # 1. Parse and build the SC through the five-stage pipeline.
    pipeline = SCPipeline()
    document = parse_xml(draft_paper_source())
    sc = pipeline.run(document)
    print(f"SC built: {sc}")

    # 2. Content measures: static IC plus query-based QIC/MQIC.
    extractor = KeywordExtractor(lemmatizer=pipeline.shared_lemmatizer)
    query = Query("browsing mobile web", extractor=extractor)
    annotate_sc(sc, query=query)

    print("\nTop paragraph-LOD units by MQIC:")
    units = sorted(
        sc.units_at(LOD.PARAGRAPH), key=lambda u: -u.content.get("mqic", 0.0)
    )
    for unit in units[:5]:
        print(f"  {unit.label:10s} mqic={unit.content['mqic']:.4f}")

    # 3. Multi-resolution schedule: best content first.
    schedule = TransmissionSchedule(sc, lod=LOD.PARAGRAPH, measure="mqic")
    print(f"\nSchedule: {schedule}")
    first = schedule.segments()[0]
    print(f"First on the air: unit {first.label} ({first.size} bytes, "
          f"{first.content:.1%} of the content)")

    # 4. Cook the stream: gamma = 1.5 means 50% redundancy.
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.5))
    prepared = sender.prepare("draft-paper", schedule)
    print(f"\nCooked: M={prepared.m} raw -> N={prepared.n} cooked packets")

    # 5. Transfer over a 19.2 kbps channel corrupting 20% of packets.
    channel = WirelessChannel(bandwidth_kbps=19.2, alpha=0.2, rng=random.Random(7))
    result = transfer_document(prepared, channel, cache=PacketCache())
    assert result.success and result.payload == schedule.payload()
    print(
        f"\nTransfer complete in {result.response_time:.2f}s "
        f"({result.rounds} round(s), {result.frames_sent} frames, "
        f"{channel.frames_corrupted} corrupted en route)"
    )
    print("Document reconstructed bit-exact despite the corruption.")


if __name__ == "__main__":
    main()
