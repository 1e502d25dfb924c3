"""Tests for the document sender and its content profiles."""

import pytest

from repro.coding.packets import Packetizer
from repro.core.information import annotate_sc
from repro.core.lod import LOD
from repro.core.multires import TransmissionSchedule
from repro.core.pipeline import build_sc
from repro.prep.prepare import DocumentSender
from repro.xmlkit.parser import parse_xml

XML = """<paper>
  <title>Profile Paper</title>
  <section><title>Big</title>
    <paragraph>word word word word word word word word word word word
    word word word word word word word word word word word word word
    packet channel redundancy dispersal reconstruction bandwidth unit
    corruption retransmission caching content resolution browsing
    document wireless mobile network</paragraph>
  </section>
  <section><title>Small</title>
    <paragraph>tiny bit</paragraph>
  </section>
</paper>"""


def scheduled(lod=LOD.PARAGRAPH):
    sc = build_sc(parse_xml(XML))
    annotate_sc(sc)
    return TransmissionSchedule(sc, lod=lod, measure="ic")


class TestPrepare:
    def test_counts_match_packetizer(self):
        schedule = scheduled()
        packetizer = Packetizer(packet_size=64, redundancy_ratio=1.5)
        prepared = DocumentSender(packetizer).prepare("doc", schedule)
        assert prepared.m == packetizer.raw_packet_count(len(schedule.payload()))
        assert prepared.n == packetizer.cooked_packet_count(prepared.m)

    def test_empty_document_rejected(self):
        sender = DocumentSender()
        with pytest.raises(ValueError):
            sender.prepare_raw("doc", b"")

    def test_profile_length_and_total(self):
        schedule = scheduled()
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare("doc", schedule)
        assert len(prepared.content_profile) == prepared.m
        assert sum(prepared.content_profile) == pytest.approx(1.0)

    def test_profile_matches_schedule_prefix(self):
        """Profile entries are exact increments of content_prefix."""
        schedule = scheduled()
        size = 64
        prepared = DocumentSender(Packetizer(packet_size=size)).prepare("doc", schedule)
        for index, share in enumerate(prepared.content_profile):
            expected = schedule.content_prefix(
                (index + 1) * size
            ) - schedule.content_prefix(index * size)
            assert share == pytest.approx(expected)

    def test_ranked_profile_frontloaded(self):
        """IC ranking puts the big section's packets first."""
        ranked = scheduled(LOD.SECTION)
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare("doc", ranked)
        profile = prepared.content_profile
        first_half = sum(profile[: len(profile) // 2])
        assert first_half > 0.5

    def test_raw_profile_uniform(self):
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare_raw(
            "doc", b"z" * 640
        )
        assert prepared.content_profile == pytest.approx([0.1] * 10)

    def test_frames_count(self):
        prepared = DocumentSender(Packetizer(packet_size=64)).prepare_raw(
            "doc", b"z" * 640
        )
        assert len(prepared.frames()) == prepared.n
