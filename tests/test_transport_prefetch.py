"""Tests for content-driven prefetching."""

import random

import pytest

from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.prefetch import PrefetchCandidate, Prefetcher
from repro.transport.session import transfer_document


def make_candidates(count=3, size=2048):
    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.5))
    candidates = []
    for index in range(count):
        payload = bytes([index + 1]) * size
        prepared = sender.prepare_raw(f"doc{index}", payload)
        candidates.append(PrefetchCandidate(prepared=prepared, score=float(index)))
    return candidates


class TestGreedyOrder:
    def test_highest_score_first(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        candidates = make_candidates(3)
        # Budget for roughly one document only (m=8 packets + slack).
        one_doc_time = 9 * channel.transmission_time(260)
        report = prefetcher.run_idle_window(candidates, channel, one_doc_time)
        assert report.fetched == ["doc2"]  # score 2.0 wins

    def test_window_respected(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        report = prefetcher.run_idle_window(make_candidates(3), channel, 0.5)
        assert report.air_time_used <= 0.5 + 1e-9

    def test_partial_fetch_cached(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.0, rng=random.Random(0))
        # Tiny budget: only a couple of packets fit.
        report = prefetcher.run_idle_window(
            make_candidates(1), channel, 3 * channel.transmission_time(260)
        )
        assert report.partial == ["doc0"]
        assert cache.packet_count("doc0") > 0


class TestCacheSynergy:
    def test_prefetched_document_needs_no_air_time(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.0, rng=random.Random(1))
        candidates = make_candidates(1)
        report = prefetcher.run_idle_window(candidates, channel, 60.0)
        assert report.fetched == ["doc0"]

        # The explicit request afterwards completes without new frames.
        result = transfer_document(candidates[0].prepared, channel, cache=cache)
        assert result.success
        assert result.frames_sent == 0
        assert result.response_time == 0.0

    def test_already_cached_candidate_skipped(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.0, rng=random.Random(2))
        candidates = make_candidates(1)
        prefetcher.run_idle_window(candidates, channel, 60.0)
        frames_before = channel.frames_sent
        report = prefetcher.run_idle_window(candidates, channel, 60.0)
        assert report.fetched == ["doc0"]
        assert channel.frames_sent == frames_before  # nothing re-sent


class TestLossyPrefetch:
    def test_corruption_tolerated(self):
        cache = PacketCache()
        prefetcher = Prefetcher(cache)
        channel = WirelessChannel(alpha=0.1, rng=random.Random(3))
        report = prefetcher.run_idle_window(make_candidates(2), channel, 120.0)
        # The single prefetch pass has gamma=1.5 headroom; at alpha=0.1
        # both documents complete.  A document may land in `partial`
        # only if the round was unlucky beyond the redundancy.
        assert set(report.fetched) == {"doc1", "doc0"}

    def test_validation(self):
        prefetcher = Prefetcher(PacketCache())
        with pytest.raises(ValueError):
            prefetcher.run_idle_window([], WirelessChannel(), 0.0)
