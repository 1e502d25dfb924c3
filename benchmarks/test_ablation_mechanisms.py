"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the *components* of the
paper's design against their alternatives:

* systematic vs non-systematic (Rabin) coding throughput, and the
  decode cost the clear-text prefix avoids;
* erasure coding + caching vs ARQ baselines on the same channel;
* adaptive (EWMA) vs fixed redundancy on a drifting channel;
* Huffman interceptor compression ratio on document text.
"""

import random

import pytest

from conftest import bench_parameters, emit

from repro.analysis.ewma import AdaptiveRedundancyController
from repro.coding.packets import Packetizer
from repro.coding.rs import RabinDispersal, SystematicRSCodec
from repro.data import draft_paper_source
from repro.figures import format_table
from repro.prep.prepare import DocumentSender
from repro.prep.request import TransferSettings
from repro.transport.arq import selective_repeat, stop_and_wait
from repro.transport.cache import PacketCache
from repro.transport.channel import WirelessChannel
from repro.transport.compress import compress
from repro.transport.session import transfer_document

DOCUMENT = draft_paper_source().encode("utf-8")


def _raw_packets(m=40, size=256, seed=0):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(size)) for _ in range(m)]


class TestCodecAblation:
    def test_systematic_encode(self, benchmark):
        codec = SystematicRSCodec(40, 60)
        raw = _raw_packets()
        benchmark(codec.encode, raw)

    def test_rabin_encode(self, benchmark):
        codec = RabinDispersal(40, 60)
        raw = _raw_packets()
        benchmark(codec.encode, raw)

    def test_systematic_decode_clear_path(self, benchmark):
        """All clear packets present: decode is a copy, no matrix work."""
        codec = SystematicRSCodec(40, 60)
        cooked = codec.encode(_raw_packets())
        received = {i: cooked[i] for i in range(40)}
        benchmark(codec.decode, received)

    def test_systematic_decode_recovery_path(self, benchmark):
        """Ten clear packets lost: matrix inversion required."""
        codec = SystematicRSCodec(40, 60)
        cooked = codec.encode(_raw_packets())
        received = {i: cooked[i] for i in range(10, 60)}
        benchmark(codec.decode, received)


class TestTransportAblation:
    def test_erasure_coding_vs_arq(self, benchmark):
        """One summary run comparing the three reliability mechanisms
        on an identical α = 0.3 channel."""

        def run():
            results = {}
            sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.7))
            prepared = sender.prepare_raw("doc", DOCUMENT)
            channel = WirelessChannel(alpha=0.3, rng=random.Random(1))
            erasure = transfer_document(prepared, channel, cache=PacketCache())
            results["erasure+cache"] = (erasure.response_time, erasure.frames_sent)

            channel = WirelessChannel(alpha=0.3, rng=random.Random(1))
            sw = stop_and_wait(DOCUMENT, channel, packet_size=256)
            results["stop-and-wait"] = (sw.response_time, sw.frames_sent)

            channel = WirelessChannel(alpha=0.3, rng=random.Random(1))
            sr = selective_repeat(DOCUMENT, channel, packet_size=256)
            results["selective-repeat"] = (sr.response_time, sr.frames_sent)
            return results

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        emit(
            "ablation_reliability_mechanisms",
            format_table(
                [(name, rt, frames) for name, (rt, frames) in results.items()],
                headers=("mechanism", "response time (s)", "frames"),
            ),
        )
        # Erasure coding needs no reverse channel and should beat
        # stop-and-wait comfortably on response time.
        assert results["erasure+cache"][0] < results["stop-and-wait"][0]

    def test_adaptive_vs_fixed_gamma(self, benchmark):
        """Channel drifts 0.1 → 0.45 → 0.1; adaptive γ follows it."""

        def run(adaptive):
            controller = AdaptiveRedundancyController(
                success=0.95, m_hint=40, weight=0.3, initial_alpha=0.1
            )
            rng = random.Random(5)
            total_time = 0.0
            for alpha, count in ((0.1, 8), (0.45, 8), (0.1, 8)):
                channel = WirelessChannel(alpha=alpha, rng=rng)
                for _ in range(count):
                    gamma = controller.gamma() if adaptive else 1.5
                    sender = DocumentSender(
                        Packetizer(packet_size=256, redundancy_ratio=gamma)
                    )
                    prepared = sender.prepare_raw("doc", b"x" * 10240)
                    channel.reset_counters()
                    result = transfer_document(
                        prepared,
                        channel,
                        cache=PacketCache(),
                        settings=TransferSettings(max_rounds=50),
                    )
                    total_time += result.response_time
                    controller.record_transfer(
                        corrupted=channel.frames_corrupted,
                        total=channel.frames_sent,
                    )
            return total_time

        def both():
            return run(False), run(True)

        fixed, adaptive = benchmark.pedantic(both, rounds=1, iterations=1)
        emit(
            "ablation_adaptive_gamma",
            format_table(
                [("fixed gamma=1.5", fixed), ("adaptive EWMA gamma", adaptive)],
                headers=("policy", "total response time (s)"),
            ),
        )
        # The adaptive policy must be competitive (within 10%) and is
        # usually strictly better on the drifting channel.
        assert adaptive <= fixed * 1.10


class TestCompressionAblation:
    def test_document_compression_ratio(self, benchmark):
        blob = benchmark(compress, DOCUMENT)
        ratio = len(blob) / len(DOCUMENT)
        emit(
            "ablation_compression",
            format_table(
                [("draft paper XML", len(DOCUMENT), len(blob), ratio)],
                headers=("input", "bytes", "compressed", "ratio"),
            ),
        )
        assert ratio < 0.75  # Huffman on English/XML text
