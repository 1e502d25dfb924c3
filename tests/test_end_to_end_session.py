"""Capstone integration test: a realistic mobile browsing session.

One scenario exercising most of the system together, end to end:

1. a corpus of generated research papers is served by the prototype
   (gateway + transmitter + search service over the broker);
2. the client searches, reads snippets, and prefetches the runner-up
   hits over idle bandwidth;
3. it browses the top hit with query-ordered multi-resolution
   transmission over a *bursty* channel, rendering incrementally;
4. a second hit is judged irrelevant and abandoned early;
5. a third is fetched during an outage and completes via the resumable
   path after reconnection — all through the same packet cache.
"""

import random

import pytest

from repro.channel import GilbertElliottModel
from repro.coding.packets import Packetizer
from repro.prep.prepare import DocumentSender
from repro.prep.request import PrepRequest
from repro.prototype import (
    DatabaseGateway,
    DocumentTransmitterService,
    MobileBrowser,
    ObjectRequestBroker,
    SearchService,
)
from repro.simulation.textgen import CorpusGenerator
from repro.transport import (
    ModelChannel,
    PacketCache,
    Prefetcher,
    PrefetchCandidate,
    WirelessChannel,
)
from repro.transport.disconnect import OutageChannel, resumable_transfer


@pytest.fixture(scope="module")
def stack():
    generator = CorpusGenerator(topic_count=4, seed=21)
    corpus = generator.corpus(8, sections=3, subsections=2, paragraphs=2)
    gateway = DatabaseGateway()
    search = SearchService(gateway)
    for doc_id, (xml, _topic) in corpus.items():
        gateway.put(doc_id, xml)
        search.index(doc_id)
    broker = ObjectRequestBroker()
    broker.register("transmitter", DocumentTransmitterService(gateway))
    broker.register("search", search)
    return generator, corpus, gateway, broker


def test_full_session(stack):
    generator, corpus, gateway, broker = stack
    cache = PacketCache(capacity_bytes=1 << 22)
    rng = random.Random(99)
    channel = ModelChannel(
        GilbertElliottModel.matched_to_alpha(0.2, burst_length=6.0, rng=rng), rng=rng
    )
    browser = MobileBrowser(broker, channel, cache=cache)
    query = generator.topic_query(1)

    # 1-2. Search; snippets present; prefetch the runner-up hits.
    results = browser.search(query, limit=3)
    assert len(results) >= 2
    assert all(r.snippet for r in results)

    sender = DocumentSender(Packetizer(packet_size=256, redundancy_ratio=1.5))
    runner_ups = [
        PrefetchCandidate(
            prepared=sender.prepare_raw(
                r.document_id, gateway.sc(r.document_id).root.subtree_payload()
            ),
            score=r.score,
        )
        for r in results[1:]
    ]
    report = Prefetcher(cache).run_idle_window(runner_ups, channel, idle_seconds=60.0)
    assert report.fetched or report.partial

    # 3. Browse the top hit with query-ordered transmission.
    top = results[0]
    outcome = browser.browse(
        top.document_id, request=PrepRequest(query=query, lod="paragraph", gamma=2.0)
    )
    assert outcome.success
    assert outcome.rendered, "incremental rendering must have fired"
    render_times = [event.time for event in outcome.rendered]
    assert render_times == sorted(render_times)

    # 4. A low-ranked document is abandoned once content 0.3 arrives.
    any_other = next(doc_id for doc_id in corpus if doc_id != top.document_id)
    abandoned = browser.browse(
        any_other, request=PrepRequest(query=query, gamma=1.5), relevance_threshold=0.3
    )
    assert abandoned.terminated_early
    assert abandoned.response_time < outcome.response_time

    # 5. A fetch that collides with an outage completes on resume,
    #    reusing whatever the pre-outage rounds banked in the cache.
    third = sender.prepare_raw(
        "outage-doc", gateway.sc(any_other).root.subtree_payload()
    )
    outage_channel = OutageChannel(
        outages=[(1.0, 25.0)], alpha=0.15, rng=random.Random(5)
    )
    resumed = resumable_transfer(
        third, outage_channel, cache=cache, max_attempts=30, rounds_per_attempt=1
    )
    assert resumed.success
    assert resumed.attempts > 1
    assert resumed.payload == gateway.sc(any_other).root.subtree_payload()


def test_session_budget_accounting(stack):
    """The same stack, instrumented: air time equals the channel clock
    and every frame is accounted for."""
    generator, corpus, gateway, broker = stack
    channel = WirelessChannel(alpha=0.1, rng=random.Random(3))
    browser = MobileBrowser(broker, channel, cache=PacketCache())
    query = generator.topic_query(0)
    results = browser.search(query, limit=1)
    outcome = browser.browse(
        results[0].document_id, request=PrepRequest(query=query, gamma=1.5)
    )
    assert outcome.success
    assert channel.clock == pytest.approx(outcome.response_time)
    assert channel.frames_sent > 0
    assert channel.frames_corrupted <= channel.frames_sent
