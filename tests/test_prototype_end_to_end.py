"""End-to-end tests of the Figure 1 prototype: browse, render, recover."""

import random

import pytest

from repro.prep.request import PrepRequest
from repro.prototype import (
    DatabaseGateway,
    DocumentTransmitterService,
    MobileBrowser,
    ObjectRequestBroker,
)
from repro.transport import PacketCache, WirelessChannel

PAPER = """<paper>
  <title>Prototype Demo Paper</title>
  <abstract><paragraph>Weakly connected mobile browsing of web documents.</paragraph></abstract>
  <section>
    <title>Transmission</title>
    <paragraph>Cooked packets survive corruption through redundancy coding,
    and redundancy coding protects the wireless packets on every transfer
    so the browsing client can reconstruct documents reliably.</paragraph>
  </section>
  <section>
    <title>Caching</title>
    <paragraph>Caching intact packets bridges stalled downloads so that
    repeated transmissions become cheaper for the mobile client over
    the weakly connected wireless channel.</paragraph>
  </section>
</paper>"""


def make_browser(alpha=0.0, seed=0, cache=None):
    gateway = DatabaseGateway()
    gateway.put("paper-1", PAPER)
    broker = ObjectRequestBroker()
    broker.register("transmitter", DocumentTransmitterService(gateway))
    channel = WirelessChannel(alpha=alpha, rng=random.Random(seed))
    return MobileBrowser(broker, channel, cache=cache)


class TestCleanBrowse:
    def test_full_download(self):
        browser = make_browser()
        result = browser.browse("paper-1")
        assert result.success
        assert not result.terminated_early
        assert result.document_text is not None
        assert "redundancy" in result.document_text

    def test_all_units_rendered(self):
        browser = make_browser()
        result = browser.browse("paper-1")
        labels = {event.label for event in result.rendered}
        # Every scheduled unit eventually renders.
        assert any("1" == label or label.startswith("1.") for label in labels)
        assert len(labels) >= 3

    def test_render_positions_follow_document_order(self):
        browser = make_browser()
        result = browser.browse("paper-1")
        by_label = {event.label: event.position for event in result.rendered}
        # Abstract paragraph precedes section 2 content in position.
        abstract = [p for label, p in by_label.items() if label.startswith("0")]
        section2 = [p for label, p in by_label.items() if label.startswith("2")]
        assert min(abstract) < min(section2)

    def test_unknown_document(self):
        browser = make_browser()
        with pytest.raises(KeyError):
            browser.browse("missing")


class TestIncrementalRendering:
    def test_render_times_monotone(self):
        browser = make_browser(alpha=0.2, seed=3)
        result = browser.browse("paper-1")
        times = [event.time for event in result.rendered]
        assert times == sorted(times)

    def test_query_orders_relevant_units_first(self):
        browser = make_browser()
        result = browser.browse("paper-1", request=PrepRequest(query="caching stalled"))
        assert result.rendered
        first_label = result.rendered[0].label
        # The caching section (2.x) or its paragraph must render first.
        assert first_label.startswith("2")


class TestLossyBrowse:
    def test_recovers_under_corruption(self):
        browser = make_browser(alpha=0.3, seed=1, cache=PacketCache())
        result = browser.browse("paper-1", request=PrepRequest(gamma=2.0))
        assert result.success
        assert "redundancy" in result.document_text

    def test_early_termination_by_relevance(self):
        browser = make_browser()
        result = browser.browse("paper-1", relevance_threshold=0.2)
        assert result.terminated_early
        assert result.document_text is None

    def test_gamma_controls_cooked_count(self):
        gateway = DatabaseGateway()
        gateway.put("paper-1", PAPER)
        service = DocumentTransmitterService(gateway)
        from repro.prototype.messages import FetchRequest

        manifest_low, prepared_low = service.fetch(
            FetchRequest("paper-1", gamma=1.0)
        )
        manifest_high, prepared_high = service.fetch(
            FetchRequest("paper-1", gamma=2.0)
        )
        assert manifest_low.m == manifest_high.m
        assert manifest_high.n > manifest_low.n


class TestManifest:
    def test_manifest_measure_selection(self):
        gateway = DatabaseGateway()
        gateway.put("paper-1", PAPER)
        service = DocumentTransmitterService(gateway)
        from repro.prototype.messages import FetchRequest

        manifest_plain, _ = service.fetch(FetchRequest("paper-1"))
        assert manifest_plain.measure == "ic"
        manifest_query, _ = service.fetch(
            FetchRequest("paper-1", query_text="caching")
        )
        assert manifest_query.measure == "mqic"

    def test_manifest_offsets_contiguous(self):
        gateway = DatabaseGateway()
        gateway.put("paper-1", PAPER)
        service = DocumentTransmitterService(gateway)
        from repro.prototype.messages import FetchRequest

        manifest, prepared = service.fetch(FetchRequest("paper-1"))
        offset = 0
        for unit in manifest.units:
            assert unit.offset == offset
            offset += unit.size
        assert offset == manifest.total_bytes
