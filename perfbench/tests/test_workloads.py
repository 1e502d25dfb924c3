"""Seeded inputs: the same seed gives the same inputs, another differs."""

import pytest

from perfbench import workloads
from perfbench.workloads import (
    CODEC_LIMIT,
    HOT_MAX_BYTES,
    HOT_MIN_BYTES,
    IRRELEVANT_F,
    MAX_M,
    PACKET_SIZES,
    build,
    raw_packets,
)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first, second = build(name, 7), build(name, 7)
    assert first.documents == second.documents
    assert first.streams == second.streams
    assert first.variants == second.variants
    assert (first.warm, first.hotness, first.probes) == (
        second.warm, second.hotness, second.probes
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    first, other = build(name, 7), build(name, 8)
    assert first.documents != other.documents
    assert first.streams != other.streams


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        build("no-such-workload", 1)


def test_browse_session_shape():
    workload = build("browse-session", 3)
    (fetches,) = workload.streams
    sizes = {doc: len(xml) for doc, xml in workload.documents.items()}
    # Every timed fetch is servable at its packet size without a γ clamp.
    for fetch in fetches:
        assert fetch.packet_size in PACKET_SIZES
        assert raw_packets(sizes[fetch.doc], fetch.packet_size) <= MAX_M * 1.05
    # Exactly every other visit is irrelevant (F = 0.5).
    assert [f.relevant for f in fetches] == [i % 2 == 0 for i in range(len(fetches))]
    assert all(f.threshold == IRRELEVANT_F for f in fetches if not f.relevant)
    assert any(f.query for f in fetches) and any(not f.query for f in fetches)
    assert len(fetches) == workloads.SESSION_VISITS
    # The session ends returning to its most visited page.
    home = fetches[-1].doc
    assert all(f.doc == home for f in fetches[-workloads.SESSION_REVISITS:])
    drawn = [f.doc for f in fetches[: workloads.SESSION_DRAWS]]
    assert drawn.count(home) == max(drawn.count(doc) for doc in drawn)
    assert len({f.doc for f in fetches}) > len(fetches) // 2
    # The probe page is past the codec limit at the largest packet size.
    assert workload.probes
    for probe in workload.probes:
        assert raw_packets(sizes[probe.doc], PACKET_SIZES[-1]) > CODEC_LIMIT
        assert all(probe.doc != f.doc for f in fetches)


def test_browse_session_variants_keep_the_script_shape():
    workload = build("browse-session", 3)
    first = workload.variants[0]
    assert workload.session_streams(0) == workload.streams == [first]
    assert len(workload.variants) == workloads.SESSION_VARIANTS
    sizes = {doc: len(xml) for doc, xml in workload.documents.items()}
    for session, variant in enumerate(workload.variants):
        assert workload.session_streams(session) == [variant]
        # Same packet sizes, queries and relevance, visit by visit.
        assert [(f.packet_size, bool(f.query), f.relevant) for f in variant] == [
            (f.packet_size, bool(f.query), f.relevant) for f in first
        ]
        # Revisits stay revisits: the page mapping is one-to-one.
        mapping = {a.doc: b.doc for a, b in zip(first, variant)}
        assert len(set(mapping.values())) == len(mapping)
        assert all(b.doc == mapping[a.doc] for a, b in zip(first, variant))
        for a, b in zip(first, variant):
            if sizes[a.doc] > 40 * 1024:
                assert 0.9 < sizes[b.doc] / sizes[a.doc] < 1.1
    assert len({tuple(v) for v in workload.variants}) == len(workload.variants)


@pytest.mark.parametrize("name", ["hot-lossy", "hot-carousel"])
def test_hot_set_shape(name):
    workload = build(name, 3)
    for xml in workload.documents.values():
        assert 0.8 * HOT_MIN_BYTES <= len(xml) <= 1.1 * HOT_MAX_BYTES
    assert {f.doc for f in workload.warm} == set(workload.documents)
    assert {f.doc for s in workload.streams for f in s} <= set(workload.documents)


def test_hot_workloads_share_the_hot_set():
    assert build("hot-lossy", 5).documents == build("hot-carousel", 5).documents
