"""The metric fold on synthetic outcomes and spans."""

import pytest

from perfbench import fold
from perfbench.fold import Outcome, end_to_end, latency_sample, verify

LIMIT = 2.0


def outcome(elapsed, status="decoded", digest="good", relevant=True, content=1.0, size=1000):
    o = Outcome(
        doc="d", packet_size=256, query="", relevant=relevant, elapsed=elapsed,
        status=status, digest=digest, size=size, content=content,
    )
    verify(o, "good", 0.5)
    return o


def test_verify_decoded_bytes():
    assert outcome(0.1).verified
    wrong = outcome(0.1, digest="bad")
    assert wrong.wrong and not wrong.verified


def test_verify_early_stop_needs_irrelevant_and_content():
    assert outcome(0.1, "early_stop", None, relevant=False, content=0.6).verified
    short = outcome(0.1, "early_stop", None, relevant=False, content=0.4)
    relevant = outcome(0.1, "early_stop", None, relevant=True, content=0.9)
    assert short.wrong and relevant.wrong


def test_failure_is_not_wrong_but_not_verified():
    failed = outcome(0.1, "failed", None)
    raised = outcome(0.1, "raised", None)
    for o in (failed, raised):
        assert not o.verified and not o.wrong


def test_misses_enter_the_sample_as_the_limit():
    outcomes = [
        outcome(0.5),
        outcome(0.3, "failed", None),
        outcome(0.2, digest="bad"),
        outcome(3.0),
    ]
    assert latency_sample(outcomes, LIMIT) == [0.5, LIMIT, LIMIT, LIMIT]


def test_fixing_a_failure_can_only_lower_percentiles():
    broken = [outcome(0.1 * k) for k in range(1, 20)] + [outcome(0.05, "failed", None)]
    fixed = broken[:-1] + [outcome(0.05)]
    for q in (50, 95):
        before = fold.percentile(latency_sample(broken, LIMIT), q)
        after = fold.percentile(latency_sample(fixed, LIMIT), q)
        assert after <= before


def test_end_to_end_fold():
    outcomes = [
        outcome(0.1, size=2048),
        outcome(0.3, size=1024),
        outcome(0.2, "early_stop", None, relevant=False, content=0.7, size=0),
        outcome(0.4, "failed", None, size=0),
    ]
    metrics = end_to_end(
        outcomes, limit=LIMIT, window_s=2.0, client_cpu_s=0.4, server_cpu_s=0.2,
        wire_bytes=8192, client_rss_kb=2048, server_rss_kb=4096, setup_s=0.5,
    )
    assert set(metrics) == set(fold.END_TO_END_UNITS)
    assert metrics["fetch_p50_s"] == pytest.approx(0.25)
    assert metrics["fetch_p95_s"] == pytest.approx(0.3 + 0.85 * (LIMIT - 0.3))
    assert metrics["slo_attainment"] == pytest.approx(0.75)
    assert metrics["fetch_error_rate"] == pytest.approx(0.25)
    assert metrics["fetches_per_s"] == pytest.approx(2.0)
    assert metrics["goodput_mb_s"] == pytest.approx(3072 / 2.0 / fold.MIB)
    assert metrics["client_cpu_ms_per_fetch"] == pytest.approx(100.0)
    assert metrics["server_cpu_ms_per_fetch"] == pytest.approx(50.0)
    assert metrics["wire_kib_per_fetch"] == pytest.approx(2.0)
    assert metrics["client_peak_rss_mb"] == pytest.approx(2.0)
    assert metrics["server_peak_rss_mb"] == pytest.approx(4.0)
    assert metrics["setup_s"] == 0.5


def test_end_to_end_needs_an_attempt():
    with pytest.raises(ValueError):
        end_to_end(
            [], limit=LIMIT, window_s=1.0, client_cpu_s=0, server_cpu_s=0,
            wire_bytes=0, client_rss_kb=0, server_rss_kb=0, setup_s=0,
        )


def span(sid, parent, name, start, end, extra=None):
    return [sid, parent, name, start, end, "f", extra]


def test_self_time_and_coverage():
    spans = [
        span(1, None, "net.client.fetch", 0, 100),
        span(2, 1, "net.client.wait", 0, 50),
        span(3, 2, "net.client.read_message", 5, 45),
        span(4, 1, "prep.reconstruct", 50, 90),
        span(5, 4, "coding.codec_setup", 50, 80),
        span(6, None, "broadcast.air_cycle", 0, 1000, extra=30),
    ]
    own = fold.self_ns(spans)
    assert own == {1: 10, 2: 10, 3: 40, 4: 10, 5: 30, 6: 30}
    layers = fold.layer_self_ms(spans)
    assert layers["net"] == pytest.approx(60 / 1e6)
    assert layers["coding"] == pytest.approx(30 / 1e6)
    assert layers["broadcast"] == pytest.approx(30 / 1e6)
    assert fold.coverage(spans) == pytest.approx(0.9)
    assert fold.in_window(spans, 1, 60) == [spans[2], spans[3], spans[4]]


def test_per_layer_names_match_units():
    metrics = fold.per_layer(
        client_spans=[], server_spans=[], proxy_spans=[],
        outcomes=[outcome(0.1)], server_delta={}, prep_delta={},
        broadcast_delta={}, proxy_delta={}, sendq_high_water_bytes=0,
        server_cpu_s=0.0, unhandled=0, model_alpha=0.0,
    )
    assert set(metrics) == set(fold.PER_LAYER_UNITS)
