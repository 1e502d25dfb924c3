"""Fold fetch outcomes, window-edge counters and spans into metrics.

Pure functions over plain data, so the metric definitions can be
tested on synthetic outcomes without sockets or processes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.analysis.negbinom import expectation
from repro.util.stats import percentile

MIB = 1024 * 1024
#: Slack on the early-stop content check (profile sums are floats).
CONTENT_EPSILON = 1e-9

END_TO_END_UNITS = {
    "fetch_p50_s": "s",
    "fetch_p95_s": "s",
    "slo_attainment": "ratio",
    "fetch_error_rate": "ratio",
    "fetches_per_s": "1/s",
    "goodput_mb_s": "MiB/s",
    "client_cpu_ms_per_fetch": "ms",
    "server_cpu_ms_per_fetch": "ms",
    "wire_kib_per_fetch": "KiB",
    "client_peak_rss_mb": "MiB",
    "server_peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYERS = ("net", "prep", "core", "coding", "protocol", "channel", "broadcast")


@dataclass
class Outcome:
    """One attempted fetch, as the user agent saw it."""

    doc: str
    packet_size: int
    query: str
    relevant: bool
    elapsed: float
    #: ``decoded`` | ``early_stop`` | ``failed`` | ``raised``
    status: str
    digest: Optional[str] = None
    size: int = 0
    content: float = 0.0
    rounds: int = 0
    frames: int = 0
    reconnects: int = 0
    traced: bool = False
    error: str = ""
    #: set by :func:`verify`
    verified: bool = False
    wrong: bool = False
    m: int = 0


def verify(
    outcome: Outcome,
    expected_digest: Optional[str],
    threshold: float,
) -> None:
    """Judge one outcome against the oracle.

    A decoded fetch must return the oracle's bytes.  An early stop must
    be a fetch the workload marked irrelevant, with reported content at
    least the threshold F.  Anything else is wrong; a failed or raised
    fetch is not verified but is not wrong either.
    """
    if outcome.status == "decoded":
        outcome.verified = expected_digest is not None and outcome.digest == expected_digest
        outcome.wrong = not outcome.verified
    elif outcome.status == "early_stop":
        legitimate = (not outcome.relevant) and (
            outcome.content >= threshold - CONTENT_EPSILON
        )
        outcome.verified = legitimate
        outcome.wrong = not legitimate
    else:
        outcome.verified = False
        outcome.wrong = False


def latency_sample(outcomes: Iterable[Outcome], limit: float) -> List[float]:
    """Fetch times with every miss entered as the limit L.

    A fetch that failed, returned wrong bytes or took longer than L
    counts as L, so percentiles stay finite and fixing a failure can
    only lower them.
    """
    return [
        o.elapsed if o.verified and o.elapsed <= limit else limit for o in outcomes
    ]


def end_to_end(
    outcomes: Sequence[Outcome],
    *,
    limit: float,
    window_s: float,
    client_cpu_s: float,
    server_cpu_s: float,
    wire_bytes: int,
    client_rss_kb: int,
    server_rss_kb: int,
    setup_s: float,
) -> Dict[str, float]:
    """The twelve end-to-end metrics of one run."""
    attempted = len(outcomes)
    if attempted == 0:
        raise ValueError("no fetch was attempted")
    sample = latency_sample(outcomes, limit)
    verified = [o for o in outcomes if o.verified]
    within = sum(1 for o in verified if o.elapsed <= limit)
    goodput = sum(o.size for o in verified if o.status == "decoded")
    return {
        "fetch_p50_s": percentile(sample, 50),
        "fetch_p95_s": percentile(sample, 95),
        "slo_attainment": within / attempted,
        "fetch_error_rate": (attempted - len(verified)) / attempted,
        "fetches_per_s": attempted / window_s,
        "goodput_mb_s": goodput / window_s / MIB,
        "client_cpu_ms_per_fetch": 1000.0 * client_cpu_s / attempted,
        "server_cpu_ms_per_fetch": 1000.0 * server_cpu_s / attempted,
        "wire_kib_per_fetch": wire_bytes / attempted / 1024.0,
        "client_peak_rss_mb": client_rss_kb / 1024.0,
        "server_peak_rss_mb": server_rss_kb / 1024.0,
        "setup_s": setup_s,
    }


# -- spans ---------------------------------------------------------------------

# A span is [id, parent, name, start_ns, end_ns, fetch, extra].
ID, PARENT, NAME, START, END, FETCH, EXTRA = range(7)


def in_window(spans: Iterable[list], start_ns: int, end_ns: int) -> List[list]:
    """Spans that began inside the timed window."""
    return [s for s in spans if start_ns <= s[START] <= end_ns]


def duration(span: list) -> int:
    return span[END] - span[START]


def self_ns(spans: Sequence[list]) -> Dict[int, int]:
    """Span id → self time: its duration minus its direct children's.

    A generator span (``broadcast.air_cycle``) stores its busy time as
    ``extra``; that is its self time.
    """
    children: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += duration(span)
    result = {}
    for span in spans:
        if span[NAME] == "broadcast.air_cycle":
            result[span[ID]] = int(span[EXTRA] or 0)
        else:
            result[span[ID]] = max(0, duration(span) - children.get(span[ID], 0))
    return result


def layer_self_ms(spans: Sequence[list]) -> Dict[str, float]:
    """Layer → summed self time in ms (layer = the name's first part)."""
    own = self_ns(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[span[ID]] / 1e6
    return totals


def coverage(spans: Sequence[list]) -> float:
    """Share of client fetch wall time covered by the fetch's direct children."""
    fetches = {s[ID]: s for s in spans if s[NAME] == "net.client.fetch"}
    covered = 0
    for span in spans:
        if span[PARENT] in fetches:
            covered += duration(span)
    total = sum(duration(s) for s in fetches.values())
    return covered / total if total else 0.0


def _ms(spans: Iterable[list]) -> float:
    return sum(duration(s) for s in spans) / 1e6


def _mean_ms(spans: Sequence[list]) -> float:
    return _ms(spans) / len(spans) if spans else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def channel_check(
    outcomes: Sequence[Outcome], proxy_delta: Mapping[str, float], model_alpha: float
) -> Dict[str, float]:
    """Whether the window saw the channel the workload claims.

    The realised corruption rate should sit near the model's stationary
    α, and the frames the client read per decoded fetch near the
    paper's §4.1 negative-binomial expectation for the fetch's M.
    """
    decisions = proxy_delta.get("frames_forwarded", 0) + proxy_delta.get("dropped", 0)
    # The oracle sets M on every decoded outcome.
    decoded = [o for o in outcomes if o.status == "decoded" and o.m > 0]
    return {
        "channel.realised_alpha": _ratio(proxy_delta.get("corrupted", 0), decisions),
        "channel.model_alpha": model_alpha,
        "channel.frames_per_decode": _ratio(sum(o.frames for o in decoded), len(decoded)),
        "channel.negbinom_frames_per_decode": _ratio(
            sum(expectation(o.m, model_alpha) for o in decoded), len(decoded)
        ),
    }


def per_layer(
    *,
    client_spans: Sequence[list],
    server_spans: Sequence[list],
    proxy_spans: Sequence[list],
    outcomes: Sequence[Outcome],
    server_delta: Mapping[str, float],
    prep_delta: Mapping[str, float],
    broadcast_delta: Mapping[str, float],
    proxy_delta: Mapping[str, float],
    sendq_high_water_bytes: int,
    server_cpu_s: float,
    unhandled: int,
    model_alpha: float,
) -> Dict[str, float]:
    """The per-layer metrics of a traced run.

    Client spans cover the traced fetches only (every other fetch of a
    traced run is untraced); client figures are per traced fetch.
    Server and proxy spans cover every fetch in the window.
    """
    attempted = len(outcomes)
    traced = [o for o in outcomes if o.traced]
    untraced = [o for o in outcomes if not o.traced]
    per_traced = max(1, len(traced))

    def named(spans, *names):
        return [s for s in spans if s[NAME] in names]

    by_id = {s[ID]: s for s in client_spans}
    frame_checks = named(client_spans, "coding.frame_check")
    engine_frames = named(
        client_spans,
        "protocol.on_frame_intact",
        "protocol.on_frame_corrupt",
        "protocol.on_frame_lost",
    )
    useful = sum(
        s[EXTRA] or 0
        for s in named(client_spans, "protocol.on_frame_intact", "broadcast.on_frame")
        if isinstance(s[EXTRA], int)
    )
    frames_read = sum(o.frames for o in traced)
    decodes = named(client_spans, "coding.decode")
    decode_ids = {s[ID] for s in decodes}
    matrix_decodes = {
        s[PARENT] for s in named(client_spans, "coding.matmul") if s[PARENT] in decode_ids
    }
    setups = named(client_spans, "coding.codec_setup") + named(server_spans, "coding.codec_setup")
    matmuls = named(client_spans, "coding.matmul") + named(server_spans, "coding.matmul")
    prepares = named(server_spans, "prep.prepare")
    cooks = named(server_spans, "coding.cook")
    cooked_parents = {s[PARENT] for s in cooks}
    served = [s for s in prepares if not isinstance(s[EXTRA], dict)]
    hits = [s for s in served if s[ID] not in cooked_parents]
    misses = [s for s in served if s[ID] in cooked_parents]
    pipelines = named(server_spans, "core.sc_pipeline")
    air_indexes = named(client_spans, "broadcast.on_air_index")
    tune_ins = [
        (s[END] - by_id[s[PARENT]][START]) / 1e6
        for s in air_indexes
        if s[EXTRA] == 1 and s[PARENT] in by_id
    ]
    non_net_server = [
        s for s in server_spans
        if s[PARENT] is None and not s[NAME].startswith("net.")
    ]
    server_other_s = sum(
        (s[EXTRA] or 0) if s[NAME] == "broadcast.air_cycle" else duration(s)
        for s in non_net_server
    ) / 1e9
    client_layers = layer_self_ms(client_spans)
    server_layers = layer_self_ms(list(server_spans) + list(proxy_spans))
    cooked_lookups = prep_delta.get("cooked_hits", 0) + prep_delta.get("cooked_misses", 0)
    sc_lookups = prep_delta.get("sc_hits", 0) + prep_delta.get("sc_misses", 0)
    traced_p50 = percentile([o.elapsed for o in traced], 50) if traced else 0.0
    untraced_p50 = percentile([o.elapsed for o in untraced], 50) if untraced else 0.0

    metrics = {
        "net.client.read_wait_ms_per_fetch": _ms(
            named(client_spans, "net.client.read_message", "net.client.read_expected")
        ) / per_traced,
        "net.client.dials_per_fetch": _ratio(
            sum(o.reconnects + 1 for o in outcomes), attempted
        ),
        "net.client.useless_frame_ratio": _ratio(max(0, frames_read - useful), frames_read),
        "net.server.frames_sent_per_fetch": _ratio(server_delta.get("frames_sent", 0), attempted),
        "net.server.batches_per_fetch": _ratio(server_delta.get("batches_sent", 0), attempted),
        "net.server.sendq_high_water_bytes": sendq_high_water_bytes,
        "net.server.cpu_self_ms_per_fetch": 1000.0
        * max(0.0, server_cpu_s - server_other_s)
        / max(1, attempted),
        "net.server.errors": server_delta.get("errors", 0),
        "net.server.timeouts": server_delta.get("timeouts", 0),
        "net.server.unhandled_exceptions": unhandled,
        "prep.prepare_ms_hit": _mean_ms(hits),
        "prep.prepare_ms_miss": _mean_ms(misses),
        "prep.cooked_hit_ratio": _ratio(prep_delta.get("cooked_hits", 0), cooked_lookups),
        "prep.sc_hit_ratio": _ratio(prep_delta.get("sc_hits", 0), sc_lookups),
        "prep.failed_prepares": len(prepares) - len(served),
        "prep.reconstruct_ms_per_fetch": _ms(named(client_spans, "prep.reconstruct")) / per_traced,
        "core.sc_pipeline_ms_per_miss": _mean_ms(pipelines),
        "coding.frame_check_ms_per_fetch": _ms(frame_checks) / per_traced,
        "coding.frame_check_mb_s": _ratio(
            sum(s[EXTRA][0] for s in frame_checks if isinstance(s[EXTRA], list)) / MIB,
            _ms(frame_checks) / 1000.0,
        ),
        "coding.frames_corrupt_per_fetch": sum(
            1 for s in frame_checks if isinstance(s[EXTRA], list) and s[EXTRA][1] == 0
        ) / per_traced,
        "coding.codec_setup_ms": _mean_ms(setups),
        "coding.codec_setups": len(setups),
        "coding.cook_ms_per_miss": _mean_ms(cooks),
        "coding.encode_ms": _mean_ms(named(server_spans, "coding.encode")),
        "coding.decode_ms_per_fetch": _ms(decodes) / per_traced,
        "coding.matrix_decode_share": _ratio(len(matrix_decodes), len(decodes)),
        "coding.inverse_ms_per_fetch": _ms(
            s for s in named(client_spans, "coding.inverse") if s[PARENT] in decode_ids
        ) / per_traced,
        "coding.matmul_mb_s": _ratio(
            sum(s[EXTRA] or 0 for s in matmuls) / MIB, _ms(matmuls) / 1000.0
        ),
        "protocol.rounds_per_fetch": _ratio(sum(o.rounds for o in outcomes), attempted),
        "protocol.stalled_rounds_per_fetch": len(
            named(client_spans, "protocol.on_round_ended")
        ) / per_traced,
        "protocol.early_stop_share": _ratio(
            sum(1 for o in outcomes if o.status == "early_stop"), attempted
        ),
        "protocol.engine_us_per_frame": _ratio(_ms(engine_frames) * 1000.0, len(engine_frames)),
        "channel.corrupted_per_fetch": _ratio(proxy_delta.get("corrupted", 0), attempted),
        "channel.dropped_per_fetch": _ratio(proxy_delta.get("dropped", 0), attempted),
        "channel.disconnects": proxy_delta.get("disconnects", 0),
        **channel_check(outcomes, proxy_delta, model_alpha),
        "broadcast.tune_in_ms": _ratio(sum(tune_ins), len(tune_ins)),
        "broadcast.cycles_per_decode": len(air_indexes) / per_traced,
        "broadcast.slots_dropped_per_fetch": _ratio(
            broadcast_delta.get("slots_dropped", 0), attempted
        ),
        "broadcast.air_cycle_ms": _mean_ms(named(server_spans, "broadcast.air_cycle")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_fetch"] = (
            client_layers.get(layer, 0.0) / per_traced
            + server_layers.get(layer, 0.0) / max(1, attempted)
        )
    metrics["trace.overhead_p50_ms"] = 1000.0 * (traced_p50 - untraced_p50)
    metrics["trace.client_coverage"] = coverage(client_spans)
    return metrics


PER_LAYER_UNITS = {
    "net.client.read_wait_ms_per_fetch": "ms",
    "net.client.dials_per_fetch": "count",
    "net.client.useless_frame_ratio": "ratio",
    "net.server.frames_sent_per_fetch": "count",
    "net.server.batches_per_fetch": "count",
    "net.server.sendq_high_water_bytes": "bytes",
    "net.server.cpu_self_ms_per_fetch": "ms",
    "net.server.errors": "count",
    "net.server.timeouts": "count",
    "net.server.unhandled_exceptions": "count",
    "prep.prepare_ms_hit": "ms",
    "prep.prepare_ms_miss": "ms",
    "prep.cooked_hit_ratio": "ratio",
    "prep.sc_hit_ratio": "ratio",
    "prep.failed_prepares": "count",
    "prep.reconstruct_ms_per_fetch": "ms",
    "core.sc_pipeline_ms_per_miss": "ms",
    "coding.frame_check_ms_per_fetch": "ms",
    "coding.frame_check_mb_s": "MiB/s",
    "coding.frames_corrupt_per_fetch": "count",
    "coding.codec_setup_ms": "ms",
    "coding.codec_setups": "count",
    "coding.cook_ms_per_miss": "ms",
    "coding.encode_ms": "ms",
    "coding.decode_ms_per_fetch": "ms",
    "coding.matrix_decode_share": "ratio",
    "coding.inverse_ms_per_fetch": "ms",
    "coding.matmul_mb_s": "MiB/s",
    "protocol.rounds_per_fetch": "count",
    "protocol.stalled_rounds_per_fetch": "count",
    "protocol.early_stop_share": "ratio",
    "protocol.engine_us_per_frame": "us",
    "channel.corrupted_per_fetch": "count",
    "channel.dropped_per_fetch": "count",
    "channel.disconnects": "count",
    "channel.realised_alpha": "ratio",
    "channel.model_alpha": "ratio",
    "channel.frames_per_decode": "count",
    "channel.negbinom_frames_per_decode": "count",
    "broadcast.tune_in_ms": "ms",
    "broadcast.cycles_per_decode": "count",
    "broadcast.slots_dropped_per_fetch": "count",
    "broadcast.air_cycle_ms": "ms",
    **{f"{layer}.self_ms_per_fetch": "ms" for layer in LAYERS},
    "trace.overhead_p50_ms": "ms",
    "trace.client_coverage": "ratio",
}
