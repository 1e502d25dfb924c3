"""repro — fault-tolerant multi-resolution transmission for
weakly-connected mobile web browsing.

A complete reproduction of *"On Supporting Weakly-Connected Browsing
in a Mobile Web Environment"* (Leong, McLeod, Si, Yau; ICDCS 2000),
including every substrate the paper depends on:

* :mod:`repro.core` — organizational units, the structural
  characteristic pipeline, the IC/QIC/MQIC content measures, and
  LOD-ordered transmission scheduling (the paper's contribution);
* :mod:`repro.coding` — GF(2^8) erasure coding (Rabin dispersal and
  its systematic Vandermonde form), CRC, and packet framing;
* :mod:`repro.analysis` — the negative binomial packet model, the
  minimal-N planner, and EWMA-adaptive redundancy;
* :mod:`repro.protocol` — the sans-IO §4.2 transfer engine: one pure
  state machine (rounds, termination, stalls, cache policy) driven by
  the transport, simulation, and prototype layers;
* :mod:`repro.transport` — the lossy wireless channel, the
  round-based transfer protocol with Caching/NoCaching, ARQ and
  compression baselines, and content-driven prefetching;
* :mod:`repro.xmlkit` / :mod:`repro.htmlkit` — from-scratch XML and
  HTML parsing plus research-paper structure extraction;
* :mod:`repro.text` — tokenization, Porter stemming, stop-word
  filtering, keyword extraction, occurrence vectors;
* :mod:`repro.search` — the inverted-index search engine that drives
  query-based content measures;
* :mod:`repro.simulation` — the §5 evaluation: Table 2 parameters,
  synthetic workloads, and Experiments #1–#4;
* :mod:`repro.prototype` — the Figure 1 browser/server prototype;
* :mod:`repro.figures` — one entry point per paper table and figure.

* :mod:`repro.prep` — the on-demand preparation service: a two-tier
  (SC + cooked) byte-budgeted cache in front of the whole
  parse → pipeline → annotate → schedule → encode chain.

Quickstart — the one-shot facade::

    import repro

    prepared = repro.prepare("paper.xml", query="mobile web", lod="section")
    result = repro.transfer("paper.xml", query="mobile web")

or the underlying pieces::

    from repro import build_sc, annotate_sc, Query, TransmissionSchedule, LOD
    from repro.xmlkit import parse_xml

    sc = build_sc(parse_xml(xml_source))
    annotate_sc(sc, query=Query("mobile web browsing"))
    schedule = TransmissionSchedule(sc, lod=LOD.PARAGRAPH, measure="qic")
"""

from repro.core import (
    LOD,
    ModifiedQueryIC,
    OrganizationalUnit,
    Query,
    QueryIC,
    SCPipeline,
    StaticIC,
    StructuralCharacteristic,
    TransmissionSchedule,
    annotate_sc,
    best_first_schedule,
    build_sc,
    conventional_schedule,
)
from repro.coding import Packetizer, RabinDispersal, SystematicRSCodec
from repro.protocol import DEFAULT_MAX_ROUNDS, DEFAULT_ROUND_TIMEOUT, TransferEngine
from repro.analysis import (
    AdaptiveRedundancyController,
    minimal_cooked_packets,
    redundancy_ratio,
)
from repro.transport import (
    NullCache,
    PacketCache,
    TransferResult,
    WirelessChannel,
    transfer_document,
)
from repro.prep import (
    DocumentSender,
    PreparationService,
    PrepRequest,
    TransferSettings,
    default_service,
    prepare,
)
from repro.simulation import Parameters, simulate_session, table2_defaults

__version__ = "1.0.0"


def transfer(document, *, channel=None, settings=None, request=None,
             html=False, service=None, cache=None, **request_fields):
    """One-shot: prepare *document* and run the §4.2 protocol over a channel.

    *document* is anything :func:`repro.prepare` accepts (a path or
    markup string); preparation parameters come from *request* (a
    :class:`PrepRequest`) or loose ``**request_fields`` such as
    ``query=...``/``lod=...``.  Protocol knobs come from *settings*
    (a :class:`TransferSettings`).  When *channel* is omitted a
    default Table 2 :class:`WirelessChannel` is used.  Returns the
    :class:`TransferResult`.
    """
    prepared = prepare(
        document, request=request, html=html, service=service, **request_fields
    )
    if channel is None:
        channel = WirelessChannel()
    if settings is None:
        settings = TransferSettings()
    return transfer_document(prepared, channel, cache=cache, settings=settings)

__all__ = [
    "__version__",
    # core
    "LOD",
    "OrganizationalUnit",
    "StructuralCharacteristic",
    "Query",
    "StaticIC",
    "QueryIC",
    "ModifiedQueryIC",
    "annotate_sc",
    "SCPipeline",
    "build_sc",
    "TransmissionSchedule",
    "best_first_schedule",
    "conventional_schedule",
    # coding
    "SystematicRSCodec",
    "RabinDispersal",
    "Packetizer",
    # analysis
    "minimal_cooked_packets",
    "redundancy_ratio",
    "AdaptiveRedundancyController",
    # protocol
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_ROUND_TIMEOUT",
    "TransferEngine",
    # transport
    "WirelessChannel",
    "PacketCache",
    "NullCache",
    "DocumentSender",
    "transfer_document",
    "TransferResult",
    # prep (the request-facing facade)
    "PreparationService",
    "PrepRequest",
    "TransferSettings",
    "default_service",
    "prepare",
    "transfer",
    # simulation
    "Parameters",
    "table2_defaults",
    "simulate_session",
]
