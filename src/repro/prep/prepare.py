"""Document preparation: schedule → cooked packets + content profile.

Home of :class:`PreparedDocument` and :class:`DocumentSender`: every
layer that cooks content — the simulated byte driver, the socket
server, the prototype broker — imports them from here.  The
:class:`~repro.prep.service.PreparationService` builds on this module to make preparation lazy, shared, and metered.

The sender combines the multi-resolution schedule (§3/§4.2) with the
packetizer (§4.1): the scheduled byte stream is split into M raw
packets, cooked into N ≥ M packets, and framed for the wire.  It also
derives the *content profile* — how much information content each
clear-text packet carries — which drives the client's early
termination decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.coding.packets import CookedDocument, Packetizer
from repro.obs.runtime import OBS
from repro.obs.timing import timed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core → transport → prep)
    from repro.core.multires import ScheduledSegment, TransmissionSchedule

#: Wire-envelope constants for MSG_FRAME messages, duplicated from
#: :mod:`repro.net.wire` because the layering DAG forbids prep → net.
#: tests/test_net_wire.py asserts byte parity between the two, so a
#: drift in either is caught immediately.
_FRAME_MSG_TYPE = 0x03
_ENVELOPE_OVERHEAD = 5  # 4-byte length prefix + 1-byte message type


def _build_envelopes(frames: Sequence[bytes]) -> List[memoryview]:
    """Prebuilt MSG_FRAME wire envelopes, packed into one arena.

    Each frame's complete wire image — length prefix, message type,
    frame bytes — is laid down back-to-back in a single contiguous
    buffer; the returned memoryviews slice it per frame.  A cache hit
    then serves with zero serialization work: the server hands these
    slices straight to the socket (or coalesces several into one
    write) without touching the payload bytes again.
    """
    arena = bytearray(
        sum(len(frame) for frame in frames) + _ENVELOPE_OVERHEAD * len(frames)
    )
    views: List[memoryview] = []
    window = memoryview(arena)
    offset = 0
    for frame in frames:
        total = _ENVELOPE_OVERHEAD + len(frame)
        window[offset : offset + 4] = (len(frame) + 1).to_bytes(4, "big")
        window[offset + 4] = _FRAME_MSG_TYPE
        window[offset + 5 : offset + total] = frame
        views.append(window[offset : offset + total])
        offset += total
    return views


class PreparedDocument:
    """A document ready for fault-tolerant multi-resolution transfer.

    Besides the cooked packets and content profile, a prepared
    document may carry scheduling metadata — the ranking ``measure``
    and the ordered ``segments`` — so manifest builders (the prototype
    transmitter, the net server) need not re-derive the schedule.
    """

    def __init__(
        self,
        document_id: str,
        cooked: CookedDocument,
        content_profile: List[float],
        *,
        measure: str = "",
        segments: Optional[Sequence["ScheduledSegment"]] = None,
    ) -> None:
        self.document_id = document_id
        self.cooked = cooked
        #: content carried by clear-text packet i (length M, sums to
        #: the document's total content, 1.0 for a complete measure).
        self.content_profile = content_profile
        #: content measure that ranked the schedule ("" when unscheduled).
        self.measure = measure
        #: scheduled segments in transmission order (None when cooked
        #: from raw bytes without a schedule).
        self.segments: Optional[List["ScheduledSegment"]] = (
            list(segments) if segments is not None else None
        )

    @property
    def m(self) -> int:
        return self.cooked.m

    @property
    def n(self) -> int:
        return self.cooked.n

    @property
    def cooked_bytes(self) -> int:
        """Total cooked payload bytes (the cache-budget weight)."""
        return sum(len(packet) for packet in self.cooked.cooked)

    @property
    def wire_bytes(self) -> int:
        """Bytes held by the precomputed wire envelopes."""
        return sum(len(view) for view in self.wire_frames())

    def frames(self) -> List[bytes]:
        return self.cooked.frames()

    def wire_frames(self) -> List[memoryview]:
        """Ready-to-send MSG_FRAME envelopes, one per cooked packet.

        Built once per cooked document and cached **on the
        CookedDocument** (not on this wrapper): the preparation
        service aliases one cooked set under many request-scoped
        PreparedDocument identities, and all of them must share the
        same envelope arena.  Callers treat the views as immutable.
        """
        envelopes = getattr(self.cooked, "_wire_envelopes", None)
        if envelopes is None:
            envelopes = _build_envelopes(self.cooked.frames())
            self.cooked._wire_envelopes = envelopes
        return envelopes


class DocumentSender:
    """Prepares documents for transmission over the wireless channel.

    Parameters
    ----------
    packetizer:
        Controls packet size, redundancy ratio γ, and codec choice.
    backend:
        GF(2^8) kernel used for cooking when no *packetizer* is
        supplied (name, instance, or None for the environment
        default; see :mod:`repro.coding.backend`).
    """

    def __init__(
        self,
        packetizer: Optional[Packetizer] = None,
        backend: Optional[object] = None,
    ) -> None:
        if packetizer is None:
            packetizer = Packetizer(backend=backend)
        self.packetizer = packetizer

    def prepare(
        self, document_id: str, schedule: "TransmissionSchedule"
    ) -> PreparedDocument:
        """Cook a scheduled document and compute its content profile."""
        payload = schedule.payload()
        if not payload:
            raise ValueError(f"document {document_id!r} has an empty payload")
        with timed("sender.prepare"):
            cooked = self.packetizer.cook(payload)
            profile = self._content_profile(schedule, cooked.m)
        if OBS.enabled:
            self._record_prepared(cooked)
        return PreparedDocument(
            document_id,
            cooked,
            profile,
            measure=getattr(schedule, "measure", ""),
            segments=schedule.segments(),
        )

    def prepare_raw(self, document_id: str, payload: bytes) -> PreparedDocument:
        """Cook an unscheduled byte blob (conventional transmission).

        The content profile is uniform: every clear packet carries an
        equal share, which is the information-free assumption for a
        document without an SC.
        """
        if not payload:
            raise ValueError(f"document {document_id!r} has an empty payload")
        with timed("sender.prepare"):
            cooked = self.packetizer.cook(payload)
        profile = [1.0 / cooked.m] * cooked.m
        if OBS.enabled:
            self._record_prepared(cooked)
        return PreparedDocument(document_id, cooked, profile)

    @staticmethod
    def _record_prepared(cooked: CookedDocument) -> None:
        OBS.metrics.counter("sender.documents_prepared").labels(
            backend=cooked.codec.backend.name
        ).inc()
        OBS.metrics.counter("sender.cooked_packets").inc(cooked.n)
        OBS.metrics.counter("sender.raw_packets").inc(cooked.m)

    def _content_profile(
        self, schedule: "TransmissionSchedule", m: int
    ) -> List[float]:
        size = self.packetizer.packet_size
        profile: List[float] = []
        previous = 0.0
        for index in range(m):
            cumulative = schedule.content_prefix((index + 1) * size)
            profile.append(cumulative - previous)
            previous = cumulative
        return profile
