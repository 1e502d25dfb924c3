"""Packet framing: sequence numbers + CRC over a fixed-size payload.

The paper's transmission unit is a *data packet* of ``s_p`` payload
bytes plus ``O`` = 4 bytes of overhead — a sequence number and a CRC
(§4.1, Table 2).  "Data packets are received either intact (without
error) or corrupted (with detectable error)"; a missing packet is
detected from the sequence numbers since the channel is FIFO.

Frame layout (big-endian):

    +--------+-----------------+--------+
    | seq:2  | payload: s_p    | crc:2  |
    +--------+-----------------+--------+

The 2-byte CRC-16-CCITT covers the sequence number and the payload.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.coding.crc import crc16
from repro.coding.rs import RabinDispersal, SystematicRSCodec
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.util.bitops import chunk_bytes, pad_to_multiple
from repro.util.validation import check_positive_int, check_range

#: Frame overhead in bytes: 2 (sequence number) + 2 (CRC-16).
FRAME_OVERHEAD = 4

MAX_SEQUENCE = 0xFFFF


class Frame(NamedTuple):
    """A decoded frame: its sequence number, payload, and validity."""

    sequence: int
    payload: bytes
    intact: bool


def encode_frame(sequence: int, payload: bytes) -> bytes:
    """Serialize a frame to wire bytes."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence {sequence} out of range 0..{MAX_SEQUENCE}")
    header = sequence.to_bytes(2, "big")
    checksum = crc16(header + payload)
    return header + payload + checksum.to_bytes(2, "big")


def decode_frame(wire: bytes) -> Frame:
    """Parse wire bytes into a :class:`Frame`, flagging CRC failures.

    Frames shorter than the overhead are reported as corrupted with
    sequence −1 (the receiver cannot even trust the header).
    """
    if len(wire) < FRAME_OVERHEAD:
        if OBS.enabled:
            OBS.metrics.counter("frames.decoded").labels(intact="false").inc()
        return Frame(sequence=-1, payload=b"", intact=False)
    sequence = int.from_bytes(wire[:2], "big")
    payload = wire[2:-2]
    expected = int.from_bytes(wire[-2:], "big")
    intact = crc16(wire[:-2]) == expected
    if OBS.enabled:
        OBS.metrics.counter("frames.decoded", "frames parsed off the wire").labels(
            intact="true" if intact else "false"
        ).inc()
    return Frame(sequence=sequence, payload=payload, intact=intact)


class Packetizer:
    """Splits a document into raw packets and cooks them for transmission.

    Parameters
    ----------
    packet_size:
        Raw payload bytes per packet (``s_p``, 256 by default).
    redundancy_ratio:
        γ = N/M; the number of cooked packets is ``ceil(γ·M)`` clamped
        to the GF(2^8) limit.
    systematic:
        True (default) for the paper's clear-text-prefix code; False
        for Rabin's original dispersal.
    backend:
        GF(2^8) kernel selection passed through to the codec — a
        name, a backend instance, or None for the environment default
        (see :mod:`repro.coding.backend`).
    """

    def __init__(
        self,
        packet_size: int = 256,
        redundancy_ratio: float = 1.5,
        systematic: bool = True,
        backend: Optional[object] = None,
    ) -> None:
        check_positive_int(packet_size, "packet_size")
        check_range(redundancy_ratio, 1.0, 255.0, "redundancy_ratio")
        self.packet_size = packet_size
        self.redundancy_ratio = redundancy_ratio
        self.systematic = systematic
        self.backend = backend

    def raw_packet_count(self, document_size: int) -> int:
        """M = ceil(s_D / s_p)."""
        if document_size <= 0:
            raise ValueError("document_size must be positive")
        return -(-document_size // self.packet_size)

    def cooked_packet_count(self, m: int) -> int:
        """N = ceil(γ·M), clamped to 255."""
        n = math.ceil(self.redundancy_ratio * m - 1e-9)
        return min(max(n, m), 255)

    def split(self, document: bytes) -> List[bytes]:
        """Split and pad *document* into M equal raw packets."""
        padded = pad_to_multiple(document, self.packet_size)
        return chunk_bytes(padded, self.packet_size)

    def cook(self, document: bytes) -> "CookedDocument":
        """Produce the full cooked-packet set for *document*."""
        with timed("packetizer.cook"):
            raw = self.split(document)
            m = len(raw)
            n = self.cooked_packet_count(m)
            codec_cls = SystematicRSCodec if self.systematic else RabinDispersal
            codec = codec_cls(m, n, backend=self.backend)
            cooked = codec.encode(raw)
        if OBS.enabled:
            OBS.metrics.counter("packetizer.documents_cooked").inc()
            OBS.metrics.counter("packetizer.bytes_cooked").inc(len(document))
        return CookedDocument(
            original_size=len(document),
            packet_size=self.packet_size,
            codec=codec,
            cooked=cooked,
        )


class CookedDocument:
    """The cooked packets of one document plus reassembly support."""

    def __init__(
        self,
        original_size: int,
        packet_size: int,
        codec,
        cooked: Sequence[bytes],
    ) -> None:
        self.original_size = original_size
        self.packet_size = packet_size
        self.codec = codec
        self.cooked: List[bytes] = list(cooked)
        self._frames: Optional[List[bytes]] = None

    @property
    def m(self) -> int:
        return self.codec.m

    @property
    def n(self) -> int:
        return self.codec.n

    def frames(self) -> List[bytes]:
        """All cooked packets framed for the wire, in sequence order.

        Framing (header + CRC) is deterministic per cooked set, so the
        frames are built once and the cached list is returned on every
        later call — a served document re-frames nothing, on any round
        or any connection.  Callers must not mutate the result.
        """
        if self._frames is None:
            self._frames = [
                encode_frame(seq, payload)
                for seq, payload in enumerate(self.cooked)
            ]
        return self._frames

    def reassemble(self, received: Dict[int, bytes]) -> bytes:
        """Reconstruct the document from ≥ M intact cooked payloads.

        Decodes through the codec's buffer-reuse path: the raw packets
        land contiguously in one arena, so the document is a single
        slice off the front rather than a ``b"".join`` over M packet
        objects.
        """
        sizes = {len(payload) for payload in received.values()}
        if len(sizes) == 1:
            arena = bytearray(self.m * sizes.pop())
            written = self.codec.decode_into(received, arena)
            return bytes(memoryview(arena)[: min(written, self.original_size)])
        raw = self.codec.decode(received)
        return b"".join(raw)[: self.original_size]

    def clear_prefix(self, received: Dict[int, bytes]) -> bytes:
        """Usable clear-text prefix before full reconstruction.

        With the systematic code, cooked packet *i* < M is raw packet
        *i*; the longest run of consecutively received clear packets
        starting at 0 is immediately renderable (§4.1: "it allows a
        portion of the original information to be used once they are
        available").
        """
        if not getattr(self.codec, "systematic", False):
            return b""
        parts: List[bytes] = []
        for index in range(self.m):
            payload = received.get(index)
            if payload is None:
                break
            parts.append(payload)
        prefix = b"".join(parts)
        return prefix[: self.original_size]
