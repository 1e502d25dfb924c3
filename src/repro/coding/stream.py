"""Incremental erasure decoding.

The batch decoder in :mod:`repro.coding.rs` inverts an M×M matrix when
the M-th intact packet arrives — a latency spike right at the moment
the user wants the document rendered.  The incremental decoder below
spreads that work across packet arrivals: each cooked packet's
generator row is eliminated against the rows already held (one O(M²)
step), so by the time the M-th useful packet arrives the system is
already upper-triangular and only the O(M²) back-substitution remains.

It also answers a question the round-based protocol needs *before*
reconstruction: whether a newly arrived packet is *useful* (linearly
independent of what is already held) — with a systematic code every
fresh packet is, but the API verifies rather than assumes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.gf256 import gf_inv, gf_mul_bytes, gf_mul_xor_bytes
from repro.coding.rs import CodecError, _VandermondeCodec


class IncrementalDecoder:
    """Online Gauss elimination over arriving cooked packets.

    Parameters
    ----------
    codec:
        The (systematic or Rabin) codec the packets were encoded with.

    Usage::

        decoder = IncrementalDecoder(codec)
        for seq, payload in arrivals:
            decoder.add(seq, payload)
            if decoder.complete:
                raw = decoder.solve()
                break
    """

    def __init__(self, codec: _VandermondeCodec) -> None:
        self.codec = codec
        self._backend = codec.backend
        self._m = codec.m
        # One slot per pivot column: (reduced_row, reduced_payload).
        self._pivot_rows: List[Optional[bytes]] = [None] * self._m
        self._pivot_payloads: List[Optional[bytes]] = [None] * self._m
        self._rank = 0
        self._seen: set = set()
        self._payload_size: Optional[int] = None

    @property
    def rank(self) -> int:
        """Number of linearly independent packets absorbed so far."""
        return self._rank

    @property
    def complete(self) -> bool:
        return self._rank >= self._m

    @property
    def needed(self) -> int:
        """How many more independent packets are required."""
        return self._m - self._rank

    def add(self, sequence: int, payload: bytes) -> bool:
        """Absorb one intact cooked packet.

        Returns True when the packet was *useful* (raised the rank);
        duplicates and linearly dependent packets return False.
        Payload sizes must be consistent.
        """
        if not 0 <= sequence < self.codec.n:
            raise CodecError(
                f"sequence {sequence} out of range 0..{self.codec.n - 1}"
            )
        if sequence in self._seen:
            return False
        if self._payload_size is None:
            self._payload_size = len(payload)
        elif len(payload) != self._payload_size:
            raise CodecError(
                f"payload size {len(payload)} != {self._payload_size}"
            )
        self._seen.add(sequence)
        if self.complete:
            return False

        row = self.codec.generator_row(sequence)
        # No defensive copy: backends accept any bytes-like payload
        # (memoryviews included), and the first transformation below
        # already produces fresh bytes, so the arriving buffer is
        # never aliased past this call.
        data = payload
        # Eliminate against existing pivots.
        for column in range(self._m):
            factor = row[column]
            if factor == 0:
                continue
            pivot = self._pivot_rows[column]
            if pivot is None:
                # New pivot: normalize so row[column] == 1.
                inverse = gf_inv(factor)
                self._pivot_rows[column] = gf_mul_bytes(inverse, row)
                data = self._backend.scale(inverse, data)
                self._pivot_payloads[column] = (
                    data if isinstance(data, bytes) else bytes(data)
                )
                self._rank += 1
                return True
            row = gf_mul_xor_bytes(row, factor, pivot)
            data = self._backend.mul_xor(
                data, factor, self._pivot_payloads[column]
            )
        # Row reduced to zero: linearly dependent.
        return False

    def solve(self) -> List[bytes]:
        """Back-substitute and return the M raw packets.

        Raises :class:`CodecError` before rank M is reached.
        """
        if not self.complete:
            raise CodecError(
                f"cannot solve: rank {self._rank} < {self._m} required"
            )
        size = self._payload_size or 0
        # Rows are unit-diagonal upper-triangular up to permutation;
        # eliminate the above-diagonal coefficients column by column,
        # from the last pivot back to the first.
        rows: List[bytes] = list(self._pivot_rows)  # type: ignore[arg-type]
        payloads = [bytes(p) for p in self._pivot_payloads]  # type: ignore[arg-type]
        for column in range(self._m - 1, -1, -1):
            for upper in range(column):
                factor = rows[upper][column]
                if factor:
                    rows[upper] = gf_mul_xor_bytes(rows[upper], factor, rows[column])
                    payloads[upper] = self._backend.mul_xor(
                        payloads[upper], factor, payloads[column]
                    )
        return payloads

    def solve_document(self, original_size: int) -> bytes:
        """Convenience: concatenate the raw packets and trim padding."""
        return b"".join(self.solve())[:original_size]
