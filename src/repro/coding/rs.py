"""Erasure coding: Rabin dispersal and its systematic Vandermonde form.

The paper (§4.1) adopts the information-dispersal construction of
Rabin [18]: a file of M raw packets is transformed into N ≥ M *cooked*
packets such that **any** M intact cooked packets reconstruct the
original.  Two variants are provided:

``RabinDispersal``
    The original construction — the generator is a plain Vandermonde
    matrix, so no cooked packet reveals a raw packet in clear text
    (collecting M−1 cooked packets is "completely useless").

``SystematicRSCodec``
    The paper's "slight modification": elementary matrix operations
    turn the upper M×M block of the Vandermonde matrix into an
    identity, so the first M cooked packets equal the raw packets in
    clear text.  Clear-text packets are usable immediately on arrival
    (the property the multi-resolution early-termination logic and the
    Caching strategy both exploit), while the remaining N−M packets
    provide the redundancy.

Both codecs guarantee the *any-M-of-N* reconstruction property, which
is verified by construction (every M-row submatrix of a Vandermonde
matrix with distinct nonzero evaluation points is invertible, and
right-multiplying by a fixed invertible matrix preserves that).

Generators are built once per code length M, not per (M, N): the
generator for N cooked packets is the first N rows of the one for
255, because every row of ``V · V_top⁻¹`` depends only on its own
evaluation point.  Each full generator is built lazily — a
systematic decode whose rows are all clear text never needs it —
and cached process-wide as 255·M bytes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.coding.backend import CodingBackend, get_backend
from repro.coding.matrix import GFMatrix
from repro.obs.runtime import OBS
from repro.obs.timing import timed
from repro.util.validation import check_positive_int

MAX_COOKED = 255  # GF(2^8) admits at most 255 distinct nonzero points

#: Upper bound on cached decode matrices per codec.  Long sweeps with
#: churning loss patterns would otherwise grow the cache without
#: limit (each M×M inverse at M=40 is ~1600 ints).
DECODE_CACHE_MAX = 256

#: Upper bound on cached full generators per process: one per
#: (M, systematic), each 255·M bytes (≤ 64 KiB).
GENERATOR_CACHE_MAX = 64


class CodecError(Exception):
    """Raised on invalid codec configuration or failed reconstruction."""


class _LRUCache:
    """Thread-safe LRU map with a fixed capacity."""

    def __init__(self, capacity: int) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries


_GENERATORS = _LRUCache(GENERATOR_CACHE_MAX)


def _build_generator(m: int, systematic: bool, backend: CodingBackend) -> bytes:
    """G(m, 255) row-major: 255·m bytes, row *i* at ``[i·m, (i+1)·m)``.

    Rabin's generator is the Vandermonde matrix V(255, m) itself.  The
    systematic one is ``V · V_top⁻¹`` (V_top: the top m×m block), whose
    first m rows are the identity; the other 255−m rows come from one
    backend ``matmul`` with the inverse's rows as m-byte packets.
    """
    vandermonde = GFMatrix.vandermonde(MAX_COOKED, m).rows()
    if not systematic:
        return b"".join(bytes(row) for row in vandermonde)
    inverse = GFMatrix._trusted(vandermonde[:m]).inverse().rows()
    identity = bytearray(m * m)
    identity[:: m + 1] = b"\x01" * m
    redundancy = backend.matmul(vandermonde[m:], [bytes(row) for row in inverse], m)
    return bytes(identity) + b"".join(redundancy)


def _full_generator(m: int, systematic: bool, backend: CodingBackend) -> bytes:
    """The cached G(m, 255); G(m, n) is its first n rows for every n."""
    key = (m, systematic)
    generator = _GENERATORS.get(key)
    if generator is None:
        generator = _build_generator(m, systematic, backend)
        _GENERATORS.put(key, generator)
    return generator


class _VandermondeCodec:
    """Shared encode/decode machinery for both variants."""

    systematic = False

    def __init__(
        self,
        m: int,
        n: int,
        backend: Optional[Union[str, CodingBackend]] = None,
    ) -> None:
        check_positive_int(m, "m")
        check_positive_int(n, "n")
        if n < m:
            raise CodecError(f"need n >= m, got n={n} < m={m}")
        if n > MAX_COOKED:
            raise CodecError(
                f"n={n} exceeds the GF(2^8) limit of {MAX_COOKED} cooked packets"
            )
        self.m = m
        self.n = n
        self.backend = get_backend(backend)
        self._decode_cache = _LRUCache(DECODE_CACHE_MAX)
        self._encode_rows: Optional[List[List[int]]] = None

    @property
    def generator(self) -> bytes:
        """G(m, n) row-major: n·m bytes, row *i* at ``[i·m, (i+1)·m)``."""
        return _full_generator(self.m, self.systematic, self.backend)[: self.n * self.m]

    def generator_row(self, index: int) -> bytes:
        """Row *index* of G(m, n) as m bytes.

        The full generator is built on first need only: a systematic
        clear-text row is a unit vector and needs none.
        """
        m = self.m
        if self.systematic and index < m:
            row = bytearray(m)
            row[index] = 1
            return bytes(row)
        generator = _full_generator(m, self.systematic, self.backend)
        return generator[index * m : (index + 1) * m]

    def _encode_matrix(self) -> List[List[int]]:
        """The generator rows the encoder multiplies by, fetched once.

        Systematic codecs skip the identity prefix (those cooked
        packets are the raw packets verbatim); caching the row lists
        keeps repeated encodes off the generator slicing.
        """
        if self._encode_rows is None:
            start = self.m if self.systematic else 0
            self._encode_rows = [
                list(self.generator_row(i)) for i in range(start, self.n)
            ]
        return self._encode_rows

    # -- encoding ----------------------------------------------------------

    def encode(self, raw_packets: Sequence[bytes]) -> List[bytes]:
        """Transform M raw packets into N cooked packets.

        All raw packets must have equal length (pad beforehand).
        Cooked packet *i* is the GF(2^8) inner product of generator row
        *i* with the raw packet column.
        """
        if len(raw_packets) != self.m:
            raise CodecError(f"expected {self.m} raw packets, got {len(raw_packets)}")
        size = len(raw_packets[0])
        if any(len(packet) != size for packet in raw_packets):
            raise CodecError("raw packets must all have the same length")

        with timed("rs.encode"):
            rows = self._encode_matrix()
            if self.systematic:
                # Clear-text fast path: the first M cooked packets are
                # the raw packets verbatim; only the redundancy rows
                # go through the kernel.
                cooked = [bytes(packet) for packet in raw_packets]
                if rows:
                    cooked.extend(self.backend.matmul(rows, raw_packets, size))
            else:
                cooked = self.backend.matmul(rows, raw_packets, size)
        if OBS.enabled:
            OBS.metrics.counter("rs.encodes").labels(backend=self.backend.name).inc()
        return cooked

    # -- decoding ------------------------------------------------------------

    def _decode_plan(self, cooked: Mapping[int, bytes]) -> Tuple[List[int], int]:
        """Validate *cooked* and pick the M indices the decode will use."""
        if len(cooked) < self.m:
            raise CodecError(
                f"need at least {self.m} cooked packets to decode, got {len(cooked)}"
            )
        for index in cooked:
            if not 0 <= index < self.n:
                raise CodecError(f"cooked packet index {index} out of range 0..{self.n - 1}")

        indices = sorted(cooked)
        if self.systematic:
            clear = [i for i in indices if i < self.m]
            redundant = [i for i in indices if i >= self.m]
            chosen = (clear + redundant)[: self.m]
        else:
            chosen = indices[: self.m]
        chosen.sort()

        sizes = {len(cooked[i]) for i in chosen}
        if len(sizes) != 1:
            raise CodecError("cooked packets must all have the same length")
        return chosen, sizes.pop()

    def _decode_rows(self, chosen: List[int]) -> Tuple[List[List[int]], bool]:
        """The inverse-matrix rows for *chosen*, through the LRU cache."""
        key = tuple(chosen)
        rows = self._decode_cache.get(key)
        cached = rows is not None
        if rows is None:
            submatrix = GFMatrix._trusted([list(self.generator_row(i)) for i in chosen])
            rows = submatrix.inverse().rows()
            self._decode_cache.put(key, rows)
        return rows, cached

    def _count_decode(self, cached: bool) -> None:
        OBS.metrics.counter("rs.decodes").labels(
            path="matrix", backend=self.backend.name
        ).inc()
        OBS.metrics.counter("rs.decode_matrix_cache").labels(
            result="hit" if cached else "miss"
        ).inc()
        OBS.metrics.gauge(
            "rs.decode_cache_entries", "cached decode-matrix inverses"
        ).set(len(self._decode_cache))

    def decode(self, cooked: Mapping[int, bytes]) -> List[bytes]:
        """Reconstruct the M raw packets from any M intact cooked packets.

        *cooked* maps cooked-packet index → payload.  Extra packets
        beyond M are ignored (preferring clear-text rows when the code
        is systematic, which avoids any matrix work for a loss-free
        prefix).
        """
        chosen, size = self._decode_plan(cooked)

        if self.systematic and chosen == list(range(self.m)):
            if OBS.enabled:
                OBS.metrics.counter("rs.decodes").labels(path="clear").inc()
            return [bytes(cooked[i]) for i in chosen]

        with timed("rs.decode"):
            rows, cached = self._decode_rows(chosen)
            stack = [cooked[index] for index in chosen]
            raw = self.backend.matmul(rows, stack, size)
        if OBS.enabled:
            self._count_decode(cached)
        return raw

    def decode_into(
        self, cooked: Mapping[int, bytes], out: Union[bytearray, memoryview]
    ) -> int:
        """Decode straight into a contiguous caller buffer.

        Writes the M raw packets back-to-back into *out* (which must
        hold at least M·size bytes) and returns the number of bytes
        written.  This is the buffer-reuse path: a vectorized backend
        lands its product in *out* directly, so reconstructing a
        document costs one pass instead of per-packet ``bytes``
        objects plus a ``b"".join`` re-copy.
        """
        chosen, size = self._decode_plan(cooked)
        total = self.m * size
        view = memoryview(out)[:total]

        if self.systematic and chosen == list(range(self.m)):
            for slot, index in enumerate(chosen):
                view[slot * size : (slot + 1) * size] = cooked[index]
            if OBS.enabled:
                OBS.metrics.counter("rs.decodes").labels(path="clear").inc()
            return total

        with timed("rs.decode"):
            rows, cached = self._decode_rows(chosen)
            stack = [cooked[index] for index in chosen]
            self.backend.matmul_into(rows, stack, size, view)
        if OBS.enabled:
            self._count_decode(cached)
        return total

    def __repr__(self) -> str:
        kind = "systematic" if self.systematic else "non-systematic"
        return f"{type(self).__name__}(m={self.m}, n={self.n}, {kind})"


class RabinDispersal(_VandermondeCodec):
    """Rabin's original (non-systematic) information dispersal."""

    systematic = False


class SystematicRSCodec(_VandermondeCodec):
    """The paper's clear-text-prefix variant (identity upper block)."""

    systematic = True

    def clear_text_indices(self) -> range:
        """Indices of the cooked packets that are raw packets verbatim."""
        return range(self.m)

    def redundancy_indices(self) -> range:
        """Indices of the redundancy-bearing cooked packets."""
        return range(self.m, self.n)
