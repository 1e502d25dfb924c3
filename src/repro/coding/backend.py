"""Pluggable GF(2^8) coding kernels.

The erasure code's hot path is one primitive: the GF(2^8)
matrix × packet-stack product (``matmul``) that cooks raw packets
into redundancy packets and, on the receive side, multiplies the
inverse decode matrix back onto the received stack.  Everything else
in :mod:`repro.coding.rs` is bookkeeping.  This module isolates that
primitive behind a small backend interface so the kernel can be
swapped without touching codec logic:

``baseline``
    The original pure-Python reference path: one
    ``xor_bytes(acc, gf_mul_bytes(c, packet))`` per nonzero matrix
    coefficient.  Kept as the semantic reference every other backend
    must match byte-for-byte.

``fused``
    A pure-Python kernel that multiply-accumulates each generator row
    in the wide-integer domain.  Packets are lifted to Python ints
    once (``int.from_bytes``); per-packet 16-entry nibble tables
    (v·p and v·(16·p) for v in 0..15, built with a shift-and-reduce
    ladder) turn every matrix coefficient into two wide XORs, so the
    per-coefficient cost no longer crosses the bytes↔int boundary at
    all.  For short row blocks, where table construction would
    dominate, it falls back to per-coefficient 256-entry translate
    tables accumulated into the same wide-integer register.

``numpy``
    The block kernel.  Operands live in preallocated, thread-local
    scratch arenas (``np.frombuffer`` fills — no ``b"".join``
    re-copies, no per-call allocation growth); the product itself
    runs in a PSHUFB-style nibble-table microkernel compiled from C
    at first use and called through :mod:`ctypes`
    (:mod:`repro.coding._native` — no compiler, no problem: a pure
    numpy uint64-lane fallback computes the identical bytes with an
    accumulating XOR over per-column nibble gathers, never
    materializing the n·m·size product tensor).  ``scale`` and
    ``mul_xor`` accept any bytes-like object (``memoryview``
    included) without intermediate ``bytes`` round-trips, and
    ``matmul_into`` writes straight into a caller-supplied buffer so
    decode can reuse one arena end to end.

Selection: ``REPRO_CODING_BACKEND`` in the environment (also surfaced
as ``--coding-backend`` on the CLI) is an explicit override.  Unset
(or ``auto``) picks the best available backend: ``numpy`` when numpy
imports *and* a tiny parity self-check against ``baseline`` passes,
``fused`` otherwise.  The choice is made once per process and logged
once through :mod:`repro.obs` when telemetry is on.  All backends are
byte-identical; the parity property suite
(``tests/test_coding_backend.py``) enforces it across randomized
(m, n, packet-size) grids.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.coding.gf256 import FIELD_SIZE, _mul_table, gf_mul_bytes, gf_mul_xor_bytes
from repro.obs.runtime import OBS
from repro.util.bitops import xor_bytes

#: Environment variable naming the process-wide default backend.
BACKEND_ENV = "REPRO_CODING_BACKEND"

#: Bytes-like inputs accepted by scale/mul_xor/matmul packet stacks.
BytesLike = Union[bytes, bytearray, memoryview]


class CodingBackendError(Exception):
    """Raised for unknown or unavailable backend names."""


def _as_bytes(data: BytesLike) -> bytes:
    """Materialize a bytes-like object for APIs that need real bytes."""
    return data if isinstance(data, bytes) else bytes(data)


class CodingBackend:
    """One GF(2^8) kernel implementation.

    A backend provides three core operations, all pure functions over
    bytes-like objects (never mutating their inputs):

    * ``matmul(rows, packets, size)`` — the R×K matrix × K-packet
      stack product; returns R byte strings of ``size`` bytes.
    * ``scale(scalar, data)`` — scalar · data.
    * ``mul_xor(acc, scalar, data)`` — acc ⊕ scalar · data, the
      row-elimination step of the incremental decoder.

    ``matmul_into(rows, packets, size, out)`` is the buffer-reuse
    variant of ``matmul``: it writes the R rows contiguously into the
    writable buffer *out* (``len(out) == R·size``) so a decode path
    can land directly in its output arena.  The base implementation
    copies ``matmul`` results; vectorized backends override it to
    write in place.
    """

    name = "abstract"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        raise NotImplementedError

    def matmul_into(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out: Union[bytearray, memoryview],
    ) -> None:
        view = memoryview(out)
        if len(view) != len(rows) * size:
            raise CodingBackendError(
                f"matmul_into buffer is {len(view)} bytes, "
                f"need {len(rows) * size}"
            )
        for index, row in enumerate(self.matmul(rows, packets, size)):
            view[index * size : (index + 1) * size] = row

    def scale(self, scalar: int, data: BytesLike) -> bytes:
        raise NotImplementedError

    def mul_xor(self, acc: BytesLike, scalar: int, data: BytesLike) -> bytes:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def _count_matmul(backend: str, rows: int, size: int) -> None:
    metrics = OBS.metrics
    metrics.counter("coding.matmul_calls", "kernel invocations").labels(
        backend=backend
    ).inc()
    metrics.counter("coding.matmul_bytes", "output bytes produced by kernels").labels(
        backend=backend
    ).inc(rows * size)


class BaselineBackend(CodingBackend):
    """The reference kernel: per-coefficient scale-then-XOR on bytes."""

    name = "baseline"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        packets = [_as_bytes(packet) for packet in packets]
        out: List[bytes] = []
        for row in rows:
            acc = bytes(size)
            for coefficient, packet in zip(row, packets):
                if coefficient:
                    acc = xor_bytes(acc, gf_mul_bytes(coefficient, packet))
            out.append(acc)
        if OBS.enabled:
            _count_matmul(self.name, len(out), size)
        return out

    def scale(self, scalar: int, data: BytesLike) -> bytes:
        return gf_mul_bytes(scalar, _as_bytes(data))

    def mul_xor(self, acc: BytesLike, scalar: int, data: BytesLike) -> bytes:
        return xor_bytes(_as_bytes(acc), gf_mul_bytes(scalar, _as_bytes(data)))


# -- fused kernel -----------------------------------------------------------

#: Below this many output rows the nibble-table construction cost
#: outweighs its 2-XOR-per-coefficient inner loop; use the translate
#: path instead (measured crossover ≈ 6 rows at 16 columns).
_NIBBLE_MIN_ROWS = 6

_MASK_CACHE: Dict[int, Tuple[int, int]] = {}


def _masks(size: int) -> Tuple[int, int]:
    masks = _MASK_CACHE.get(size)
    if masks is None:
        masks = (
            int.from_bytes(b"\x7f" * size, "little"),
            int.from_bytes(b"\x01" * size, "little"),
        )
        _MASK_CACHE[size] = masks
    return masks


def _xtime(x: int, m7f: int, m01: int) -> int:
    """Multiply every byte lane of wide integer *x* by 2 in GF(2^8).

    Per lane: shift left, then fold the dropped high bit back in as
    the reduction polynomial 0x1D.  ``hi * 0x1D`` is a plain integer
    product, which is safe because the 5-bit 0x1D patterns of adjacent
    lanes (8 bits apart) cannot overlap, so no carries occur.
    """
    return ((x & m7f) << 1) ^ (((x >> 7) & m01) * 0x1D)


def _nibble_ladder(base: int, m7f: int, m01: int) -> Tuple[int, ...]:
    """(v · base for v in 0..15) built from three doublings + XORs."""
    t2 = _xtime(base, m7f, m01)
    t4 = _xtime(t2, m7f, m01)
    t8 = _xtime(t4, m7f, m01)
    t3 = t2 ^ base
    t5 = t4 ^ base
    t6 = t4 ^ t2
    t12 = t8 ^ t4
    return (
        0, base, t2, t3, t4, t5, t6, t6 ^ base,
        t8, t8 ^ base, t8 ^ t2, t8 ^ t3, t12, t12 ^ base, t12 ^ t2, t12 ^ t3,
    )


class FusedBackend(CodingBackend):
    """Wide-integer multiply-accumulate with per-packet nibble tables."""

    name = "fused"

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        if len(rows) >= _NIBBLE_MIN_ROWS:
            out = self._matmul_nibble(rows, packets, size)
        else:
            out = self._matmul_translate(rows, packets, size)
        if OBS.enabled:
            _count_matmul(self.name, len(out), size)
        return out

    @staticmethod
    def _matmul_nibble(
        rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        m7f, m01 = _masks(size)
        from_bytes = int.from_bytes
        low_tables: List[Tuple[int, ...]] = []
        high_tables: List[Tuple[int, ...]] = []
        for packet in packets:
            x = from_bytes(packet, "little")
            low = _nibble_ladder(x, m7f, m01)
            high_tables.append(_nibble_ladder(_xtime(low[8], m7f, m01), m7f, m01))
            low_tables.append(low)
        out: List[bytes] = []
        for row in rows:
            acc = 0
            for coefficient, low, high in zip(row, low_tables, high_tables):
                if coefficient:
                    acc ^= low[coefficient & 15] ^ high[coefficient >> 4]
            out.append(acc.to_bytes(size, "little"))
        return out

    @staticmethod
    def _matmul_translate(
        rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        from_bytes = int.from_bytes
        out: List[bytes] = []
        for row in rows:
            acc = 0
            for coefficient, packet in zip(row, packets):
                if coefficient == 0:
                    continue
                if coefficient == 1:
                    acc ^= from_bytes(packet, "little")
                else:
                    acc ^= from_bytes(
                        _as_bytes(packet).translate(_mul_table(coefficient)),
                        "little",
                    )
            out.append(acc.to_bytes(size, "little"))
        return out

    def scale(self, scalar: int, data: BytesLike) -> bytes:
        return gf_mul_bytes(scalar, _as_bytes(data))

    def mul_xor(self, acc: BytesLike, scalar: int, data: BytesLike) -> bytes:
        return gf_mul_xor_bytes(acc, scalar, data)


# -- numpy block kernel ------------------------------------------------------

try:  # numpy is optional: auto-detect, never require
    import numpy as _np
except ImportError:  # pragma: no cover - depends on environment
    _np = None  # type: ignore[assignment]

if _np is not None:
    #: Full 256×256 product table, built once at import:
    #: ``_MUL_MATRIX[a, b] == a·b`` in GF(2^8).
    _MUL_MATRIX = _np.frombuffer(
        b"".join(
            [bytes(FIELD_SIZE)]
            + [_mul_table(scalar) for scalar in range(1, FIELD_SIZE)]
        ),
        dtype=_np.uint8,
    ).reshape(FIELD_SIZE, FIELD_SIZE)
    #: uint64 lane masks for the pure-numpy fallback kernel.
    _M7F = _np.uint64(0x7F7F7F7F7F7F7F7F)
    _M01 = _np.uint64(0x0101010101010101)
    _M0F = _np.uint64(0x0F0F0F0F0F0F0F0F)
    _X1D = _np.uint64(0x1D)
else:  # pragma: no cover - depends on environment
    _MUL_MATRIX = None

#: Sentinel distinguishing "native kernel not yet probed" from
#: "probed and unavailable".
_NATIVE_UNSET = object()


class NumpyBackend(CodingBackend):
    """Block kernel: scratch-arena data plane + nibble-table product.

    The product itself runs in one of two interchangeable engines:

    * a C microkernel (:mod:`repro.coding._native`) compiled at first
      use and invoked through :mod:`ctypes` on raw arena pointers —
      the GB/s path (AVX2 PSHUFB where the host supports it, scalar
      table lookups otherwise);
    * a pure numpy fallback that packs packets into uint64 lanes,
      builds the 16-entry nibble product table per packet with a
      carry-free xtime ladder, and folds each matrix column into the
      accumulator with one gather + XOR — O(n·size) live memory, the
      full n·m·size product tensor is never materialized.

    All operand buffers come from a thread-local grow-only arena, so
    steady-state encode/decode performs no allocation beyond the
    output ``bytes`` objects themselves (and ``matmul_into`` skips
    even those).
    """

    name = "numpy"

    def __init__(self, use_native: bool = True) -> None:
        if _np is None:
            raise ImportError("numpy is not available")
        self._np = _np
        self._use_native = use_native
        self._native_kernel: object = _NATIVE_UNSET if use_native else None
        self._local = threading.local()

    # -- native kernel plumbing ---------------------------------------------

    @property
    def _kernel(self):
        """The ctypes kernel, compiled lazily; None when unavailable."""
        if self._native_kernel is _NATIVE_UNSET:
            from repro.coding import _native

            self._native_kernel = _native.load()
        return self._native_kernel

    @property
    def native(self) -> bool:
        """True when the compiled C microkernel is in use."""
        return self._kernel is not None

    @property
    def native_simd(self) -> bool:
        """True when the native kernel was compiled with AVX2."""
        kernel = self._kernel
        return bool(kernel is not None and kernel.simd)

    # -- scratch arena -------------------------------------------------------

    def _scratch(self, tag: str, count: int, dtype):
        """A reusable thread-local buffer of at least *count* elements.

        Grow-only per (tag, dtype): steady-state traffic with stable
        geometry hits the cached buffer every time.  Thread-local
        because backend instances are shared process-wide singletons
        and the preparation service cooks from executor threads.
        """
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = {}
        key = (tag, dtype)
        buffer = buffers.get(key)
        if buffer is None or buffer.size < count:
            buffer = self._np.empty(max(count, 1), dtype=dtype)
            buffers[key] = buffer
        return buffer[:count]

    # -- matmul --------------------------------------------------------------

    def matmul(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int
    ) -> List[bytes]:
        n = len(rows)
        if n == 0:
            return []
        out = self._matmul_block(rows, packets, size, n)
        result = [out[index].tobytes() for index in range(n)]
        if OBS.enabled:
            _count_matmul(self.name, n, size)
        return result

    def matmul_into(
        self,
        rows: Sequence[Sequence[int]],
        packets: Sequence[BytesLike],
        size: int,
        out: Union[bytearray, memoryview],
    ) -> None:
        np = self._np
        n = len(rows)
        view = np.frombuffer(out, dtype=np.uint8)
        if view.size != n * size:
            raise CodingBackendError(
                f"matmul_into buffer is {view.size} bytes, need {n * size}"
            )
        if n == 0:
            return
        kernel = self._kernel
        if kernel is not None and view.flags["C_CONTIGUOUS"]:
            # The C kernel writes straight into the caller's buffer —
            # the only copy left is the packet fill of the stack arena.
            matrix = self._matrix(rows, n)
            stack = self._fill_stack(packets, size)
            kernel.matmul_into(
                view.ctypes.data,
                matrix.ctypes.data,
                stack.ctypes.data,
                n,
                len(packets),
                size,
            )
        else:
            block = self._matmul_block(rows, packets, size, n)
            view.reshape(n, size)[:] = block
        if OBS.enabled:
            _count_matmul(self.name, n, size)

    def _matrix(self, rows: Sequence[Sequence[int]], n: int):
        np = self._np
        matrix = np.ascontiguousarray(np.asarray(rows, dtype=np.uint8))
        return matrix.reshape(n, -1)

    def _fill_stack(self, packets: Sequence[BytesLike], size: int):
        """Pack the packet column into one contiguous (m, size) arena."""
        np = self._np
        m = len(packets)
        stack = self._scratch("stack", m * size, np.uint8).reshape(m, size)
        for index, packet in enumerate(packets):
            stack[index] = np.frombuffer(packet, dtype=np.uint8)
        return stack

    def _matmul_block(
        self, rows: Sequence[Sequence[int]], packets: Sequence[BytesLike], size: int, n: int
    ):
        """The (n, size) product block, living in scratch memory.

        Callers must consume (copy out of) the result before the next
        kernel call on this thread.
        """
        matrix = self._matrix(rows, n)
        kernel = self._kernel
        if kernel is not None:
            np = self._np
            stack = self._fill_stack(packets, size)
            out = self._scratch("out", n * size, np.uint8).reshape(n, size)
            kernel.matmul_into(
                out.ctypes.data,
                matrix.ctypes.data,
                stack.ctypes.data,
                n,
                len(packets),
                size,
            )
            return out
        return self._matmul_fallback(matrix, packets, size, n)

    def _matmul_fallback(self, matrix, packets: Sequence[BytesLike], size: int, n: int):
        """Pure numpy engine: nibble gathers over uint64 lanes.

        For each packet the 16 low-nibble products v·p are built with
        three xtime doublings and eleven XORs; a coefficient c then
        costs two gathers (low nibble, high nibble) folded into the
        accumulator, plus one deferred ·16 fixup for the high half.
        Peak extra memory is the (16, m, size) table + (2n, size)
        accumulator — the n·m·size broadcast tensor of the old
        gather/reduce formulation never exists.
        """
        np = self._np
        m = len(packets)
        padded = (size + 7) & ~7
        lanes = padded >> 3

        stack8 = self._scratch("fb.stack", m * padded, np.uint8).reshape(m, padded)
        if padded != size:
            stack8[:, size:] = 0
        for index, packet in enumerate(packets):
            stack8[index, :size] = np.frombuffer(packet, dtype=np.uint8)
        stack64 = stack8.view(np.uint64)

        # Nibble product table: table[v, k] = v · packet_k, per byte lane.
        table = self._scratch("fb.table", 16 * m * lanes, np.uint64).reshape(
            16, m, lanes
        )
        scratch = self._scratch("fb.xtime", m * lanes, np.uint64).reshape(m, lanes)
        table[0] = 0
        table[1] = stack64
        for source, target in ((1, 2), (2, 4), (4, 8)):
            src = table[source]
            dst = table[target]
            np.right_shift(src, np.uint64(7), out=scratch)
            np.bitwise_and(scratch, _M01, out=scratch)
            np.multiply(scratch, _X1D, out=scratch)
            np.bitwise_and(src, _M7F, out=dst)
            np.left_shift(dst, np.uint64(1), out=dst)
            np.bitwise_xor(dst, scratch, out=dst)
        for a, b in (
            (1, 2), (1, 4), (2, 4), (3, 4),
            (1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8),
        ):
            np.bitwise_xor(table[a], table[b], out=table[a ^ b])

        # Accumulate: rows 0..n-1 gather by low nibble, n..2n-1 by high.
        low = matrix & 0x0F
        high = matrix >> 4
        accumulator = self._scratch("fb.acc", 2 * n * lanes, np.uint64).reshape(
            2 * n, lanes
        )
        accumulator[:] = 0
        index = self._scratch("fb.idx", 2 * n, np.intp)
        for k in range(m):
            index[:n] = low[:, k]
            index[n:] = high[:, k]
            np.bitwise_xor(accumulator, table[index, k], out=accumulator)

        # High-half fixup: multiply each byte lane by 16 (x^4), using
        # x^8 ≡ x^4+x^3+x^2+1 for the nibble that overflows, then fold
        # into the low half.  All shifts stay inside their byte lane.
        low_acc = accumulator[:n]
        high_acc = accumulator[n:]
        nibble = self._scratch("fb.nib", n * lanes, np.uint64).reshape(n, lanes)
        spill = self._scratch("fb.spill", n * lanes, np.uint64).reshape(n, lanes)
        np.right_shift(high_acc, np.uint64(4), out=nibble)
        np.bitwise_and(nibble, _M0F, out=nibble)
        np.bitwise_and(high_acc, _M0F, out=high_acc)
        np.left_shift(high_acc, np.uint64(4), out=high_acc)
        for shift in (4, 3, 2):
            np.left_shift(nibble, np.uint64(shift), out=spill)
            np.bitwise_xor(high_acc, spill, out=high_acc)
        np.bitwise_xor(high_acc, nibble, out=high_acc)
        np.bitwise_xor(low_acc, high_acc, out=low_acc)
        return low_acc.view(np.uint8).reshape(n, padded)[:, :size]

    # -- scalar ops ----------------------------------------------------------

    def scale(self, scalar: int, data: BytesLike) -> bytes:
        if scalar == 0:
            return bytes(len(data))
        if scalar == 1:
            return _as_bytes(data)
        np = self._np
        return _MUL_MATRIX[scalar][np.frombuffer(data, dtype=np.uint8)].tobytes()

    def mul_xor(self, acc: BytesLike, scalar: int, data: BytesLike) -> bytes:
        if scalar == 0:
            return _as_bytes(acc)
        np = self._np
        lifted = np.frombuffer(data, dtype=np.uint8)
        if scalar != 1:
            lifted = _MUL_MATRIX[scalar][lifted]
        return np.bitwise_xor(np.frombuffer(acc, dtype=np.uint8), lifted).tobytes()


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, CodingBackend] = {}


def register_backend(backend: CodingBackend) -> CodingBackend:
    """Add *backend* to the registry (idempotent by name)."""
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_REGISTRY)


register_backend(BaselineBackend())
register_backend(FusedBackend())

if _np is not None:
    register_backend(NumpyBackend())
    _NUMPY_AVAILABLE = True
else:  # pragma: no cover - depends on environment
    _NUMPY_AVAILABLE = False


# -- default selection -------------------------------------------------------

_AUTO_SELECTED: Optional[str] = None
_SELECTION_LOGGED = False


def _parity_self_check(candidate: CodingBackend) -> bool:
    """One tiny deterministic parity run against the reference kernel.

    Odd size, a zero row, a zero column entry, and coefficients with
    both nibbles set — cheap (<1 ms) but enough to catch a broken
    table, a lane-math slip, or a miscompiled native kernel before it
    becomes the process default.
    """
    rows = [[0, 1, 2], [3, 0, 5], [255, 7, 129], [0, 0, 0]]
    packets = [
        bytes((k * 131 + j * 17 + 3) % 256 for j in range(17)) for k in range(3)
    ]
    reference = _REGISTRY["baseline"]
    if candidate.matmul(rows, packets, 17) != reference.matmul(rows, packets, 17):
        return False
    if candidate.scale(79, packets[0]) != reference.scale(79, packets[0]):
        return False
    return candidate.mul_xor(packets[0], 200, packets[1]) == reference.mul_xor(
        packets[0], 200, packets[1]
    )


def _auto_backend_name() -> str:
    """Best available backend, decided once per process."""
    global _AUTO_SELECTED
    if _AUTO_SELECTED is None:
        choice = "fused"
        if _NUMPY_AVAILABLE:
            try:
                if _parity_self_check(_REGISTRY["numpy"]):
                    choice = "numpy"
            except Exception:  # pragma: no cover - any failure means fused
                choice = "fused"
        _AUTO_SELECTED = choice
    return _AUTO_SELECTED


def _log_selection(backend: CodingBackend) -> None:
    """Record the resolved default once per process (telemetry on only)."""
    global _SELECTION_LOGGED
    if _SELECTION_LOGGED or not OBS.enabled:
        return
    _SELECTION_LOGGED = True
    native = bool(getattr(backend, "native", False))
    OBS.trace.emit(
        "coding_backend_selected", backend=backend.name, native=native
    )
    OBS.metrics.counter(
        "coding.backend_selected", "default kernel resolutions"
    ).labels(backend=backend.name).inc()


def default_backend_name() -> str:
    """The name selected by ``REPRO_CODING_BACKEND``, or the best available.

    An explicit environment value wins unchanged.  Unset or ``auto``
    resolves to ``numpy`` when numpy is importable and its block
    kernel passes the parity self-check, else ``fused``.
    """
    name = os.environ.get(BACKEND_ENV, "").strip().lower()
    if name and name != "auto":
        return name
    return _auto_backend_name()


def get_backend(
    name: Optional[Union[str, CodingBackend]] = None
) -> CodingBackend:
    """Resolve *name* (or the environment default) to a backend.

    Accepts an existing backend instance, a registered name, ``None``
    or ``"auto"`` for the default; raises :class:`CodingBackendError`
    for anything else.
    """
    if isinstance(name, CodingBackend):
        return name
    defaulted = name is None or name == "" or name == "auto"
    if defaulted:
        name = default_backend_name()
    backend = _REGISTRY.get(name.strip().lower())
    if backend is None:
        raise CodingBackendError(
            f"unknown coding backend {name!r}; available: {available_backends()}"
        )
    if defaulted:
        _log_selection(backend)
    return backend
