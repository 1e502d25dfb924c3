"""Cyclic redundancy codes for corruption detection.

The paper (§4.1) adopts CRC for corruption detection, "since it has a
low computational cost and a high error coverage".  We provide the two
classic parameterizations used by datalink-layer protocols:

* **CRC-16-CCITT** (poly 0x1021, init 0xFFFF, no reflection, no final
  XOR) — the HDLC/X.25 check, computed by ``binascii.crc_hqx``;
* **CRC-32** (reflected poly 0xEDB88320, init 0xFFFFFFFF, final XOR)
  — the IEEE 802.3 check, computed by ``zlib.crc32``.

Both run in the standard library's C code.  The bitwise polynomial
definitions they must match live in the tests as the oracle.
"""

from __future__ import annotations

import binascii
import zlib


def crc16(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16-CCITT of *data*.

    *initial* accepts a previous CRC value for incremental checking.
    """
    return binascii.crc_hqx(data, initial & 0xFFFF)


def crc32(data: bytes, initial: int = 0) -> int:
    """IEEE CRC-32 of *data* (compatible with ``zlib.crc32``).

    *initial* accepts a previous CRC value for incremental checking.
    """
    return zlib.crc32(data, initial & 0xFFFFFFFF)


def verify_crc16(data: bytes, expected: int) -> bool:
    """True when the CRC-16 of *data* equals *expected*."""
    return crc16(data) == (expected & 0xFFFF)


def verify_crc32(data: bytes, expected: int) -> bool:
    """True when the CRC-32 of *data* equals *expected*."""
    return crc32(data) == (expected & 0xFFFFFFFF)
