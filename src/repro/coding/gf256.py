"""Arithmetic in the Galois field GF(2^8).

The erasure code (paper §4.1, after Rabin [18]) works over a finite
field.  GF(2^8) is the standard choice for byte-oriented codes: every
byte is a field element, addition is XOR, and multiplication is
polynomial multiplication modulo an irreducible polynomial — here
x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the polynomial used by most
Reed–Solomon implementations.

Multiplication and division go through log/antilog tables built once
at import, so they cost two lookups and an addition.
"""

from __future__ import annotations

from typing import Sequence

#: The irreducible polynomial defining the field (x^8+x^4+x^3+x^2+1).
PRIMITIVE_POLY = 0x11D

#: The generator element used to build the log tables.
GENERATOR = 0x02

FIELD_SIZE = 256
ORDER = FIELD_SIZE - 1  # multiplicative group order


def _build_tables() -> tuple:
    exp = [0] * (2 * ORDER)
    log = [0] * FIELD_SIZE
    value = 1
    for power in range(ORDER):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate the table so exp[a + b] never needs a modulo.
    for power in range(ORDER, 2 * ORDER):
        exp[power] = exp[power - ORDER]
    return exp, log


_EXP, _LOG = _build_tables()

#: The powers of the generator repeated 256 times, so that the powers
#: of any element are one strided slice (see :func:`gf_powers`).
_EXP_CYCLE = bytes(_EXP[:ORDER]) * FIELD_SIZE


def gf_add(a: int, b: int) -> int:
    """Addition in GF(2^8) — XOR (identical to subtraction)."""
    return a ^ b


def gf_sub(a: int, b: int) -> int:
    """Subtraction in GF(2^8) — identical to addition."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Multiplication in GF(2^8)."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Division in GF(2^8); raises ``ZeroDivisionError`` on b == 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % ORDER]


def gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^8)."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return _EXP[ORDER - _LOG[a]]


def gf_pow(a: int, exponent: int) -> int:
    """Exponentiation in GF(2^8) (supports negative exponents)."""
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("zero has no negative powers")
        return 0
    power = (_LOG[a] * exponent) % ORDER
    return _EXP[power]


def gf_powers(a: int, count: int) -> bytes:
    """``a^0, a^1, …, a^(count-1)`` as bytes, for nonzero *a* and count ≤ 256."""
    step = _LOG[a]
    if step == 0:
        return b"\x01" * count
    return _EXP_CYCLE[: step * count : step]


def gf_dot(row: Sequence[int], column: Sequence[int]) -> int:
    """Inner product of two GF(2^8) vectors."""
    if len(row) != len(column):
        raise ValueError(f"length mismatch: {len(row)} vs {len(column)}")
    total = 0
    for a, b in zip(row, column):
        if a and b:
            total ^= _EXP[_LOG[a] + _LOG[b]]
    return total


_MUL_TABLES: dict = {}


def _mul_table(scalar: int) -> bytes:
    """The 256-entry multiply-by-*scalar* translation table, cached."""
    table = _MUL_TABLES.get(scalar)
    if table is None:
        log_scalar = _LOG[scalar]
        table = bytes(
            0 if v == 0 else _EXP[log_scalar + _LOG[v]] for v in range(FIELD_SIZE)
        )
        _MUL_TABLES[scalar] = table
    return table


def gf_mul_bytes(scalar: int, data: bytes) -> bytes:
    """Scale a byte string by *scalar* (vectorized helper for encoding)."""
    if scalar == 0:
        return bytes(len(data))
    if scalar == 1:
        return data
    return data.translate(_mul_table(scalar))


def gf_mul_xor_bytes(acc: bytes, scalar: int, data: bytes) -> bytes:
    """``acc ⊕ scalar·data`` over equal-length byte strings.

    The row operation of every elimination in the package: one
    ``bytes.translate`` through the multiply-by-*scalar* table plus one
    wide-integer XOR, so its cost is a handful of C calls per row
    whatever the row length.
    """
    if scalar == 0:
        return bytes(acc)
    if scalar != 1:
        data = bytes(data).translate(_mul_table(scalar))
    return (
        int.from_bytes(acc, "little") ^ int.from_bytes(data, "little")
    ).to_bytes(len(acc), "little")
