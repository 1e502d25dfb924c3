"""Tests for the CRC implementations against their polynomial definitions.

``crc16`` and ``crc32`` run in the standard library's C code; the
bitwise definitions below are the oracle they must match bit for bit,
on any length and when chained through ``initial``.
"""

from hypothesis import given, settings, strategies as st

from repro.coding.crc import crc16, crc32, verify_crc16, verify_crc32

CRC16_POLY = 0x1021
CRC32_POLY_REFLECTED = 0xEDB88320


def crc16_bitwise(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16-CCITT straight from the polynomial: MSB first, no final XOR."""
    crc = initial
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ CRC16_POLY if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


def crc32_bitwise(data: bytes, initial: int = 0) -> int:
    """IEEE CRC-32 straight from the reflected polynomial.

    *initial* is a previous CRC value, as for ``zlib.crc32``: the
    register is un-finalized, fed, and finalized again.
    """
    crc = initial ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ CRC32_POLY_REFLECTED if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


class TestAgainstBitwiseOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=4096))
    def test_crc16_matches_oracle(self, data):
        assert crc16(data) == crc16_bitwise(data)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=4096))
    def test_crc32_matches_oracle(self, data):
        assert crc32(data) == crc32_bitwise(data)

    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(max_size=2048),
        st.binary(max_size=2048),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_crc16_chains_through_initial(self, head, tail, initial):
        partial = crc16(head, initial)
        assert partial == crc16_bitwise(head, initial)
        assert crc16(tail, partial) == crc16(head + tail, initial)
        assert crc16(tail, partial) == crc16_bitwise(head + tail, initial)

    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(max_size=2048),
        st.binary(max_size=2048),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    def test_crc32_chains_through_initial(self, head, tail, initial):
        partial = crc32(head, initial)
        assert partial == crc32_bitwise(head, initial)
        assert crc32(tail, partial) == crc32(head + tail, initial)
        assert crc32(tail, partial) == crc32_bitwise(head + tail, initial)

    def test_memoryview_input(self):
        data = bytes(range(256)) * 3
        view = memoryview(data)[5:700]
        assert crc16(view) == crc16_bitwise(data[5:700])
        assert crc32(view) == crc32_bitwise(data[5:700])


class TestCrc32Reference:
    def test_known_vector(self):
        # The classic check value for "123456789".
        assert crc32(b"123456789") == 0xCBF43926

    def test_incremental(self):
        data = b"hello world"
        partial = crc32(data[:5])
        assert crc32(data[5:], initial=partial) == crc32(data)

    def test_empty(self):
        assert crc32(b"") == 0


class TestCrc16Reference:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE check value for "123456789".
        assert crc16(b"123456789") == 0x29B1

    def test_empty_is_init(self):
        assert crc16(b"") == 0xFFFF

    @given(st.binary(max_size=128))
    def test_sixteen_bits(self, data):
        assert 0 <= crc16(data) <= 0xFFFF


class TestErrorDetection:
    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=0, max_value=127))
    def test_single_byte_flip_detected(self, data, position):
        position %= len(data)
        corrupted = bytearray(data)
        corrupted[position] ^= 0x01
        assert crc16(bytes(corrupted)) != crc16(data)
        assert crc32(bytes(corrupted)) != crc32(data)

    def test_verify_helpers(self):
        data = b"packet payload"
        assert verify_crc16(data, crc16(data))
        assert not verify_crc16(data, crc16(data) ^ 1)
        assert verify_crc32(data, crc32(data))
        assert not verify_crc32(data, crc32(data) ^ 1)

    def test_burst_errors_detected(self):
        data = b"\x00" * 64
        for burst_length in (2, 8, 16):
            corrupted = bytearray(data)
            for i in range(burst_length):
                corrupted[20 + i] ^= 0xFF
            assert crc32(bytes(corrupted)) != crc32(data)
