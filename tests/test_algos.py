"""Unit and property tests for CRC64, hashing, and HyperLogLog."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algos import (
    ChecksummedObject,
    HyperLogLog,
    crc64,
    crc64_bitwise,
    crc64_incremental,
    exact_cardinality,
    fnv1a64,
    fnv1a64_int,
    murmur64,
    murmur64_array,
    radix_hash,
    radix_hash_array,
)
from repro.algos.crc import BLOCK


# ---------------------------------------------------------------------------
# CRC64
# ---------------------------------------------------------------------------

def test_crc64_known_properties():
    assert crc64(b"") == 0
    # CRC-64/ECMA-182 catalogue check value.
    assert crc64(b"123456789") == 0x6C40DF5F0B497347
    assert crc64(b"abc") != crc64(b"abd")


def test_crc64_detects_single_bit_flips():
    data = bytearray(b"the quick brown fox jumps over the lazy dog")
    reference = crc64(bytes(data))
    for i in range(0, len(data), 7):
        corrupted = bytearray(data)
        corrupted[i] ^= 0x01
        assert crc64(bytes(corrupted)) != reference


def _pattern(length):
    return bytes((7 * i + 3) & 0xFF for i in range(length))


# Lengths from empty to past three position-table blocks, so both the
# byte-at-a-time path and the block path (with partial leading blocks)
# meet the bit-at-a-time reference; the examples pin the block edges.
@settings(max_examples=60, deadline=None)
@given(data=st.binary(min_size=0, max_size=4 * BLOCK),
       initial=st.integers(min_value=0, max_value=2**64 - 1))
@example(data=_pattern(BLOCK - 1), initial=0x0123456789ABCDEF)
@example(data=_pattern(BLOCK), initial=2**64 - 1)
@example(data=_pattern(BLOCK + 1), initial=1)
@example(data=_pattern(3 * BLOCK), initial=0x8000000000000001)
@example(data=b"\xff" * (2 * BLOCK + 1), initial=0)
@example(data=_pattern(4088), initial=0xFEDCBA9876543210)
def test_crc64_table_matches_bitwise_reference(data, initial):
    assert crc64(data) == crc64_bitwise(data)
    assert crc64(data, initial) == crc64_bitwise(data, initial)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=1, max_size=4 * BLOCK),
       split=st.integers(min_value=0, max_value=4 * BLOCK))
@example(data=_pattern(3 * BLOCK + 5), split=BLOCK - 1)
@example(data=_pattern(3 * BLOCK + 5), split=BLOCK)
@example(data=_pattern(3 * BLOCK + 5), split=BLOCK + 1)
@example(data=_pattern(3 * BLOCK + 5), split=2 * BLOCK - 1)
@example(data=_pattern(3 * BLOCK + 5), split=2 * BLOCK)
@example(data=_pattern(3 * BLOCK + 5), split=2 * BLOCK + 1)
def test_crc64_incremental_equals_whole(data, split):
    split = min(split, len(data))
    assert crc64_incremental([data[:split], data[split:]]) == crc64(data)


@pytest.mark.parametrize("length", [9, BLOCK + 9, 3 * BLOCK + 9])
def test_crc64_accepts_any_bytes_like(length):
    data = _pattern(length)
    expected = crc64(data)
    assert crc64(bytearray(data)) == expected
    assert crc64(memoryview(data)) == expected
    assert crc64(memoryview(b"xx" + data)[2:]) == expected
    assert crc64_incremental([memoryview(data[:5]), bytearray(data[5:])]) \
        == expected
    sealed = ChecksummedObject.seal(data)
    assert ChecksummedObject.verify(bytearray(sealed))
    assert ChecksummedObject.verify(memoryview(sealed))


@settings(max_examples=40)
@given(payload=st.binary(min_size=0, max_size=300))
def test_checksummed_object_roundtrip(payload):
    sealed = ChecksummedObject.seal(payload)
    assert len(sealed) == ChecksummedObject.sealed_size(len(payload))
    assert ChecksummedObject.verify(sealed)
    assert ChecksummedObject.payload(sealed) == payload


def test_checksummed_object_detects_corruption():
    sealed = bytearray(ChecksummedObject.seal(b"hello world, strom"))
    sealed[3] ^= 0xFF
    assert not ChecksummedObject.verify(bytes(sealed))


def test_checksummed_object_too_short():
    assert not ChecksummedObject.verify(b"abc")
    with pytest.raises(ValueError):
        ChecksummedObject.payload(b"abc")


# ---------------------------------------------------------------------------
# Hashing
# ---------------------------------------------------------------------------

def test_radix_hash_takes_low_bits():
    assert radix_hash(0b101101, 3) == 0b101
    assert radix_hash(0xFFFF, 0) == 0
    with pytest.raises(ValueError):
        radix_hash(1, 65)


def test_radix_hash_array_matches_scalar():
    values = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
    bits = 10
    vector = radix_hash_array(values, bits)
    for v, h in zip(values[:50].tolist(), vector[:50].tolist()):
        assert h == radix_hash(v, bits)


def test_murmur64_is_bijective_sample():
    seen = {murmur64(i) for i in range(10000)}
    assert len(seen) == 10000


@settings(max_examples=50)
@given(value=st.integers(min_value=0, max_value=2**64 - 1))
def test_murmur64_array_matches_scalar(value):
    arr = np.array([value], dtype=np.uint64)
    assert int(murmur64_array(arr)[0]) == murmur64(value)


def test_fnv1a64_consistency():
    assert fnv1a64_int(42) == fnv1a64((42).to_bytes(8, "little"))
    assert fnv1a64(b"a") != fnv1a64(b"b")


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------

def test_hll_precision_validation():
    with pytest.raises(ValueError):
        HyperLogLog(precision=3)
    with pytest.raises(ValueError):
        HyperLogLog(precision=17)


@pytest.mark.parametrize("cardinality", [100, 10_000, 1_000_000])
def test_hll_estimate_within_error_bound(cardinality):
    hll = HyperLogLog(precision=14)
    values = np.arange(cardinality, dtype=np.uint64)
    hll.add_array(values)
    estimate = hll.cardinality()
    tolerance = 5 * hll.standard_error  # 5 sigma
    assert abs(estimate - cardinality) / cardinality < tolerance


def test_hll_duplicates_do_not_inflate():
    hll = HyperLogLog(precision=12)
    values = np.arange(5000, dtype=np.uint64)
    for _ in range(3):
        hll.add_array(values)
    estimate = hll.cardinality()
    assert abs(estimate - 5000) / 5000 < 5 * hll.standard_error


def test_hll_scalar_matches_array_updates():
    a = HyperLogLog(precision=10)
    b = HyperLogLog(precision=10)
    values = [murmur64(i) ^ i for i in range(2000)]
    for v in values:
        a.add(v)
    b.add_array(np.array(values, dtype=np.uint64))
    assert np.array_equal(a.registers, b.registers)


_MASK64 = (1 << 64) - 1


def _murmur64_inverse(h):
    """The item whose murmur64 is ``h``: each xor-shift by 33 is its own
    inverse and each odd multiplier has one modulo 2**64."""
    h ^= h >> 33
    h = (h * pow(0xC4CEB9FE1A85EC53, -1, 1 << 64)) & _MASK64
    h ^= h >> 33
    h = (h * pow(0xFF51AFD7ED558CCD, -1, 1 << 64)) & _MASK64
    h ^= h >> 33
    return h


@pytest.mark.parametrize("precision", range(4, 17))
def test_hll_add_array_matches_per_item_add(precision):
    """add_array's float-exponent rank equals add()'s bit_length rank,
    including hashes whose remainder (the low 64 - p bits) is 0, 1,
    around the 2**32 split, or a lone top bit."""
    width = 64 - precision
    remainders = [0, 1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1,
                  2**(width - 1), 2**width - 1]
    assert all(murmur64(_murmur64_inverse(r)) == r for r in remainders)
    rng = np.random.default_rng(precision)
    indices = rng.integers(0, 1 << precision, size=3 * len(remainders))
    values = [_murmur64_inverse(int(index) << width | remainder)
              for index, remainder in zip(indices, remainders * 3)]
    values += rng.integers(0, 2**64 - 1, size=3000,
                           dtype=np.uint64).tolist()
    one_by_one = HyperLogLog(precision)
    for value in values:
        one_by_one.add(value)
    bulk = HyperLogLog(precision)
    bulk.add_array(np.array(values, dtype=np.uint64))
    assert np.array_equal(bulk.registers, one_by_one.registers)
    assert bulk.registers.max() == width + 1  # a zero remainder


def test_hll_merge_equals_union():
    left = HyperLogLog(precision=12)
    right = HyperLogLog(precision=12)
    both = HyperLogLog(precision=12)
    lo = np.arange(0, 40_000, dtype=np.uint64)
    hi = np.arange(30_000, 70_000, dtype=np.uint64)
    left.add_array(lo)
    right.add_array(hi)
    both.add_array(np.concatenate([lo, hi]))
    left.merge(right)
    assert np.array_equal(left.registers, both.registers)


def test_hll_merge_precision_mismatch():
    with pytest.raises(ValueError):
        HyperLogLog(12).merge(HyperLogLog(13))


def test_hll_small_range_linear_counting():
    hll = HyperLogLog(precision=14)
    hll.add_array(np.arange(50, dtype=np.uint64))
    estimate = hll.cardinality()
    assert abs(estimate - 50) < 10  # linear counting is near-exact here


def test_hll_register_serialization_roundtrip():
    hll = HyperLogLog(precision=10)
    hll.add_array(np.arange(10_000, dtype=np.uint64))
    blob = hll.register_bytes()
    restored = HyperLogLog.from_register_bytes(blob, precision=10)
    assert restored.cardinality() == hll.cardinality()


def test_hll_register_blob_size_checked():
    with pytest.raises(ValueError):
        HyperLogLog.from_register_bytes(b"\x00" * 5, precision=10)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_hll_estimate_property_random_sets(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
    truth = exact_cardinality(values.tolist())
    hll = HyperLogLog(precision=14)
    hll.add_array(values)
    assert abs(hll.cardinality() - truth) / truth < 5 * hll.standard_error


# ---------------------------------------------------------------------------
# Edge cases: empty input, single element, cross-implementation CRC32
# ---------------------------------------------------------------------------

def test_crc64_single_byte_inputs():
    # Every single-byte input hashes, and no two collide.
    checksums = {crc64(bytes([b])) for b in range(256)}
    assert len(checksums) == 256
    # Init-0 CRC: a zero byte folds to 0 (like the empty string), but
    # every non-zero byte must not.
    assert crc64(b"\x00") == 0
    assert all(crc64(bytes([b])) != 0 for b in range(1, 256))


def test_crc64_incremental_edge_chunks():
    assert crc64_incremental([]) == crc64(b"")
    assert crc64_incremental([b""]) == crc64(b"")
    assert crc64_incremental([b"", b"abc", b""]) == crc64(b"abc")
    assert crc64_incremental([b"x"]) == crc64(b"x")


def test_hashing_empty_and_single_inputs():
    assert fnv1a64(b"") == 0xCBF29CE484222325  # FNV-1a offset basis
    assert fnv1a64(b"\x00") != fnv1a64(b"")
    assert murmur64(0) == 0  # finalizer fixes zero
    assert murmur64(1) != 0


def test_hll_empty_and_single_element():
    hll = HyperLogLog(precision=12)
    assert hll.cardinality() == 0.0
    hll.add(murmur64(12345))
    assert 0.5 < hll.cardinality() < 1.5
    empty = HyperLogLog(precision=12)
    empty.merge(hll)  # merging into empty == copy
    assert np.array_equal(empty.registers, hll.registers)


def _crc32_bitwise(data: bytes) -> int:
    """Independent reflected CRC-32 (IEEE 802.3): poly 0xEDB88320,
    init/final-xor 0xFFFFFFFF — no table, no zlib."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def test_icrc32_cross_implementation_agreement():
    import zlib

    from repro.roce.headers import icrc32

    # Known vector plus edge inputs: all three implementations agree.
    assert _crc32_bitwise(b"123456789") == 0xCBF43926
    for data in (b"", b"\x00", b"\xff" * 64, b"123456789",
                 bytes(range(256))):
        assert icrc32(data) == zlib.crc32(data) & 0xFFFFFFFF
        assert icrc32(data) == _crc32_bitwise(data)


@settings(max_examples=40)
@given(data=st.binary(min_size=0, max_size=128))
def test_icrc32_matches_bitwise_reference(data):
    from repro.roce.headers import icrc32

    assert icrc32(data) == _crc32_bitwise(data)
