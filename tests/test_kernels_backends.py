"""Kernel contract: f32 results bit-identical to a scalar reference, aliased
tiles read their pre-op values, and every NaN is the canonical quiet NaN."""

import operator
import random
import struct

import numpy as np
import pytest

from xshark._kernels import pyfallback

CANON_NAN_BITS = 0x7FC00000
DISJOINT = (0, 1024, 2048)
# dst overlaps a; dst, a and b are one tile; a overlaps dst from below
ALIASED = [(0, 64, 1024), (0, 0, 0), (64, 0, 2048)]
MXU_CASES = ([pytest.param(seed, DISJOINT, id=str(seed)) for seed in range(5)]
             + [pytest.param(seed, offs, id=f"{seed}-aliased-{offs[0]}-{offs[1]}-{offs[2]}")
                for offs in ALIASED for seed in range(2)])


def _rand_f32_bytes(r, n):
    # raw random bits: exercises NaNs, denormals, infinities
    return bytes(r.getrandbits(8) for _ in range(n))


# raw bits draw huge exponents, so a 16-term dot product of them is almost
# always inf or NaN: the "mixed" tiles draw most values near 1 and some raw,
# subnormal, zero, infinite or NaN, so that rounding shows in finite results
_SPECIAL_BITS = (0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7F7FFFFF,
                 0x00000001, 0x807FFFFF, 0x7FC00001, 0xFFC00000, 0x7F800001)


def _mixed_f32_bytes(r, n):
    words = []
    for _ in range(n // 4):
        pick = r.random()
        if pick < 0.8:            # sign, exponent 2**-20 .. 2**20, any mantissa
            words.append(r.getrandbits(1) << 31 | r.randint(107, 147) << 23
                         | r.getrandbits(23))
        elif pick < 0.9:
            words.append(r.getrandbits(32))
        elif pick < 0.95:          # subnormal
            words.append(r.getrandbits(1) << 31 | r.getrandbits(23))
        else:
            words.append(r.choice(_SPECIAL_BITS))
    return struct.pack(f"<{len(words)}I", *words)


def _canonical_nans(buf):
    """`buf` with every NaN lane set to the canonical quiet NaN."""
    lanes = np.frombuffer(bytearray(buf), dtype=np.float32)
    lanes[np.isnan(lanes)] = np.uint32(CANON_NAN_BITS).view(np.float32)
    return lanes.tobytes()


def _mxu_scalar_reference(buf, d_off, a_off, b_off):
    """Independent elementwise np.float32 scalar loop (one rounding per op,
    ascending k)."""
    f = np.frombuffer(buf, dtype=np.float32)
    d = f[d_off // 4:d_off // 4 + 256]
    a = f[a_off // 4:a_off // 4 + 256].copy()
    b = f[b_off // 4:b_off // 4 + 256].copy()
    for i in range(16):
        for j in range(16):
            acc = d[i * 16 + j]
            for k in range(16):
                acc = np.float32(acc + np.float32(a[i * 16 + k] * b[k * 16 + j]))
            d[i * 16 + j] = acc


@pytest.mark.parametrize("seed,offs", MXU_CASES)
def test_fallback_mxu_matches_scalar_reference(seed, offs):
    r = random.Random(seed)
    base = bytearray(struct.pack("<768f", *[r.uniform(-8, 8) for _ in range(768)]))
    got = bytearray(base)
    want = bytearray(base)
    pyfallback.mxu_mm(got, *offs)
    _mxu_scalar_reference(want, *offs)
    assert bytes(got) == bytes(want)


@pytest.mark.parametrize("bits", [_rand_f32_bytes, _mixed_f32_bytes],
                         ids=["raw", "mixed"])
@pytest.mark.parametrize("seed,offs", MXU_CASES)
def test_fallback_mxu_matches_scalar_reference_on_any_bits(seed, offs, bits):
    base = bits(random.Random(1000 + seed), 3072)
    got = bytearray(base)
    want = bytearray(base)
    pyfallback.mxu_mm(got, *offs)
    with np.errstate(all="ignore"):
        _mxu_scalar_reference(want, *offs)
    assert _canonical_nans(got) == _canonical_nans(want)


def _vector_scalar_reference(op, buf, d_off, a_off, b_off):
    """Independent per-lane np.float32 loop: one rounding per lane, NaN
    results canonical; the sources are read before dst is written."""
    a = np.frombuffer(buf, dtype=np.float32, count=16, offset=a_off).copy()
    b = np.frombuffer(buf, dtype=np.float32, count=16, offset=b_off).copy()
    for i in range(16):
        lane = op(np.float32(a[i]), np.float32(b[i]))
        bits = CANON_NAN_BITS if np.isnan(lane) else int(lane.view(np.uint32))
        struct.pack_into("<I", buf, d_off + 4 * i, bits)


# disjoint; dst is a; dst is b; a is b; all three one register
VECTOR_OFFSETS = [(0, 64, 128), (0, 0, 64), (64, 0, 64), (0, 64, 64), (64, 64, 64)]


@pytest.mark.parametrize("name", ["v_add", "v_mul"])
@pytest.mark.parametrize("bits", [_rand_f32_bytes, _mixed_f32_bytes],
                         ids=["raw", "mixed"])
def test_vector_ops_match_scalar_reference(name, bits):
    """Raw bit patterns cover NaN payloads, sNaN, infinities, subnormals,
    overflow to infinity and signed zeros."""
    op = getattr(operator, name.removeprefix("v_"))
    r = random.Random(name)
    for _ in range(300):
        base = bits(r, 192)
        for offs in VECTOR_OFFSETS:
            got, want = bytearray(base), bytearray(base)
            getattr(pyfallback, name)(got, *offs)
            with np.errstate(all="ignore"):
                _vector_scalar_reference(op, want, *offs)
            assert bytes(got) == bytes(want), (base.hex(), offs)


def _nan_lane_bits(buf, off, n_lanes):
    lanes = np.frombuffer(buf, dtype=np.float32, count=n_lanes, offset=off)
    return set(lanes[np.isnan(lanes)].view(np.uint32).tolist())


@pytest.mark.parametrize("seed", range(3))
def test_every_nan_result_is_canonical(seed):
    r = random.Random(2000 + seed)
    blob = _rand_f32_bytes(r, 3072)
    nan_bits = set()
    for fn in (pyfallback.v_add, pyfallback.v_mul):
        buf = bytearray(blob)
        fn(buf, 0, 64, 128)
        nan_bits |= _nan_lane_bits(buf, 0, 16)
    buf = bytearray(blob)
    pyfallback.mxu_mm(buf, *DISJOINT)
    nan_bits |= _nan_lane_bits(buf, 0, 256)
    assert nan_bits == {CANON_NAN_BITS}


def test_vector_ops_are_lanewise_f32():
    buf = bytearray(struct.pack("<48f", *([1.5] * 16 + [2.25] * 16 + [0.0] * 16)))
    pyfallback.v_mul(buf, 128, 0, 64)
    lanes = struct.unpack_from("<16f", buf, 128)
    assert lanes == (3.375,) * 16
    pyfallback.v_add(buf, 0, 0, 0)         # one register as both sources and dst
    assert struct.unpack_from("<16f", buf, 0) == (3.0,) * 16
