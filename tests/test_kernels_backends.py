"""Kernel contract: f32 results bit-identical to a scalar reference, aliased
tiles read their pre-op values, and every NaN is the canonical quiet NaN."""

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
