"""The execute-stage kernels, each bit-exact to a scalar f32 reference.

Every result is the IEEE-754 single-precision result of one rounding per
operation. Arithmetic that produces a NaN yields the canonical quiet NaN
(0x7fc00000): IEEE-754 leaves payload propagation implementation defined, so
the ISA pins it. Buffers hold little-endian f32 lanes, as `array("f")` and
numpy's float32 do on the little-endian hosts xshark runs on.

- `v_add`/`v_mul` compute the 16 lanes in Python doubles and round each once
  to f32 through `array("f")`. That is exact for both: an f32 x f32 product
  is exact in a double, and for a sum the two roundings (to double, then to
  f32) give the correctly rounded f32 because 53 >= 2*24 + 2.
- `mxu_mm` forms all 4,096 products with one f32 broadcast multiply and adds
  them in ascending k with one `np.add.accumulate` along k, which is the
  sequential f32 sum by definition. `np.add.reduce`, `np.sum` and `matmul`
  never sum the tile: their summation order is not this contract's. It
  imports numpy on its first call; the vector ops never need it.
"""

import struct
from array import array
from operator import add, mul

BACKEND = "python"

LANES = 16
TILE = 16

CANON_NAN_BITS = 0x7FC00000
_VREG = struct.Struct(f"<{LANES}f")
_LANE_BITS = struct.Struct("<I")


def _lanewise(op, buf, d_off, a_off, b_off):
    """dst = op(a, b) lane by lane: the sources are read before dst is
    written, so any of the three may alias."""
    lanes = list(map(op, _VREG.unpack_from(buf, a_off), _VREG.unpack_from(buf, b_off)))
    buf[d_off:d_off + _VREG.size] = array("f", lanes)
    total = sum(lanes)
    if total != total:       # some lane is NaN, or lanes hold both infinities
        for i, x in enumerate(lanes):
            if x != x:
                _LANE_BITS.pack_into(buf, d_off + 4 * i, CANON_NAN_BITS)


def v_add(buf, d_off, a_off, b_off):
    _lanewise(add, buf, d_off, a_off, b_off)


def v_mul(buf, d_off, a_off, b_off):
    _lanewise(mul, buf, d_off, a_off, b_off)


def mxu_mm(buf, d_off, a_off, b_off):
    """dst += a @ b over 16x16 f32 row-major tiles, accumulating in f32.

    Per output element the products are added in ascending-k order, starting
    from dst; each add and each multiply rounds to single precision. The
    products are formed before dst is written, so partially overlapping
    tiles read their pre-op values. NaN results are canonicalized once at
    the end (NaN-ness is sticky under accumulation, so this equals per-step
    canonicalization).
    """
    import numpy as np
    f = np.frombuffer(buf, dtype=np.float32)
    d = f[d_off // 4:d_off // 4 + TILE * TILE].reshape(TILE, TILE)
    a = f[a_off // 4:a_off // 4 + TILE * TILE].reshape(TILE, TILE)
    b = f[b_off // 4:b_off // 4 + TILE * TILE].reshape(TILE, TILE)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        terms = a.T[:, :, None] * b[:, None, :]      # terms[k, i, j] = a[i, k] * b[k, j]
        terms[0] += d
        # each complex64 holds two adjacent f32 terms and a complex add is
        # two independent f32 adds, so this is the sequential f32 sum over
        # k of every element, in half the inner loops of a float32 view
        pairs = terms.view(np.complex64)
        np.add.accumulate(pairs, axis=0, out=pairs)
        d[...] = terms[-1]
        nan = np.isnan(d)
        if nan.any():
            d.view(np.uint32)[nan] = CANON_NAN_BITS
