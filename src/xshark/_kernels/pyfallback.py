"""Pure-Python (numpy) implementations of the execute-stage kernels.

All arithmetic stays in float32 end to end, one rounding per operation, so
results match a scalar f32 reference bit for bit. Arithmetic that produces a
NaN yields the canonical quiet NaN (0x7fc00000): IEEE-754 leaves payload
propagation implementation defined, and numpy's own choice varies with array
shape, so the ISA pins it. The tile multiply snapshots its input tiles first:
partially overlapping dst/a/b tiles are legal and read the pre-op values.
"""

import numpy as np

BACKEND = "python"

LANES = 16
TILE = 16

CANON_NAN = np.frombuffer(b"\x00\x00\xc0\x7f", dtype=np.float32)[0]


def _lanes(buf, off):
    return np.frombuffer(buf, dtype=np.float32, count=LANES, offset=off)


def _canonicalize(arr):
    mask = np.isnan(arr)
    if mask.any():
        arr[mask] = CANON_NAN


def v_add(buf, d_off, a_off, b_off):
    d = _lanes(buf, d_off)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        np.add(_lanes(buf, a_off), _lanes(buf, b_off), out=d)
        _canonicalize(d)


def v_mul(buf, d_off, a_off, b_off):
    d = _lanes(buf, d_off)
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        np.multiply(_lanes(buf, a_off), _lanes(buf, b_off), out=d)
        _canonicalize(d)


def mxu_mm(buf, d_off, a_off, b_off):
    """dst += a @ b over 16x16 f32 row-major tiles, accumulating in f32.

    Per output element the products are added in ascending-k order; each
    add and each multiply rounds to single precision. NaN results are
    canonicalized once at the end (NaN-ness is sticky under accumulation,
    so this equals per-step canonicalization).
    """
    f = np.frombuffer(buf, dtype=np.float32)
    d = f[d_off // 4:d_off // 4 + TILE * TILE].reshape(TILE, TILE)
    a = f[a_off // 4:a_off // 4 + TILE * TILE].reshape(TILE, TILE).copy()
    b = f[b_off // 4:b_off // 4 + TILE * TILE].reshape(TILE, TILE).copy()
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        for k in range(TILE):
            d += a[:, k, None] * b[None, k, :]
        _canonicalize(d)
