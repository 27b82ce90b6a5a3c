"""Arithmetic kernels for the vector and matrix units.

One implementation (`pyfallback`) of one contract: IEEE-754 single
precision, one rounding per operation, k-ascending accumulation order in the
tile multiply, and the canonical quiet NaN. The vector ops compute in Python
doubles rounded once to f32; the tile multiply sums its f32 products with
one sequential numpy accumulate (docs/isa.md, "Floating point"). Replays are
bit-exact because every run computes through these functions.

Only the tile multiply uses numpy, which costs more start-up time than the
rest of xshark: `mxu_mm` imports it on its first call, so a step that
executes no MXU_MM never loads it.
"""

from .pyfallback import BACKEND, mxu_mm, v_add, v_mul

__all__ = ["BACKEND", "mxu_mm", "v_add", "v_mul"]
