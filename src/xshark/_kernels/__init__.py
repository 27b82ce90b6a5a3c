"""Arithmetic kernels for the vector and matrix units.

One implementation (numpy, `pyfallback`) of one contract: IEEE-754 single
precision, one rounding per operation, k-ascending accumulation order in the
tile multiply, and the canonical quiet NaN. Replays are bit-exact because
every run computes through these functions.
"""

from .pyfallback import BACKEND, mxu_mm, v_add, v_mul

__all__ = ["BACKEND", "mxu_mm", "v_add", "v_mul"]
