"""Arithmetic kernels for the vector and matrix units.

One implementation (`pyfallback`) of one contract: IEEE-754 single
precision, one rounding per operation, k-ascending accumulation order in the
tile multiply, and the canonical quiet NaN. The vector ops compute in Python
doubles rounded once to f32; the tile multiply sums its f32 products with
one sequential numpy accumulate (docs/isa.md, "Floating point"). Replays are
bit-exact because every run computes through these functions.

`pyfallback`, and so numpy, is imported on the first use of a name below:
numpy costs more start-up time than the rest of xshark, and a step that
executes no V_ADD, V_MUL or MXU_MM never needs it.
"""

__all__ = ["BACKEND", "mxu_mm", "v_add", "v_mul"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pyfallback
    for attr in __all__:
        globals()[attr] = getattr(pyfallback, attr)
    return globals()[name]
