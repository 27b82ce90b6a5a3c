"""Kernel sources: the assembler and its program bundle (asm), and the
kernel generators (kernels), which are imported on first use (PEP 562), so
that a step that only assembles or loads a bundle does not load them."""

from .asm import (AsmError, AssembledKernel, apply_images, assemble,
                  disassemble, initial_state, load_bundle, save_bundle)

_KERNELS = ("GeneratedKernel", "gen_allgather_kernel", "gen_checkerboard_kernel",
            "gen_random_kernel", "gen_starvation_kernel")

__all__ = ["AsmError", "AssembledKernel", "apply_images", "assemble",
           "disassemble", "initial_state", "load_bundle", "save_bundle",
           *_KERNELS]


def __getattr__(name):
    if name not in _KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import kernels
    value = globals()[name] = getattr(kernels, name)
    return value
