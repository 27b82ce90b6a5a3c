from .asm import (AsmError, AssembledKernel, apply_images, assemble,
                  disassemble, initial_state, load_bundle, save_bundle)
from .kernels import (GeneratedKernel, gen_allgather_kernel,
                      gen_checkerboard_kernel, gen_random_kernel,
                      gen_starvation_kernel)

__all__ = ["AsmError", "AssembledKernel", "apply_images", "assemble",
           "disassemble", "initial_state", "load_bundle", "save_bundle",
           "GeneratedKernel", "gen_allgather_kernel", "gen_checkerboard_kernel",
           "gen_random_kernel", "gen_starvation_kernel"]
