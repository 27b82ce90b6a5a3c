"""xshark: record-and-replay performance analysis for a toy ML accelerator.

A reference ISA simulator with a performance tracker, a step-debugger-driven
execution recorder, a trace replayer, and analyzers that classify DMA
stalls, measure cycle-granular unit and scratchpad utilization, build
dependency graphs and verify suggested instruction reorderings by
re-simulation.

`gc_paused` turns the collector off for `cli.main` and for each library call
whose result is about as large as its input (none makes cyclic garbage); it
wraps no per-instruction call and no generator, whose pause would end at its
first `yield`.
"""

import gc
from functools import wraps

__version__ = "0.1.0"


def gc_paused(fn):
    """`fn` with the collector off for the call, and on again after it
    returns or raises if it was on before; the freeze count is untouched."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():          # nested, or the caller turned it off
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused
