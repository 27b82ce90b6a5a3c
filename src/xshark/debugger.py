"""Breakpoints for `Simulator.run_to`. The simulator is the step debugger:
`step`, `peek` and `run_to` are the primitives the recorder needs. `run_to`
runs `Simulator.run`'s loop, which stops before the Nth arrival at a pc.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sim import Simulator


@dataclass(frozen=True)
class Breakpoint:
    pc: int
    hit_count_target: int = 1      # break on the Nth time pc is reached

    def __post_init__(self):
        if self.hit_count_target < 1:
            raise ValueError("hit_count_target must be >= 1")


DebugSession = Simulator   # the name perfbench's workloads.py and tracing.py use
