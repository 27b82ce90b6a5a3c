"""Step-debugger facade over the simulator.

Provides exactly the primitives the execution recorder needs: single step,
a look at the next instruction, and running to the Nth arrival at a pc.
The breakpoint is a plain pc compare in the session loop; the recorder
reads registers and memory through the pure reads of `MachineState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .isa import Fault, Instruction, MachineState, Program
from .sim import PerfTracker, SimConfig, Simulator


@dataclass(frozen=True)
class Breakpoint:
    pc: int
    hit_count_target: int = 1      # break on the Nth time pc is reached

    def __post_init__(self):
        if self.hit_count_target < 1:
            raise ValueError("hit_count_target must be >= 1")


class DebugSession:
    """One session per simulator instance; externally synchronized."""

    def __init__(self, program: Program, config: SimConfig,
                 state: Optional[MachineState] = None,
                 tracker: Optional[PerfTracker] = None):
        self.program = program
        self.config = config
        self.sim = Simulator(config, state, program, tracker)
        if state is None:
            self.sim.state.pc = program.entry_pc

    @property
    def state(self) -> MachineState:
        return self.sim.state

    def peek(self) -> Optional[Instruction]:
        """Instruction about to execute, decoded, without stepping."""
        pc = self.state.pc
        if self.state.halted or not 0 <= pc < len(self.program):
            return None
        return self.program.instructions[pc]

    def step(self) -> Optional[Fault]:
        return self.sim.step()

    def run_to(self, bp: Breakpoint, max_cycles: int = 10_000_000) -> str:
        """Step until the machine reaches bp.pc for the hit_count_target-th
        time, stopping *before* that instruction executes. Returns "hit",
        or how the run ended instead: "halted", "budget" or "fault"."""
        if not 0 <= bp.pc < len(self.program):
            raise Fault("bp_oob", f"breakpoint pc {bp.pc} outside program")
        state, hits = self.state, 0
        while not state.halted:
            if state.cycle >= max_cycles:
                return "budget"
            if state.pc == bp.pc:
                hits += 1
                if hits == bp.hit_count_target:
                    return "hit"
            if self.sim.step() is not None:
                return "fault"
        return "halted"
