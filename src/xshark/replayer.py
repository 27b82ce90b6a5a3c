"""Trace replayer: restores a trace's first-use snapshots into a fresh
machine and re-executes the recorded linear instruction stream.

The recorded stream already linearizes control flow, so branches are not
re-resolved; each entry is executed at its recorded pc. A read of a location
the window never defined, and any fault, is a hard divergence error naming
the stream index - never a silent zero-fill. The window's rule is
docs/trace-format.md, "Window footprint and the `window:` digest".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .isa import Fault, MachineState, instruction_io_sets
from .recorder import ExecutionTrace, RecordResult
from .sim import PerfTracker, SimConfig, Simulator, state_digest
from .window import Footprint


class ReplayDivergence(Exception):
    def __init__(self, index: int, message: str):
        super().__init__(f"replay diverged at stream index {index}: {message}")
        self.index = index


@dataclass
class ReplayResult:
    state: MachineState
    cycles: int
    executed: int
    stall_cycles: dict
    footprint: Footprint
    digest: str

    @property
    def total_stall(self) -> int:
        return sum(self.stall_cycles.values())


def _restore(trace: ExecutionTrace, config: SimConfig) -> MachineState:
    state = config.make_state()
    for r, data in trace.reg_snapshots:
        state.write_reg_bytes(r, data)
    for region, data in trace.mem_snapshots:
        state.write_mem(region, data)
    state.pc = trace.header.start_pc
    return state


def _replay_stream(trace: ExecutionTrace, config: SimConfig,
                   order: Sequence[int], tracker: Optional[PerfTracker],
                   check_pc_chain: bool) -> ReplayResult:
    trace.check_config_hash(config.config_hash())
    ledger = trace.validate()
    stream = trace.decoded_stream()
    state = _restore(trace, config)
    sim = Simulator(config, state, None, tracker)
    for k, i in enumerate(order):
        pc, instr = stream[i]
        if check_pc_chain and k > 0 and state.pc != pc:
            raise ReplayDivergence(k, f"control flow reached pc {state.pc}, "
                                      f"trace recorded pc {pc}")
        state.pc = pc
        try:
            ios = instruction_io_sets(instr, state, pc)
        except Fault as f:
            raise ReplayDivergence(k, f"IO parse fault: {f.describe()}") from None
        for r in ledger.first_reg_uses(ios):
            raise ReplayDivergence(
                k, f"{instr.opcode.name} at pc {pc} reads {r} which has no "
                   "snapshot and no in-window producer")
        for m, missing in ledger.first_mem_uses(ios):
            raise ReplayDivergence(
                k, f"{instr.opcode.name} at pc {pc} reads {m} with "
                   f"uncovered bytes {missing}")
        fault = sim.exec_instruction(instr, pc, ios)
        if fault is not None:
            raise ReplayDivergence(k, f"unexpected fault: {fault.describe()}")
        ledger.wrote(ios)
        state.halted = False      # a recorded HALT must not stop the stream

    # the live machine stopped where the window ended at a HALT or a fault
    state.halted = trace.header.ended_at_halt or trace.header.fault_kind is not None
    sim.sync()
    footprint = ledger.close(state.dma_slots)
    return ReplayResult(state, state.cycle, len(order), dict(sim.stall_cycles),
                        footprint, state_digest(state, footprint))


def replay(trace: ExecutionTrace, config: SimConfig,
           tracker: Optional[PerfTracker] = None) -> ReplayResult:
    """Replay the recorded window under `config` (the config-hash gate
    applies), emitting performance events."""
    return _replay_stream(trace, config, range(len(trace.instr_stream)),
                          tracker, check_pc_chain=True)


def replay_with_schedule(trace: ExecutionTrace, order: Sequence[int],
                         config: SimConfig,
                         tracker: Optional[PerfTracker] = None) -> ReplayResult:
    """Replay a permuted instruction stream (used to verify reorderings).

    A permutation that breaks a dependency surfaces as a divergence error or
    as a digest mismatch against the unpermuted replay; never silently.
    """
    n = len(trace.instr_stream)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the instruction stream")
    return _replay_stream(trace, config, list(order), tracker,
                          check_pc_chain=False)


def compare_window(live_state: MachineState, recorded: RecordResult,
                   replayed: ReplayResult) -> dict:
    """Bit-exactness verdict between a live window and its replay: write
    footprints must match and all written locations must hold equal bytes."""
    footprints_equal = recorded.footprint == replayed.footprint
    live_digest = state_digest(live_state, recorded.footprint)
    return {"footprints_equal": footprints_equal,
            "digest_equal": live_digest == replayed.digest,
            "equal": footprints_equal and live_digest == replayed.digest,
            "live_digest": live_digest,
            "replay_digest": replayed.digest}
