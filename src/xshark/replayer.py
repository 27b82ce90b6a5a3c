"""Trace replayer: restores a trace's first-use snapshots into a fresh
machine and re-executes the recorded linear instruction stream.

The recorded stream already linearizes control flow, so branches are not
re-resolved; each entry is executed at its recorded pc. A read of a register
or byte that has neither a snapshot nor an in-window producer is a hard
divergence error naming the stream index - never a silent zero-fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .intervals import IntervalSet
from .isa import (EncodingError, Fault, MachineState, MemSpace,
                  decode_instruction, instruction_io_sets)
from .recorder import ExecutionTrace, RecordResult, TraceError
from .sim import PerfTracker, SimConfig, Simulator, state_digest


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
    written_regs: frozenset
    written_mem: Dict[MemSpace, list]
    digest: str
    fault: Optional[Fault] = None

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
                   check_pc_chain: bool, strict_config: bool) -> ReplayResult:
    if strict_config:
        trace.check_config_hash(config.config_hash())
    state = _restore(trace, config)
    sim = Simulator(config, state, None, tracker)
    defined_regs = {r for r, _ in trace.reg_snapshots}
    defined_mem = {MemSpace.VMEM: IntervalSet(), MemSpace.HBM: IntervalSet()}
    for region, _ in trace.mem_snapshots:
        defined_mem[region.space].add(region.offset, region.end)
    written_regs = set()
    written_mem = {MemSpace.VMEM: IntervalSet(), MemSpace.HBM: IntervalSet()}

    entries = [trace.instr_stream[i] for i in order]
    last = len(entries) - 1
    fault = None
    for k, (pc, raw) in enumerate(entries):
        try:
            instr = decode_instruction(raw)
        except EncodingError as e:
            raise TraceError("TRACE_FORMAT", f"instruction record {order[k]} "
                             f"does not decode: {e}") from None
        if check_pc_chain and k > 0 and state.pc != pc:
            raise ReplayDivergence(k, f"control flow reached pc {state.pc}, "
                                      f"trace recorded pc {pc}")
        state.pc = pc
        try:
            ios = instruction_io_sets(instr, state, pc)
        except Fault as f:
            if k == last and trace.header.fault_kind is not None:
                fault = f
                break
            raise ReplayDivergence(k, f"IO parse fault: {f.describe()}") from None
        for r in ios.input_regs:
            if r not in defined_regs:
                raise ReplayDivergence(
                    k, f"{instr.opcode.name} at pc {pc} reads {r} which has no "
                       "snapshot and no in-window producer")
        for m in ios.input_mem:
            if not defined_mem[m.space].covers(m.offset, m.end):
                missing = defined_mem[m.space].uncovered(m.offset, m.end)
                raise ReplayDivergence(
                    k, f"{instr.opcode.name} at pc {pc} reads {m} with "
                       f"uncovered bytes {missing}")
        out = sim.exec_instruction(instr, pc)
        if out.fault is not None:
            if k == last and trace.header.fault_kind is not None:
                fault = out.fault
                break
            raise ReplayDivergence(k, f"unexpected fault: {out.fault.describe()}")
        for r in ios.output_regs:
            defined_regs.add(r)
            written_regs.add(r)
        for m in ios.output_mem:
            defined_mem[m.space].add(m.offset, m.end)
            written_mem[m.space].add(m.offset, m.end)
        state.halted = False      # a recorded HALT must not stop the stream

    if trace.header.ended_at_halt and fault is None:
        state.halted = True
    sim.sync()
    for slot in state.dma_slots:
        if slot.active and not slot.applied:
            written_mem[slot.dst.space].remove(slot.dst.offset, slot.dst.end)
    spans = {sp: list(iv) for sp, iv in written_mem.items()}
    digest = state_digest(state, frozenset(written_regs), spans)
    return ReplayResult(state, state.cycle, len(entries), dict(sim.stall_cycles),
                        frozenset(written_regs), spans, digest, fault)


def replay(trace: ExecutionTrace, config: SimConfig,
           tracker: Optional[PerfTracker] = None,
           strict_config: bool = True) -> ReplayResult:
    """Replay the recorded window under `config`, emitting performance events.

    strict_config=False skips the config-hash gate; architectural results are
    provably timing-independent, but event timings will differ.
    """
    return _replay_stream(trace, config, range(len(trace.instr_stream)),
                          tracker, check_pc_chain=True,
                          strict_config=strict_config)


def replay_with_schedule(trace: ExecutionTrace, order: Sequence[int],
                         config: SimConfig,
                         tracker: Optional[PerfTracker] = None,
                         strict_config: bool = True) -> ReplayResult:
    """Replay a permuted instruction stream (used to verify reorderings).

    A permutation that breaks a dependency surfaces as a divergence error or
    as a digest mismatch against the unpermuted replay; never silently.
    """
    n = len(trace.instr_stream)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the instruction stream")
    return _replay_stream(trace, config, list(order), tracker,
                          check_pc_chain=False, strict_config=strict_config)


def compare_window(live_state: MachineState, recorded: RecordResult,
                   replayed: ReplayResult) -> dict:
    """Bit-exactness verdict between a live window and its replay: write
    footprints must match and all written locations must hold equal bytes."""
    live_spans = {sp: list(v) for sp, v in recorded.written_mem.items()}
    footprints_equal = (set(recorded.written_regs) == set(replayed.written_regs)
                        and live_spans == replayed.written_mem)
    live_digest = state_digest(live_state, recorded.written_regs, live_spans)
    return {"footprints_equal": footprints_equal,
            "digest_equal": live_digest == replayed.digest,
            "equal": footprints_equal and live_digest == replayed.digest,
            "live_digest": live_digest,
            "replay_digest": replayed.digest}
