"""Independent oracles the test suite checks the implementation against.

These deliberately avoid the production code paths they validate:
  dma_oracle            event-timeline calculator for DMA lifetimes (constant
                        base latency overlapped across slots; per-link FIFO
                        transfer serialization; three-way stall/slack split)
  naive_record          whole-machine-state recorder (baseline for the
                        first-use recorder's minimality claims)
  bruteforce_dep_oracle per-byte/per-register read-after-write tracker run
                        over a decoded instruction stream
  ByteSetOracle         per-byte model of the interval set
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from xshark.isa import (ISA_VERSION, MemSpace, Opcode, encode_instruction,
                        instruction_io_sets)
from xshark.recorder import ExecutionTrace, TraceHeader


# --------------------------------------------------------------- dma oracle

@dataclass
class OracleDma:
    issue_cycle: int
    link: str
    size: int
    wait_cycle: Optional[int] = None
    base_done: int = 0
    transfer_start: int = 0
    complete: int = 0
    stall_base: int = 0
    stall_transfer: int = 0
    slack: int = 0
    scenario: str = ""


def dma_oracle(dmas: List[dict], t_base: int, bandwidth) -> List[OracleDma]:
    """dmas: [{issue_cycle, link, size, wait_cycle?}] in issue order.
    bandwidth: int or {link: int}. Pure arithmetic, no engine objects."""
    out = []
    link_free: Dict[str, int] = {}
    for d in dmas:
        bw = bandwidth[d["link"]] if isinstance(bandwidth, dict) else bandwidth
        o = OracleDma(d["issue_cycle"], d["link"], d["size"], d.get("wait_cycle"))
        o.base_done = o.issue_cycle + t_base
        o.transfer_start = max(o.base_done, link_free.get(o.link, 0))
        o.complete = o.transfer_start + math.ceil(o.size / bw)
        link_free[o.link] = o.complete
        if o.wait_cycle is None:
            o.scenario = "unwaited"
        elif o.wait_cycle < o.base_done:
            o.stall_base = o.base_done - o.wait_cycle
            o.stall_transfer = o.complete - o.base_done
            o.scenario = "base_then_transfer"
        elif o.wait_cycle < o.complete:
            o.stall_transfer = o.complete - o.wait_cycle
            o.scenario = "transfer_only"
        else:
            o.slack = o.wait_cycle - o.complete
            o.scenario = "slack"
        out.append(o)
    return out


# ----------------------------------------------------------- naive recorder

def naive_record(session, n_instructions: int):
    """Snapshot the entire architectural state at the window start, then just
    record the stream. HBM is sparse and zero-backed, so "the entire state"
    means every backed page plus zeros for whatever unbacked bytes the window
    actually touches. Returns (ExecutionTrace, snapshot_bytes)."""
    from xshark.intervals import IntervalSet
    from xshark.isa import (PRED_REGS, SCALAR_REGS, VECTOR_REGS, MemRegion,
                            RegClass, RegisterId)

    state = session.state
    regs = []
    for i in range(SCALAR_REGS):
        r = RegisterId(RegClass.SCALAR, i)
        regs.append((r, state.read_reg_bytes(r)))
    for i in range(VECTOR_REGS):
        r = RegisterId(RegClass.VECTOR, i)
        regs.append((r, state.read_reg_bytes(r)))
    for i in range(PRED_REGS):
        r = RegisterId(RegClass.PREDICATE, i)
        regs.append((r, state.read_reg_bytes(r)))
    mems = [(MemRegion(MemSpace.VMEM, 0, state.vmem_capacity), bytes(state.vmem))]
    hbm_covered = IntervalSet()
    for page in sorted(state.hbm._pages):
        off = page * state.hbm.PAGE
        mems.append((MemRegion(MemSpace.HBM, off, state.hbm.PAGE),
                     bytes(state.hbm._pages[page])))
        hbm_covered.add(off, off + state.hbm.PAGE)
    start_pc, start_cycle = state.pc, state.cycle
    stream = []
    hbm_reads = []
    ended_at_halt = False
    for _ in range(n_instructions):
        instr = session.peek()
        if instr is None:
            ended_at_halt = True
            break
        pc = state.pc
        ios = instruction_io_sets(instr, state, pc)
        hbm_reads.extend(m for m in ios.input_mem if m.space is MemSpace.HBM)
        if session.step() is not None:
            break
        stream.append((pc, encode_instruction(instr)))
        if state.halted:
            ended_at_halt = True
            break
    session.sim.sync()
    for m in hbm_reads:
        for s, e in hbm_covered.uncovered(m.offset, m.end):
            mems.append((MemRegion(MemSpace.HBM, s, e - s), bytes(e - s)))
            hbm_covered.add(s, e)
    header = TraceHeader(ISA_VERSION, session.config.config_hash(), start_pc,
                         start_cycle, len(stream), ended_at_halt)
    trace = ExecutionTrace(header, regs, mems, stream)
    return trace, trace.snapshot_bytes


# ------------------------------------------------- brute-force dependencies

def bruteforce_dep_oracle(trace, config) -> set:
    """Exact read-after-write pairs (dependent, producer, label) computed by
    re-executing the stream with per-register and PER-BYTE last-writer dicts.
    Independent of the analyzer's event/interval-map machinery."""
    from xshark.replayer import _restore
    from xshark.sim import Simulator

    state = _restore(trace, config)
    sim = Simulator(config, state)
    last_reg: Dict[str, int] = {}
    last_byte: Dict[Tuple[str, int], int] = {}
    edges = set()
    for idx, (pc, instr) in enumerate(trace.decoded_stream()):
        state.pc = pc
        ios = instruction_io_sets(instr, state, pc)
        for r in ios.input_regs:
            p = last_reg.get(str(r))
            if p is not None:
                edges.add((idx, p, "register"))
        for m in ios.input_mem:
            for b in range(m.offset, m.end):
                p = last_byte.get((m.space.value, b))
                if p is not None:
                    edges.add((idx, p, m.space.value))
        fault = sim.exec_instruction(instr, pc, ios)
        assert fault is None, f"oracle replay fault: {fault}"
        for r in ios.output_regs:
            last_reg[str(r)] = idx
        for m in ios.output_mem:
            for b in range(m.offset, m.end):
                last_byte[(m.space.value, b)] = idx
        state.halted = False
    return edges


# ------------------------------------------------------- byte-set oracle

class ByteSetOracle:
    """Per-byte reference model for IntervalSet."""

    def __init__(self):
        self.bytes: set = set()

    def add(self, start, end):
        self.bytes.update(range(start, end))

    def remove(self, start, end):
        self.bytes.difference_update(range(start, end))

    def covers(self, start, end):
        return all(b in self.bytes for b in range(start, end))

    def overlaps(self, start, end):
        return any(b in self.bytes for b in range(start, end))

    def uncovered(self, start, end):
        out, run = [], None
        for b in range(start, end):
            if b not in self.bytes:
                if run is None:
                    run = b
            elif run is not None:
                out.append((run, b))
                run = None
        if run is not None:
            out.append((run, end))
        return out

    def spans(self):
        out, run, prev = [], None, None
        for b in sorted(self.bytes):
            if run is None:
                run = b
            elif b != prev + 1:
                out.append((run, prev + 1))
                run = b
            prev = b
        if run is not None:
            out.append((run, prev + 1))
        return out


class ByteMapOracle:
    """Per-byte reference model for IntervalMap: each byte remembers the
    store that wrote it last. A lookup reports one span per run of bytes
    from the same store, so two touching stores of one value stay apart."""

    def __init__(self):
        self.bytes: dict = {}               # byte -> (store number, value)
        self.stores = 0

    def store(self, start, end, value):
        self.stores += 1
        for b in range(start, end):
            self.bytes[b] = (self.stores, value)

    def lookup(self, start, end):
        out = []
        for b in range(start, end):
            hit = self.bytes.get(b)
            if hit is None:
                continue
            if out and out[-1][1] == b and out[-1][3] == hit[0]:
                out[-1][1] = b + 1
            else:
                out.append([b, b + 1, hit[1], hit[0]])
        return [(s, e, v) for s, e, v, _ in out]
