"""Cycle-level reference simulator with a performance-event callback sink.

Execution model: single hardware thread, one instruction in flight at a time
(each instruction runs to retirement before the next issues); the DMA engine
runs asynchronously alongside. A DMA's base latency is constant and is
overlapped freely across slots; transfer intervals on one link (source/dest
space pair) never overlap and are scheduled FIFO in base-done order.

Memory ordering is made timing-independent by two rules:
  * a DMA snapshots its source bytes at issue;
  * any instruction touching bytes that an in-flight DMA will write stalls
    (a "hazard" stall) until that DMA completes; its destination bytes become
    visible atomically at complete_cycle.
Together these guarantee that changing timing parameters never changes
architectural results.
"""

from __future__ import annotations

import heapq
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import List, Optional

from . import _kernels
from .isa import (CMP_MODES, DMA_DIR_NAMES, DMA_DIRS, PAGE_BYTES, VLEN_BYTES,
                  VMEM_BUCKETS, DEFAULT_HBM_CAPACITY, DEFAULT_VMEM_CAPACITY, Fault,
                  Instruction, IoSets, MachineState, MemRegion, Opcode,
                  Program, RegClass, Unit, instruction_io_sets)

_LINK_NAMES = {DMA_DIRS[d]: name for d, name in DMA_DIR_NAMES.items()}
_NAME_LINKS = {v: k for k, v in _LINK_NAMES.items()}


@dataclass
class SimConfig:
    """Timing and sizing knobs. The hash of the timing fields is embedded in
    traces so replays refuse to run under a different clock."""

    t_base: int = 100                       # DMA base latency, cycles
    link_bandwidth: dict = field(default_factory=lambda: {
        "hbm>vmem": 32, "vmem>hbm": 32, "vmem>vmem": 32, "hbm>hbm": 32})
    unit_latency: dict = field(default_factory=lambda: {
        "SALU": 1, "VALU": 2, "LSU": 3, "MXU": 32, "DMA": 1, "CTRL": 1})
    vmem_capacity: int = DEFAULT_VMEM_CAPACITY
    hbm_capacity: int = DEFAULT_HBM_CAPACITY

    def __post_init__(self):
        for name in ("t_base", "vmem_capacity", "hbm_capacity"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        for name in ("link_bandwidth", "unit_latency"):
            table = getattr(self, name)
            if not (isinstance(table, dict)
                    and all(type(v) is int for v in table.values())):
                raise ValueError(f"{name} must be an object of integers")
        if self.t_base <= 0:
            raise ValueError("t_base must be positive")
        if self.hbm_capacity <= 0:
            raise ValueError("hbm_capacity must be positive")
        for k, v in self.link_bandwidth.items():
            if k not in _NAME_LINKS:
                raise ValueError(f"unknown link {k!r}")
            if v <= 0:
                raise ValueError(f"bandwidth for {k} must be positive")
        for u in Unit:
            if self.unit_latency.get(u.value, 0) <= 0:
                raise ValueError(f"missing/invalid latency for {u.value}")
        bucket = VMEM_BUCKETS * PAGE_BYTES
        if self.vmem_capacity <= 0 or self.vmem_capacity % bucket:
            raise ValueError(f"vmem_capacity must be a positive multiple of "
                             f"{bucket} bytes ({VMEM_BUCKETS} whole-page buckets)")

    def bandwidth(self, link) -> int:
        return self.link_bandwidth[_LINK_NAMES[link]]

    def latency(self, unit: Unit) -> int:
        return self.unit_latency[unit.value]

    def to_json(self) -> dict:
        return {"t_base": self.t_base,
                "link_bandwidth": dict(sorted(self.link_bandwidth.items())),
                "unit_latency": dict(sorted(self.unit_latency.items())),
                "vmem_capacity": self.vmem_capacity,
                "hbm_capacity": self.hbm_capacity}

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        base = SimConfig()
        tables = {}
        for name in ("link_bandwidth", "unit_latency"):
            table = d.get(name, {})
            if not isinstance(table, dict):
                raise ValueError(f"{name} must be an object of integers")
            tables[name] = {**getattr(base, name), **table}
        return SimConfig(
            t_base=d.get("t_base", base.t_base),
            **tables,
            vmem_capacity=d.get("vmem_capacity", base.vmem_capacity),
            hbm_capacity=d.get("hbm_capacity", base.hbm_capacity))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def make_state(self) -> MachineState:
        return MachineState(self.vmem_capacity, self.hbm_capacity)


# Performance event kinds (cycle order within a log is nondecreasing).
INSTR_ISSUE = "instr_issue"
INSTR_RETIRE = "instr_retire"
UNIT_BUSY = "unit_busy"
STALL_BEGIN = "stall_begin"
STALL_END = "stall_end"
DMA_ISSUE_EV = "dma_issue"
DMA_BASE_DONE = "dma_base_done"
DMA_TRANSFER_START = "dma_transfer_start"
DMA_COMPLETE = "dma_complete"
REG_READ = "reg_read"
REG_WRITE = "reg_write"
MEM_READ = "mem_read"
MEM_WRITE = "mem_write"

STALL_HAZARD = "hazard"
STALL_DMA_BASE = "dma_base"
STALL_DMA_TRANSFER = "dma_transfer"

# kind -> (required payload fields, optional ones): the rows of
# docs/events.md, "Event kinds"; every line also has `cycle` and `kind`
EVENT_FIELDS = {
    INSTR_ISSUE: ("pc idx opcode unit", "slot dma_id annulled"),
    INSTR_RETIRE: ("pc idx", ""),
    UNIT_BUSY: ("pc idx unit until", ""),
    STALL_BEGIN: ("pc idx reason", "slot dma_id"),
    STALL_END: ("pc idx reason", "slot dma_id"),
    DMA_ISSUE_EV: ("pc idx slot dma_id link size src_region dst_region", ""),
    DMA_BASE_DONE: ("idx slot dma_id", ""),
    DMA_TRANSFER_START: ("idx slot dma_id", ""),
    DMA_COMPLETE: ("idx slot dma_id", ""),
    REG_READ: ("pc idx reg", ""),
    REG_WRITE: ("pc idx reg", ""),
    MEM_READ: ("pc idx region", "dma_id"),
    MEM_WRITE: ("pc idx region", "dma_id"),
}
EVENT_KINDS = frozenset(EVENT_FIELDS)
# kind -> (the keys a line of that kind must have, the keys it may have)
_KIND_KEYS = {kind: (frozenset(f"cycle kind {req}".split()),
                     frozenset(f"cycle kind {req} {opt}".split()))
              for kind, (req, opt) in EVENT_FIELDS.items()}


@dataclass(slots=True)
class PerfEvent:
    cycle: int
    kind: str
    pc: Optional[int] = None
    idx: Optional[int] = None
    opcode: Optional[str] = None
    unit: Optional[str] = None
    reg: Optional[str] = None
    region: Optional[MemRegion] = None
    src_region: Optional[MemRegion] = None
    dst_region: Optional[MemRegion] = None
    slot: Optional[int] = None
    dma_id: Optional[int] = None
    link: Optional[str] = None
    size: Optional[int] = None
    reason: Optional[str] = None
    until: Optional[int] = None
    annulled: Optional[bool] = None

    def to_json(self) -> dict:
        """The set fields in name order, regions as {"len", "offset",
        "space"}: plain json.dumps of it is the event's log line."""
        return {k: _region_json(v) if type(v) is MemRegion else v
                for k, v in zip(_EVENT_FIELDS, _event_values(self))
                if v is not None}

    @staticmethod
    def from_json(d: dict) -> "PerfEvent":
        kind = d["kind"]
        if kind not in _KIND_KEYS:
            raise ValueError(f"unknown event kind {kind!r}")
        required, allowed = _KIND_KEYS[kind]
        if not required <= d.keys() <= allowed:
            raise ValueError(f"{kind} event lacks {sorted(required - d.keys())} "
                             f"or has unlisted {sorted(d.keys() - allowed)}")
        for name, value in d.items():
            want = _FIELD_TYPES[name]
            if type(value) is not want or (want is int and value < 0):
                raise ValueError(f"event field {name!r} must be {_MUST[want]}, "
                                 f"got {value!r}")
        ev = PerfEvent(**d)
        for name in _REGION_FIELDS.intersection(d):
            setattr(ev, name, MemRegion.from_json(d[name]))
        return ev


_EVENT_FIELDS = tuple(sorted(f.name for f in fields(PerfEvent)))
_event_values = attrgetter(*_EVENT_FIELDS)
_REGION_FIELDS = frozenset({"region", "src_region", "dst_region"})
# field -> the type of its JSON value: a region is an object, and an int
# field holds an int >= 0, never a bool (docs/events.md)
_FIELD_TYPES = {f.name: {"int": int, "str": str, "bool": bool, "MemRegion": dict}[
    f.type.removeprefix("Optional[").rstrip("]")] for f in fields(PerfEvent)}
_MUST = {int: "an int >= 0", str: "a string", bool: "a boolean", dict: "a region object"}
# the DMA engine's events and a DMA_WAIT's issue, each after the dma_issue
# of its dma_id
_DMA_ENGINE_KINDS = frozenset({DMA_BASE_DONE, DMA_TRANSFER_START, DMA_COMPLETE})
_DMA_WAIT = Opcode.DMA_WAIT.name


def _region_json(r: MemRegion) -> dict:
    return {"len": r.length, "offset": r.offset, "space": r.space.value}


class PerfTracker:
    """Observational callback sink; must never affect architectural results."""

    def on_event(self, ev: PerfEvent):
        raise NotImplementedError


class NullTracker(PerfTracker):
    def on_event(self, ev: PerfEvent):
        pass


class RecordingTracker(PerfTracker):
    def __init__(self):
        self.events: List[PerfEvent] = []

    def on_event(self, ev: PerfEvent):
        self.events.append(ev)


def events_to_jsonl(events, summary: Optional[dict] = None) -> str:
    """One JSON object per line with sorted keys (docs/events.md); the
    summary line, when given, comes last."""
    lines = list(map(json.dumps, map(PerfEvent.to_json, events)))
    if summary is not None:
        lines.append(json.dumps({"kind": "summary", **summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def events_from_jsonl(text: str):
    """Returns (events, summary_or_None). A line that is not JSON, or not an
    object with a known `kind` and known fields of the right types, raises
    ValueError, and so does a line that breaks a reference rule of
    docs/events.md (`idx` and `dma_id` refer to earlier lines)."""
    events, summary, issued, issues = [], None, set(), 0
    loads, from_json, append = json.loads, PerfEvent.from_json, events.append
    try:
        for line in text.splitlines():
            if not line or line.isspace():
                continue
            d = loads(line)
            if d.get("kind") == "summary":
                summary = d
                continue
            ev = from_json(d)
            if ev.kind == INSTR_ISSUE:
                if ev.idx != issues:
                    raise ValueError(f"instr_issue idx {ev.idx} is not {issues}")
                issues += 1
            elif ev.idx is not None and ev.idx > issues:
                raise ValueError(f"idx {ev.idx} is past the next instr_issue")
            if ev.kind == DMA_ISSUE_EV:
                issued.add(ev.dma_id)
            elif (ev.kind in _DMA_ENGINE_KINDS or ev.opcode == _DMA_WAIT
                  and not ev.annulled) and ev.dma_id not in issued:
                raise ValueError(f"dma_id {ev.dma_id} has no earlier dma_issue")
            append(ev)
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            Fault) as e:
        line = line.strip()
        raise ValueError(f"bad event line {line[:80]!r}: {e!r}") from None
    return events, summary


@dataclass
class RunResult:
    outcome: str                  # "halted" | "budget" | "fault"
    state: MachineState
    cycles: int
    executed: int
    stall_cycles: dict
    fault: Optional[Fault] = None

    @property
    def total_stall(self) -> int:
        return sum(self.stall_cycles.values())


class Simulator:
    """Executes instructions against a MachineState, reporting events to a
    tracker. One instance per state; not thread-safe."""

    def __init__(self, config: SimConfig, state: Optional[MachineState] = None,
                 program: Optional[Program] = None,
                 tracker: Optional[PerfTracker] = None):
        self.config = config
        self.state = state if state is not None else config.make_state()
        self.program = program
        self.tracker = tracker if tracker is not None else NullTracker()
        self._emit = not isinstance(self.tracker, NullTracker)
        self.stream_index = 0
        self.stall_cycles = {STALL_HAZARD: 0, STALL_DMA_BASE: 0, STALL_DMA_TRANSFER: 0}
        self._pending: list = []   # (cycle, seq, PerfEvent)
        self._pseq = 0

    # -- event plumbing ------------------------------------------------------

    def _queue(self, ev: PerfEvent):
        heapq.heappush(self._pending, (ev.cycle, self._pseq, ev))
        self._pseq += 1

    def _flush(self, upto: int):
        while self._pending and self._pending[0][0] <= upto:
            self.tracker.on_event(heapq.heappop(self._pending)[2])

    def _send(self, ev: PerfEvent):
        self._flush(ev.cycle)
        self.tracker.on_event(ev)

    # -- DMA engine ----------------------------------------------------------

    def _advance_engine(self, upto: int):
        for slot in self.state.dma_slots:
            if slot.active and not slot.applied and slot.complete_cycle <= upto:
                self.state.write_mem(slot.dst, slot.buffer)
                slot.applied = True
                slot.buffer = b""

    def sync(self):
        """Apply completed transfers and flush queued events up to now."""
        self._advance_engine(self.state.cycle)
        if self._emit:
            self._flush(self.state.cycle)

    # -- execution -----------------------------------------------------------

    def fetch(self) -> Instruction:
        """The instruction at pc; a pc outside the program is a Fault."""
        pc = self.state.pc
        if self.program is None or not 0 <= pc < len(self.program):
            raise Fault("pc_oob", f"pc {pc} outside program", pc)
        return self.program.instructions[pc]

    def step(self) -> Optional[Fault]:
        """Execute the instruction at pc: returns its Fault, which halts the
        machine, or None. A halted machine does not step."""
        state = self.state
        if state.halted:
            return None
        pc = state.pc
        try:
            instr = self.fetch()
            ios = instruction_io_sets(instr, state, pc)
        except Fault as f:
            state.halted = True
            return f
        return self.exec_instruction(instr, pc, ios)

    def run(self, max_cycles: int) -> RunResult:
        if max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        state, fault = self.state, None
        while fault is None and not state.halted and state.cycle < max_cycles:
            fault = self.step()
        self.sync()
        outcome = ("fault" if fault is not None
                   else "halted" if state.halted else "budget")
        return RunResult(outcome, state, state.cycle,
                         self.stream_index, dict(self.stall_cycles), fault)

    def exec_instruction(self, instr: Instruction, pc: int,
                         ios: IoSets) -> Optional[Fault]:
        """Execute one instruction to retirement, given its footprint `ios`
        (instruction_io_sets from the current state); advances the cycle by
        issue-wait plus unit latency. Returns the step's Fault, which halts
        the machine, or None."""
        state = self.state
        idx = self.stream_index
        start = state.cycle
        if instr.predicate is not None and not state.pregs[instr.predicate.index]:
            retire, next_pc = start + 1, pc + 1
            if self._emit:
                self._send(PerfEvent(start, REG_READ, pc=pc, idx=idx,
                                     reg=str(instr.predicate)))
                self._send(PerfEvent(start, INSTR_ISSUE, pc=pc, idx=idx,
                                     opcode=instr.opcode.name,
                                     unit=instr.unit.value, annulled=True))
                self._send(PerfEvent(retire, INSTR_RETIRE, pc=pc, idx=idx))
        else:
            # Hazard interlock: touching bytes an in-flight DMA will write
            # blocks until that DMA completes (keeps results timing-independent).
            issue = start
            touched = ios.input_mem + ios.output_mem
            if touched:
                for slot in state.dma_slots:
                    if (slot.active and not slot.applied
                            and any(r.overlaps(slot.dst) for r in touched)):
                        issue = max(issue, slot.complete_cycle)
            if issue > start:
                self._stall(STALL_HAZARD, start, issue, pc, idx)
            self._advance_engine(issue)
            try:
                retire, next_pc = self._execute(instr, pc, idx, issue, ios)
            except Fault as f:
                state.halted = True
                return f
        state.cycle = retire
        state.pc = next_pc
        self.stream_index = idx + 1
        return None

    # -- per-instruction events (callers of _issue/_retire check _emit) -----

    def _issue(self, instr, pc, idx, cycle, ios, slot=None, dma_id=None):
        """Emit instr_issue, then its reg_reads, then its mem_reads."""
        send = self._send
        send(PerfEvent(cycle, INSTR_ISSUE, pc=pc, idx=idx, opcode=instr.opcode.name,
                       unit=instr.unit.value, slot=slot, dma_id=dma_id))
        for r in ios.input_regs:
            send(PerfEvent(cycle, REG_READ, pc=pc, idx=idx, reg=str(r)))
        for m in ios.input_mem:
            send(PerfEvent(cycle, MEM_READ, pc=pc, idx=idx, region=m, dma_id=dma_id))

    def _retire(self, pc, idx, unit, exec_at, retire, reg_writes=(), mem_writes=()):
        """Emit unit_busy, then the reg_writes and mem_writes, then
        instr_retire."""
        send = self._send
        send(PerfEvent(exec_at, UNIT_BUSY, pc=pc, idx=idx, unit=unit.value,
                       until=retire))
        for r in reg_writes:
            send(PerfEvent(retire, REG_WRITE, pc=pc, idx=idx, reg=str(r)))
        for m in mem_writes:
            send(_mem_write(retire, pc, idx, m))
        send(PerfEvent(retire, INSTR_RETIRE, pc=pc, idx=idx))

    def _stall(self, reason, begin, end, pc, idx, slot=None, dma_id=None):
        """Charge end - begin cycles to `reason` and emit the stall pair."""
        self.stall_cycles[reason] += end - begin
        if self._emit:
            self._send(PerfEvent(begin, STALL_BEGIN, pc=pc, idx=idx, reason=reason,
                                 slot=slot, dma_id=dma_id))
            self._send(PerfEvent(end, STALL_END, pc=pc, idx=idx, reason=reason,
                                 slot=slot, dma_id=dma_id))

    # -- instruction semantics -----------------------------------------------

    def _execute(self, instr, pc, idx, issue, ios):
        """Semantics and events of one instruction: (retire cycle, next pc)."""
        state = self.state
        op = instr.opcode
        next_pc = pc + 1

        if op is Opcode.S_LDI:
            state.write_sreg(instr.dst_regs[0].index, instr.immediates[0])
        elif op is Opcode.S_ADD or op is Opcode.S_MUL:
            a = state.sregs[instr.src_regs[0].index]
            b = state.sregs[instr.src_regs[1].index]
            v = a + b if op is Opcode.S_ADD else a * b
            state.write_sreg(instr.dst_regs[0].index, v)
        elif op is Opcode.S_CMP:
            a = state.read_sreg_signed(instr.src_regs[0].index)
            b = state.read_sreg_signed(instr.src_regs[1].index)
            mode = CMP_MODES[instr.immediates[0]]
            res = {"eq": a == b, "ne": a != b, "lt": a < b,
                   "le": a <= b, "gt": a > b, "ge": a >= b}[mode]
            state.pregs[instr.dst_regs[0].index] = int(res)
        elif op is Opcode.S_MOV:
            src = instr.src_regs[0]
            if src.cls is RegClass.SCALAR:
                state.sregs[instr.dst_regs[0].index] = state.sregs[src.index]
            else:
                off = src.index * VLEN_BYTES + instr.immediates[0] * 4
                state.sregs[instr.dst_regs[0].index] = \
                    struct.unpack_from("<I", state.vregs, off)[0]
        elif op is Opcode.V_ADD or op is Opcode.V_MUL:
            fn = _kernels.v_add if op is Opcode.V_ADD else _kernels.v_mul
            fn(state.vregs,
               instr.dst_regs[0].index * VLEN_BYTES,
               instr.src_regs[0].index * VLEN_BYTES,
               instr.src_regs[1].index * VLEN_BYTES)
        elif op is Opcode.V_LOAD:
            data = state.read_mem(ios.input_mem[0])
            o = instr.dst_regs[0].index * VLEN_BYTES
            state.vregs[o:o + VLEN_BYTES] = data
        elif op is Opcode.V_STORE:
            o = instr.src_regs[1].index * VLEN_BYTES
            state.write_mem(ios.output_mem[0], bytes(state.vregs[o:o + VLEN_BYTES]))
        elif op is Opcode.MXU_MM:
            d, a, b = (state.sregs[r.index] for r in instr.src_regs)
            _kernels.mxu_mm(state.vmem, d, a, b)
        elif op is Opcode.BR:
            next_pc = instr.immediates[0]
        elif op is Opcode.BRZ:
            if not state.pregs[instr.src_regs[0].index]:
                next_pc = instr.immediates[0]
        elif op is Opcode.HALT:
            state.halted = True
        elif op is Opcode.DMA_ISSUE:
            return self._exec_dma_issue(instr, pc, idx, issue, ios), next_pc
        elif op is Opcode.DMA_WAIT:
            return self._exec_dma_wait(instr, pc, idx, issue, ios), next_pc
        else:
            raise Fault("decode", f"unhandled opcode {op!r}", pc)

        # Outside DMA, every write lands at retire, so the footprint's
        # outputs are exactly the retire-time writes.
        retire = issue + self.config.latency(instr.unit)
        if self._emit:
            self._issue(instr, pc, idx, issue, ios)
            self._retire(pc, idx, instr.unit, issue, retire,
                         ios.output_regs, ios.output_mem)
        return retire, next_pc

    def _exec_dma_issue(self, instr, pc, idx, issue, ios) -> int:
        state = self.state
        cfg = self.config
        slot_no = instr.immediates[0]
        slot = state.dma_slots[slot_no]
        if slot.active:
            raise Fault("dma_busy", f"DMA_ISSUE on busy slot {slot_no}", pc)
        src, dst = ios.input_mem[0], ios.output_mem[0]
        link = (src.space, dst.space)
        base_done = issue + cfg.t_base
        t_start = max(base_done, state.link_free.get(link, 0))
        complete = t_start + math.ceil(src.length / cfg.bandwidth(link))
        state.link_free[link] = complete

        slot.active = True
        slot.applied = False
        slot.dst = dst
        slot.base_done_cycle, slot.complete_cycle = base_done, complete
        slot.buffer = state.read_mem(src)
        slot.dma_id = dma_id = state.dma_seq
        state.dma_seq += 1

        retire = issue + cfg.latency(Unit.DMA)
        if self._emit:
            self._issue(instr, pc, idx, issue, ios, slot_no, dma_id)
            self._send(PerfEvent(issue, DMA_ISSUE_EV, pc=pc, idx=idx,
                                 slot=slot_no, dma_id=dma_id,
                                 link=_LINK_NAMES[link], size=src.length,
                                 src_region=src, dst_region=dst))
            for cycle, kind in ((base_done, DMA_BASE_DONE),
                                (t_start, DMA_TRANSFER_START),
                                (complete, DMA_COMPLETE)):
                self._queue(PerfEvent(cycle, kind, idx=idx, slot=slot_no,
                                      dma_id=dma_id))
            self._queue(_mem_write(complete, pc, idx, dst, dma_id))
            self._retire(pc, idx, Unit.DMA, issue, retire)
        return retire

    def _exec_dma_wait(self, instr, pc, idx, issue, ios) -> int:
        slot_no = instr.immediates[0]
        slot = self.state.dma_slots[slot_no]
        dma_id = slot.dma_id
        if dma_id < 0:
            raise Fault("dma_wait_idle", f"DMA_WAIT on idle slot {slot_no}", pc)
        complete = slot.complete_cycle
        base_done = slot.base_done_cycle

        if self._emit:
            self._issue(instr, pc, idx, issue, ios, slot_no, dma_id)
        exec_at = issue
        if slot.active and issue < complete:   # only the first wait stalls
            if issue < base_done:
                self._stall(STALL_DMA_BASE, issue, base_done, pc, idx,
                            slot_no, dma_id)
            self._stall(STALL_DMA_TRANSFER, max(issue, base_done), complete,
                        pc, idx, slot_no, dma_id)
            exec_at = complete
        self._advance_engine(exec_at)
        slot.active = False         # slot stays associated until re-issued
        retire = exec_at + self.config.latency(Unit.DMA)
        if self._emit:
            self._retire(pc, idx, Unit.DMA, exec_at, retire)
        return retire


def _mem_write(cycle, pc, idx, region, dma_id=None) -> PerfEvent:
    """Every mem_write event is made here: at retire, or at a DMA's
    completion (then carrying its dma_id)."""
    return PerfEvent(cycle, MEM_WRITE, pc=pc, idx=idx, region=region,
                     dma_id=dma_id)


def run_program(program: Program, config: SimConfig,
                state: Optional[MachineState] = None,
                tracker: Optional[PerfTracker] = None,
                max_cycles: int = 10_000_000) -> RunResult:
    sim = Simulator(config, state, program, tracker)
    sim.state.pc = program.entry_pc
    return sim.run(max_cycles)


def state_digest(state: MachineState, footprint=None) -> str:
    """Digest of architectural state. With a window's footprint given, only
    its written locations (plus pc/halted) contribute, which lets a replay
    that starts from a zeroed machine be compared against the live run it
    mirrors (docs/trace-format.md gives the byte recipe)."""
    h = hashlib.sha256()
    h.update(struct.pack("<I?", state.pc & 0xFFFFFFFF, state.halted))
    if footprint is None:
        h.update(struct.pack("<32I", *state.sregs))
        h.update(bytes(state.vregs))
        h.update(bytes(state.pregs))
        h.update(bytes(state.vmem))
        for page in sorted(state.hbm._pages):
            h.update(struct.pack("<Q", page))
            h.update(bytes(state.hbm._pages[page]))
        return "full:" + h.hexdigest()
    for r in sorted(footprint.regs, key=str):
        h.update(str(r).encode())
        h.update(state.read_reg_bytes(r))
    for space, spans in footprint.mem:
        for s, e in spans:
            h.update(f"{space.value}:{s}:{e}".encode())
            h.update(state.read_mem(MemRegion(space, s, e - s)))
    return "window:" + h.hexdigest()
