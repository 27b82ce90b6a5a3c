"""Cycle-level reference simulator that logs performance events.

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

Run, record and replay share one core, `exec_instruction`, which executes
each instruction through its opcode's handler (`_HANDLERS`, indexed by the
int opcode) and is the one place that emits per-instruction events. Events
go into a RecordingTracker's `events` list, and the common kinds are built
positionally; under a NullTracker, which has none, no event is made.
Latencies are a table lookup. The DMA engine's future is one queue,
`_pending`, ordered by (cycle, seq): each transfer in flight, to land, and
with a tracker the engine events to log. An event goes straight to the list
while the queue is empty, and the engine is called only when the queue's
head is due. The simulator is also the step debugger: `step`, `peek`, and
`run_to`, which stops at a `Breakpoint`. `run`, `run_to` and `step` (with a
budget of one cycle) share one loop over the code (`_execute`). It, `record`
and `replay` take the footprint of an instruction that has one whatever the
state from its `Instruction.static_io`; only the others go through
`instruction_io_sets`.

The vector and tile kernels (`_kernels`) are bit-exact to a scalar f32
reference: V_ADD/V_MUL round a lane computed in double once to f32, which
is exact for a product and, since 53 >= 2*24 + 2, for a sum; MXU_MM sums its
f32 products with one sequential `np.add.accumulate` in ascending k, and
imports numpy on its first call.

The event log (docs/events.md) is written with one `%` template per line
shape (`events_to_jsonl`) and read with the json module's C scanner and one
generated plan per kind and key order (`events_from_jsonl`).
"""

from __future__ import annotations

import heapq
import hashlib
import json
import math
import operator
import struct
from dataclasses import asdict, dataclass, field, fields
from json.scanner import make_scanner
from typing import List, Optional

from . import _kernels, gc_paused
from .isa import (CMP_MODES, DMA_DIR_NAMES, OPCODES, PAGE_BYTES, REGISTER_NAMES,
                  VLEN_BYTES, VMEM_BUCKETS, DEFAULT_HBM_CAPACITY,
                  DEFAULT_VMEM_CAPACITY, Fault, Instruction, IoSets, MachineState,
                  MemRegion, Opcode, Program, RegClass, Unit, instruction_io_sets)


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
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer")
        # the link and unit names are those of the event logs
        for name, names in (("link_bandwidth", _FIELD_VALUES["link"]),
                            ("unit_latency", _FIELD_VALUES["unit"])):
            table = getattr(self, name)
            if not (isinstance(table, dict) and table.keys() == names
                    and all(type(v) is int and v > 0 for v in table.values())):
                raise ValueError(f"{name} must map each of {sorted(names)}, "
                                 f"and nothing else, to a positive integer")
        # VMEM is allocated whole, and a 32-bit address register names 2**32 bytes
        bucket = VMEM_BUCKETS * PAGE_BYTES
        if self.vmem_capacity % bucket or self.vmem_capacity > 1 << 32:
            raise ValueError(f"vmem_capacity must be a multiple of {bucket} bytes "
                             f"({VMEM_BUCKETS} whole-page buckets) and at most 2**32")

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(d: dict) -> "SimConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        if unknown := d.keys() - {f.name for f in fields(SimConfig)}:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
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
# kind -> (the keys a line of that kind must have, the keys it may have)
_KIND_KEYS = {kind: (frozenset(f"cycle kind {req}".split()),
                     frozenset(f"cycle kind {req} {opt}".split()))
              for kind, (req, opt) in EVENT_FIELDS.items()}


@dataclass(slots=True)
class PerfEvent:
    # the simulator builds the common kinds positionally, so the fields they
    # have come first
    cycle: int
    kind: str
    pc: Optional[int] = None
    idx: Optional[int] = None
    reg: Optional[str] = None
    unit: Optional[str] = None
    opcode: Optional[str] = None
    until: Optional[int] = None
    region: Optional[MemRegion] = None
    dma_id: Optional[int] = None
    slot: Optional[int] = None
    annulled: Optional[bool] = None
    reason: Optional[str] = None
    link: Optional[str] = None
    size: Optional[int] = None
    src_region: Optional[MemRegion] = None
    dst_region: Optional[MemRegion] = None


_DECLARED = [f.name for f in fields(PerfEvent)]     # PerfEvent's argument order
_REGION_FIELDS = frozenset({"region", "src_region", "dst_region"})
# field -> the type of its JSON value: a region is an object, and an int
# field holds an int >= 0, never a bool (docs/events.md)
_FIELD_TYPES = {f.name: {"int": int, "str": str, "bool": bool, "MemRegion": dict}[
    f.type.removeprefix("Optional[").rstrip("]")] for f in fields(PerfEvent)}
_MUST = {int: "an int >= 0", str: "a string", bool: "a boolean", dict: "a region object"}
# field -> its values, for the fields that name a member of a closed set
_FIELD_VALUES = {"unit": frozenset(u.value for u in Unit),
                 "reason": frozenset({STALL_HAZARD, STALL_DMA_BASE,
                                      STALL_DMA_TRANSFER}),
                 "opcode": frozenset(Opcode.__members__),
                 "link": frozenset(DMA_DIR_NAMES.values()),
                 "reg": REGISTER_NAMES}
# the DMA engine's events and a DMA_WAIT's issue, each after the dma_issue
# of its dma_id
_DMA_ENGINE_KINDS = frozenset({DMA_BASE_DONE, DMA_TRANSFER_START, DMA_COMPLETE})
_DMA_WAIT = Opcode.DMA_WAIT.name
# the opcodes whose issue, unless annulled, carries its slot and dma_id
_DMA_OPS = frozenset({Opcode.DMA_ISSUE.name, _DMA_WAIT})


_CMP_OPS = tuple(getattr(operator, mode) for mode in CMP_MODES)   # by S_CMP mode


class NullTracker:
    """Keeps no events: it has no `events`, so a simulator makes none."""


class RecordingTracker:
    """Keeps every event in log order: the simulator appends to `events`.
    Trackers only observe; they never affect architectural results."""

    def __init__(self):
        self.events: List[PerfEvent] = []


Tracker = Optional[RecordingTracker | NullTracker]     # None: a NullTracker


def events_to_jsonl(events, summary: Optional[dict] = None) -> str:
    """One JSON object per line with sorted keys (docs/events.md); the
    summary line, when given, comes last. An event's line is
    `template % values` with the template of its shape (_line_template),
    made once per call."""
    templates, lines = {}, []
    append = lines.append
    for ev in events:
        shape = ev.kind, ev.slot is None, ev.dma_id is None, ev.annulled
        plan = templates.get(shape)
        if plan is None:
            plan = templates[shape] = _line_template(*shape)
        template, values = plan
        append(template % values(ev))
    if summary is not None:
        append(json.dumps({"kind": "summary", **summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _line_template(kind, no_slot, no_dma_id, annulled):
    """(template, getter of its values) of the line of an event of `kind`
    whose `slot` and `dma_id` are None as given, with `annulled`: the text of
    json.dumps of its set fields, sorted by name, with `%d` for an int,
    `"%s"` for a string (a closed-set member, which JSON writes unescaped),
    and `kind` and `annulled` written out. A field its kind does not allow is
    left out, and any other field of the row must be set."""
    absent = {"slot": no_slot, "dma_id": no_dma_id, "annulled": annulled is None}
    parts, paths = [], []
    for name in sorted(_KIND_KEYS[kind][1]):
        if absent.get(name):
            continue
        if name == "kind":
            parts.append(f'"kind": "{kind}"')
        elif name == "annulled":
            parts.append(f'"annulled": {json.dumps(annulled)}')
        elif name in _REGION_FIELDS:
            parts.append(f'"{name}": {{"len": %d, "offset": %d, "space": "%s"}}')
            paths += [f"{name}.length", f"{name}.offset", f"{name}.space.value"]
        else:
            parts.append(f'"{name}": ' + ("%d" if _FIELD_TYPES[name] is int else '"%s"'))
            paths.append(name)
    return "{" + ", ".join(parts) + "}", operator.attrgetter(*paths)


def _line_plan(kind, keys: tuple):
    """(build, 1 for an instr_issue else 0): how events_from_jsonl reads a
    line of `kind` whose keys come in the order `keys`. build(d, issues,
    issued) checks line `d` against the rules of docs/events.md, given the
    count of instr_issue lines before it and the dma_ids issued so far,
    adds a dma_issue's dma_id to `issued` and returns the PerfEvent. It is
    compiled from generated source, as dataclasses makes an __init__, so
    that one call unpacks, checks and builds. Raises ValueError when `kind`
    is unknown or its row of EVENT_FIELDS does not allow exactly `keys`."""
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown event kind {kind!r}")
    required, allowed = _KIND_KEYS[kind]
    present = frozenset(keys)
    if not required <= present <= allowed:
        raise ValueError(f"{kind} event lacks {sorted(required - present)} "
                         f"or has unlisted {sorted(present - allowed)}")
    tests = []
    for name in keys:
        want = _FIELD_TYPES[name]
        if name != "kind":
            tests.append(f"type({name}) is not {want.__name__}")
        if want is int:
            tests.append(f"{name} < 0")
        elif name in _FIELD_VALUES:
            tests.append(f"{name} not in _{name}_values")
    body = [f"{', '.join(keys)}, = d.values()",
            f"if {' or '.join(tests)}:",
            "    raise _field_error(d)"]
    body += [f"{name} = _region({name})" for name in keys if name in _REGION_FIELDS]
    last = max(map(_DECLARED.index, keys))
    body.append("ev = _PerfEvent(" + ", ".join(
        f if f in present else "None" for f in _DECLARED[:last + 1]) + ")")
    if kind == INSTR_ISSUE:
        done = " and not annulled" if "annulled" in present else ""
        body += ["if idx != issues:",
                 "    raise ValueError(f'instr_issue idx {idx} is not {issues}')"]
        if not present >= {"slot", "dma_id"}:
            body += [f"if opcode in _DMA_OPS{done}:",
                     "    raise ValueError(f'{opcode} instr_issue lacks its slot or dma_id')"]
        else:
            body += [f"if opcode == {_DMA_WAIT!r}{done} and dma_id not in issued:",
                     "    raise ValueError(f'dma_id {dma_id} has no earlier dma_issue')"]
    else:
        body += ["if idx > issues:",
                 "    raise ValueError(f'idx {idx} is past the next instr_issue')"]
    if kind == DMA_ISSUE_EV:
        body.append("issued.add(dma_id)")
    elif kind in _DMA_ENGINE_KINDS:
        body += ["if dma_id not in issued:",
                 "    raise ValueError(f'dma_id {dma_id} has no earlier dma_issue')"]
    source = "def build(d, issues, issued):\n" + "".join(
        f"    {line}\n" for line in body + ["return ev"])
    namespace = {}
    exec(source, _PLAN_GLOBALS, namespace)
    return namespace["build"], int(kind == INSTR_ISSUE)


def _field_error(d: dict) -> ValueError:
    """The error of the first field of event line `d` whose value breaks
    its rule, for a line that failed its plan's type or member test."""
    for name, value in d.items():
        want = _FIELD_TYPES[name]
        if type(value) is not want or (want is int and value < 0):
            return ValueError(f"event field {name!r} must be {_MUST[want]}, "
                              f"got {value!r}")
        if name in _FIELD_VALUES and value not in _FIELD_VALUES[name]:
            return ValueError(f"event field {name!r} must be one of "
                              f"{sorted(_FIELD_VALUES[name])}, got {value!r}")


# the names the plans' generated source reads
_PLAN_GLOBALS = {"_field_error": _field_error, "_region": MemRegion.from_json,
                 "_PerfEvent": PerfEvent, "_DMA_OPS": _DMA_OPS,
                 **{f"_{name}_values": v for name, v in _FIELD_VALUES.items()}}


@gc_paused
def events_from_jsonl(text: str):
    """Returns (events, summary_or_None). A line that is not one JSON value
    (JSON whitespace around it is allowed), or not an object with a known
    `kind` and exactly the fields its kind allows, each of the right type,
    raises ValueError, and so does a line that breaks a reference rule of
    docs/events.md (`idx` and `dma_id` refer to earlier lines). Each line
    is parsed by the C scanner of the json module and checked and built by
    one call of the plan of its kind and key order (_line_plan), made once
    per call."""
    events, summary, issued, issues = [], None, set(), 0
    plans, append = {}, events.append
    scan = make_scanner(json.JSONDecoder())
    try:
        for line in text.splitlines():
            try:
                d, end = scan(line, 0)
            except StopIteration:
                end = -1
            if end != len(line):    # not one JSON value, as written
                if not line or line.isspace():
                    continue
                value = line.strip(" \t")  # the JSON whitespace a line can hold
                try:
                    d, end = scan(value, 0)
                except StopIteration as e:
                    raise ValueError(f"expecting a JSON value at char {e.value}") from None
                if end != len(value):
                    raise ValueError(f"extra data at char {end}")
            if type(d) is not dict:
                raise ValueError("an event line must be a JSON object")
            kind = d.get("kind")
            if kind == "summary":
                summary = d
                continue
            key = kind, *d
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _line_plan(kind, key[1:])
            build, counts = plan
            append(build(d, issues, issued))
            issues += counts
    except (ValueError, KeyError, TypeError, RecursionError, Fault) as e:
        line = line.strip()
        raise ValueError(f"bad event line {line[:80]!r}: {e!r}") from None
    return events, summary


@dataclass
class RunResult:
    outcome: str                  # "halted" | "budget" | "fault" | "replayed"
    state: MachineState
    cycles: int
    executed: int
    stall_cycles: dict
    fault: Optional[Fault] = None
    footprint: Optional[object] = None   # a replay's window.Footprint
    digest: Optional[str] = None         # a replay's footprint digest

    @property
    def total_stall(self) -> int:
        return sum(self.stall_cycles.values())


@dataclass(frozen=True)
class Breakpoint:
    """Where `Simulator.run_to` stops: before the hit_count_target-th
    arrival at pc."""
    pc: int
    hit_count_target: int = 1

    def __post_init__(self):
        if self.hit_count_target < 1:
            raise ValueError("hit_count_target must be >= 1")


class Simulator:
    """Executes instructions against a MachineState, reporting events to a
    tracker, and is the step debugger the recorder drives. One instance per
    state; not thread-safe. A replay runs with no program."""

    def __init__(self, program: Optional[Program], config: SimConfig,
                 state: MachineState, tracker: Tracker = None):
        self.config = config
        self.state = state
        # the list events go to: None without a tracker or with a NullTracker
        self._events = getattr(tracker, "events", None)
        self._emit = self._events is not None
        self.stream_index = 0
        self.stall_cycles = {STALL_HAZARD: 0, STALL_DMA_BASE: 0, STALL_DMA_TRANSFER: 0}
        self._pending: list = []   # (cycle, seq, PerfEvent or DmaSlotState)
        self._pseq = 0
        for slot in state.dma_slots:      # a state may arrive with DMAs in flight
            if slot.active and not slot.applied:
                self._queue(slot.complete_cycle, slot)
        self._code = program.instructions if program is not None else ()
        self._latency = [config.unit_latency[u] if u else 0
                         for u in _UNIT_NAMES]               # by int opcode

    # -- the DMA engine ------------------------------------------------------

    def _queue(self, cycle: int, entry):
        heapq.heappush(self._pending, (cycle, self._pseq, entry))
        self._pseq += 1

    def _send(self, ev: PerfEvent):
        if self._pending and self._pending[0][0] <= ev.cycle:
            self._advance_engine(ev.cycle)
        self._events.append(ev)

    def _advance_engine(self, upto: int):
        """Do what the queue holds up to cycle `upto`, in queue order: log
        each engine event, land each transfer (write its destination)."""
        pending = self._pending
        while pending and pending[0][0] <= upto:
            entry = heapq.heappop(pending)[2]
            if type(entry) is PerfEvent:
                self._events.append(entry)
            else:
                self.state.write_mem(entry.dst, entry.buffer)
                entry.applied = True
                entry.buffer = b""

    def sync(self):
        """Land completed transfers and log queued events up to now."""
        self._advance_engine(self.state.cycle)

    # -- execution -----------------------------------------------------------

    def step(self) -> Optional[Fault]:
        """Execute the instruction at pc: returns its Fault, which halts the
        machine, or None. A halted machine does not step. Every instruction
        takes at least one cycle, so one cycle's budget is one step."""
        return self._execute(self.state.cycle + 1)[1]

    def peek(self) -> Optional[Instruction]:
        """Instruction about to execute, decoded, without stepping."""
        pc = self.state.pc
        if self.state.halted or not 0 <= pc < len(self._code):
            return None
        return self._code[pc]

    def run_to(self, bp: Breakpoint, max_cycles: int = 10_000_000) -> str:
        """Run until the machine reaches bp.pc for the hit_count_target-th
        time, stopping *before* that instruction executes. Returns "hit", or
        how the run ended instead: "halted", "budget" or "fault"."""
        if not 0 <= bp.pc < len(self._code):
            raise Fault("bp_oob", f"breakpoint pc {bp.pc} outside program")
        return self._execute(max_cycles, bp.pc, bp.hit_count_target)[0]

    def run(self, max_cycles: int) -> RunResult:
        if max_cycles <= 0:
            raise ValueError("max_cycles must be positive")
        outcome, fault = self._execute(max_cycles)
        self.sync()
        return RunResult(outcome, self.state, self.state.cycle,
                         self.stream_index, dict(self.stall_cycles), fault)

    def _execute(self, max_cycles: int, stop_pc: int = -1, arrivals: int = 0):
        """Execute the instruction at pc, and the next, until the machine
        halts or faults, its cycle reaches max_cycles, or it is about to
        execute stop_pc for the arrivals-th time (never, when arrivals < 1).
        Returns (outcome, fault): "halted", "budget", "hit" or "fault", and
        the Fault of a "fault". It does not sync at the end."""
        state, code, execute = self.state, self._code, self.exec_instruction
        while not state.halted:
            if state.cycle >= max_cycles:
                return "budget", None
            pc = state.pc
            if pc == stop_pc:
                arrivals -= 1
                if arrivals == 0:
                    return "hit", None
            if not 0 <= pc < len(code):
                state.halted = True
                return "fault", Fault("pc_oob", f"pc {pc} outside program", pc)
            instr = code[pc]
            try:
                ios = instr.static_io or instruction_io_sets(instr, state, pc)
            except Fault as f:
                state.halted = True
                return "fault", f
            fault = execute(instr, pc, ios)
            if fault is not None:
                return "fault", fault
        return "halted", None

    def exec_instruction(self, instr: Instruction, pc: int,
                         ios: IoSets) -> Optional[Fault]:
        """Execute one instruction to retirement, given its footprint `ios`
        (instruction_io_sets from the current state); advances the cycle by
        issue-wait plus unit latency. Returns the step's Fault, which halts
        the machine, or None."""
        state = self.state
        idx = self.stream_index
        start = state.cycle
        op = instr.opcode
        if instr.predicate is not None and not state.pregs[instr.predicate.index]:
            retire, next_pc = start + 1, pc + 1
            if self._emit:
                send = self._send if self._pending else self._events.append
                send(PerfEvent(start, REG_READ, pc, idx, instr.predicate.name))
                send(PerfEvent(start, INSTR_ISSUE, pc, idx, None, _UNIT_NAMES[op],
                               _OPCODE_NAMES[op], annulled=True))
                send(PerfEvent(retire, INSTR_RETIRE, pc, idx))
        else:
            handler = _HANDLERS[op]
            if handler is None and (fault := _dma_slot_fault(state, instr, pc)):
                state.halted = True
                return fault
            # Hazard interlock: touching bytes an in-flight DMA will write
            # blocks until that DMA completes (keeps results timing-independent).
            issue = start
            if self._pending and (ios.input_mem or ios.output_mem):
                touched = ios.input_mem + ios.output_mem
                for slot in state.dma_slots:
                    if (slot.active and not slot.applied
                            and any(r.overlaps(slot.dst) for r in touched)):
                        issue = max(issue, slot.complete_cycle)
                if issue > start:
                    self._stall(STALL_HAZARD, start, issue, pc, idx)
            if self._pending and self._pending[0][0] <= issue:
                self._advance_engine(issue)
            try:
                if handler is None:     # the DMA engine's ops time their retire
                    retire = (self._exec_dma_issue if op is Opcode.DMA_ISSUE
                              else self._exec_dma_wait)(instr, pc, idx, issue, ios)
                    next_pc = pc + 1
                else:
                    next_pc = handler(state, instr, pc, ios)
                    # every write lands at retire, so the footprint's
                    # outputs are exactly the retire-time writes
                    retire = issue + self._latency[op]
                    if self._emit:
                        self._issue(instr, pc, idx, issue, ios)
                        self._retire(pc, idx, op, issue, retire,
                                     ios.output_regs, ios.output_mem)
            except Fault as f:
                state.halted = True
                return f
        state.cycle = retire
        state.pc = next_pc
        self.stream_index = idx + 1
        return None

    # -- per-instruction events (callers of _issue/_retire check _emit); the
    # five common kinds are built positionally, and an event goes straight
    # to the list while the engine's queue is empty

    def _issue(self, instr, pc, idx, cycle, ios, slot=None, dma_id=None):
        """Emit instr_issue, then its reg_reads, then its mem_reads."""
        send = self._send if self._pending else self._events.append
        op = instr.opcode
        send(PerfEvent(cycle, INSTR_ISSUE, pc, idx, None, _UNIT_NAMES[op],
                       _OPCODE_NAMES[op], None, None, dma_id, slot))
        for r in ios.input_regs:
            send(PerfEvent(cycle, REG_READ, pc, idx, r.name))
        for m in ios.input_mem:
            send(PerfEvent(cycle, MEM_READ, pc=pc, idx=idx, region=m, dma_id=dma_id))

    def _retire(self, pc, idx, op, exec_at, retire, reg_writes=(), mem_writes=()):
        """Emit unit_busy, then the reg_writes and mem_writes, then
        instr_retire."""
        send = self._send if self._pending else self._events.append
        send(PerfEvent(exec_at, UNIT_BUSY, pc, idx, None, _UNIT_NAMES[op], None, retire))
        for r in reg_writes:
            send(PerfEvent(retire, REG_WRITE, pc, idx, r.name))
        for m in mem_writes:
            send(_mem_write(retire, pc, idx, m))
        send(PerfEvent(retire, INSTR_RETIRE, pc, idx))

    def _stall(self, reason, begin, end, pc, idx, slot=None, dma_id=None):
        """Charge end - begin cycles to `reason` and emit the stall pair."""
        self.stall_cycles[reason] += end - begin
        if self._emit:
            self._send(PerfEvent(begin, STALL_BEGIN, pc=pc, idx=idx, reason=reason,
                                 slot=slot, dma_id=dma_id))
            self._send(PerfEvent(end, STALL_END, pc=pc, idx=idx, reason=reason,
                                 slot=slot, dma_id=dma_id))

    # -- the DMA engine's instructions ----------------------------------------

    def _exec_dma_issue(self, instr, pc, idx, issue, ios) -> int:
        state = self.state
        cfg = self.config
        slot_no = instr.immediates[0]
        slot = state.dma_slots[slot_no]
        src, dst = ios.input_mem[0], ios.output_mem[0]
        link = DMA_DIR_NAMES[instr.immediates[1]]
        base_done = issue + cfg.t_base
        t_start = max(base_done, state.link_free.get(link, 0))
        complete = t_start + math.ceil(src.length / cfg.link_bandwidth[link])
        state.link_free[link] = complete

        slot.active = True
        slot.applied = False
        slot.dst = dst
        slot.base_done_cycle, slot.complete_cycle = base_done, complete
        slot.buffer = state.read_mem(src)
        slot.dma_id = dma_id = state.dma_seq
        state.dma_seq += 1
        self._queue(complete, slot)

        retire = issue + self._latency[instr.opcode]
        if self._emit:
            self._issue(instr, pc, idx, issue, ios, slot_no, dma_id)
            self._send(PerfEvent(issue, DMA_ISSUE_EV, pc=pc, idx=idx,
                                 slot=slot_no, dma_id=dma_id,
                                 link=link, size=src.length,
                                 src_region=src, dst_region=dst))
            for cycle, kind in ((base_done, DMA_BASE_DONE),
                                (t_start, DMA_TRANSFER_START),
                                (complete, DMA_COMPLETE)):
                self._queue(cycle, PerfEvent(cycle, kind, idx=idx, slot=slot_no,
                                             dma_id=dma_id))
            self._queue(complete, _mem_write(complete, pc, idx, dst, dma_id))
            self._retire(pc, idx, instr.opcode, issue, retire)
        return retire

    def _exec_dma_wait(self, instr, pc, idx, issue, ios) -> int:
        slot_no = instr.immediates[0]
        slot = self.state.dma_slots[slot_no]
        dma_id = slot.dma_id
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
        retire = exec_at + self._latency[instr.opcode]
        if self._emit:
            self._retire(pc, idx, instr.opcode, exec_at, retire)
        return retire


def _dma_slot_fault(state, instr, pc) -> Optional[Fault]:
    """The fault of a DMA_ISSUE on a busy slot or a DMA_WAIT on an idle one.
    It does not depend on time, so exec_instruction raises it before the
    hazard interlock: the instruction waits for, lands and logs nothing."""
    slot_no = instr.immediates[0]
    slot = state.dma_slots[slot_no]
    if instr.opcode is Opcode.DMA_ISSUE:
        if slot.active:
            return Fault("dma_busy", f"DMA_ISSUE on busy slot {slot_no}", pc)
    elif slot.dma_id < 0:
        return Fault("dma_wait_idle", f"DMA_WAIT on idle slot {slot_no}", pc)
    return None


# -- instruction semantics: one handler per opcode, (state, instr, pc, ios)
# -> next pc, in _HANDLERS at the int opcode; DMA_ISSUE and DMA_WAIT, whose
# retire cycle the DMA engine sets, are Simulator methods

def _s_ldi(state, instr, pc, ios):
    state.write_sreg(instr.dst_regs[0].index, instr.immediates[0])
    return pc + 1


def _s_add(state, instr, pc, ios):
    a, b = instr.src_regs
    state.write_sreg(instr.dst_regs[0].index, state.sregs[a.index] + state.sregs[b.index])
    return pc + 1


def _s_mul(state, instr, pc, ios):
    a, b = instr.src_regs
    state.write_sreg(instr.dst_regs[0].index, state.sregs[a.index] * state.sregs[b.index])
    return pc + 1


def _s_cmp(state, instr, pc, ios):
    a, b = instr.src_regs
    cmp = _CMP_OPS[instr.immediates[0]]
    state.pregs[instr.dst_regs[0].index] = int(
        cmp(state.read_sreg_signed(a.index), state.read_sreg_signed(b.index)))
    return pc + 1


def _s_mov(state, instr, pc, ios):
    src = instr.src_regs[0]
    if src.cls is RegClass.SCALAR:
        value = state.sregs[src.index]
    else:
        off = src.index * VLEN_BYTES + instr.immediates[0] * 4
        value = struct.unpack_from("<I", state.vregs, off)[0]
    state.sregs[instr.dst_regs[0].index] = value
    return pc + 1


def _v_add(state, instr, pc, ios):
    a, b = instr.src_regs
    _kernels.v_add(state.vregs, instr.dst_regs[0].index * VLEN_BYTES,
                   a.index * VLEN_BYTES, b.index * VLEN_BYTES)
    return pc + 1


def _v_mul(state, instr, pc, ios):
    a, b = instr.src_regs
    _kernels.v_mul(state.vregs, instr.dst_regs[0].index * VLEN_BYTES,
                   a.index * VLEN_BYTES, b.index * VLEN_BYTES)
    return pc + 1


def _v_load(state, instr, pc, ios):
    o = instr.dst_regs[0].index * VLEN_BYTES
    state.vregs[o:o + VLEN_BYTES] = state.read_mem(ios.input_mem[0])
    return pc + 1


def _v_store(state, instr, pc, ios):
    o = instr.src_regs[1].index * VLEN_BYTES
    state.write_mem(ios.output_mem[0], bytes(state.vregs[o:o + VLEN_BYTES]))
    return pc + 1


def _mxu_mm(state, instr, pc, ios):
    d, a, b = (state.sregs[r.index] for r in instr.src_regs)
    _kernels.mxu_mm(state.vmem, d, a, b)
    return pc + 1


def _br(state, instr, pc, ios):
    return instr.immediates[0]


def _brz(state, instr, pc, ios):
    return pc + 1 if state.pregs[instr.src_regs[0].index] else instr.immediates[0]


def _halt(state, instr, pc, ios):
    state.halted = True
    return pc + 1


_HANDLERS = [{Opcode.S_LDI: _s_ldi, Opcode.S_ADD: _s_add, Opcode.S_MUL: _s_mul,
              Opcode.S_CMP: _s_cmp, Opcode.S_MOV: _s_mov, Opcode.V_ADD: _v_add,
              Opcode.V_MUL: _v_mul, Opcode.V_LOAD: _v_load, Opcode.V_STORE: _v_store,
              Opcode.MXU_MM: _mxu_mm, Opcode.BR: _br, Opcode.BRZ: _brz,
              Opcode.HALT: _halt}.get(op) for op in range(max(Opcode) + 1)]
# by int opcode: its name and its unit's name, as the event logs spell them
_OPCODE_NAMES = [op in OPCODES and Opcode(op).name for op in range(len(_HANDLERS))]
_UNIT_NAMES = [op in OPCODES and OPCODES[op][0].value for op in range(len(_HANDLERS))]


def _mem_write(cycle, pc, idx, region, dma_id=None) -> PerfEvent:
    """Every mem_write event is made here: at retire, or at a DMA's
    completion (then carrying its dma_id)."""
    return PerfEvent(cycle, MEM_WRITE, pc=pc, idx=idx, region=region,
                     dma_id=dma_id)


def run_program(program: Program, config: SimConfig, state: MachineState,
                tracker: Tracker = None,
                max_cycles: int = 10_000_000) -> RunResult:
    sim = Simulator(program, config, state, tracker)
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
