"""Independent oracles the test suite checks the implementation against.

These deliberately avoid the production code paths they validate:
  dma_oracle            event-timeline calculator for DMA lifetimes (constant
                        base latency overlapped across slots; per-link FIFO
                        transfer serialization; three-way stall/slack split)
  naive_record          whole-machine-state recorder (baseline for the
                        first-use recorder's minimality claims)
  run_to_by_steps       the earlier Simulator.run_to: its own fetch,
                        footprint and fault loop over exec_instruction,
                        beside run's
  bruteforce_dep_oracle per-byte/per-register read-after-write tracker run
                        over a decoded instruction stream
  ByteSetOracle         per-byte model of the interval set
  analyze_vmem          the earlier numpy form of the VMEM page analysis: a
                        whole-capacity array per page field and a full pass
                        per sample
  event_json            the object of an event's log line, field by field
                        from its kind's row of EVENT_FIELDS (the earlier
                        PerfEvent.to_json)
  events_from_jsonl     the earlier event-log reader: json.loads per line,
                        then each field's rule of docs/events.md in turn
  analyze_utilization   the earlier per-bucket utilization: a fraction list
                        per unit filled interval by interval, and its
                        report.json section and CSV text, one row per bucket
  assemble              the earlier assembler: every instruction line built
                        on its own, each operand read by its kind's rule
  trace_to_json         the earlier JSON trace writer: the whole container
                        through json.dumps(indent=1), each record encoded
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import re
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from xshark.analyzer.vmem import VmemPageStats
from xshark.isa import (CMP_MODES, DEFAULT_VMEM_CAPACITY, DMA_DIR_NAMES, FORMS,
                        ISA_VERSION, PAGE_BYTES, REG_KINDS, REGISTER_NAMES,
                        VMEM_BUCKETS, EncodingError, Fault, Instruction,
                        MemRegion, MemSpace, Opcode, Program, RegClass,
                        RegisterId, Unit, instruction_io_sets,
                        encode_instruction, make_instruction)
from xshark.recorder import TRACE_VERSION, ExecutionTrace, TraceHeader
from xshark.sim import (DMA_COMPLETE, EVENT_FIELDS, MEM_READ, MEM_WRITE,
                        UNIT_BUSY, PerfEvent)
from xshark.workloads.asm import AsmError, AssembledKernel


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
        stream.append((pc, instr))
        if state.halted:
            ended_at_halt = True
            break
    session.sync()
    for m in hbm_reads:
        for s, e in hbm_covered.uncovered(m.offset, m.end):
            mems.append((MemRegion(MemSpace.HBM, s, e - s), bytes(e - s)))
            hbm_covered.add(s, e)
    header = TraceHeader(ISA_VERSION, session.config.config_hash(), start_pc,
                         start_cycle, len(stream), ended_at_halt)
    trace = ExecutionTrace(header, regs, mems, stream)
    return trace, trace.snapshot_bytes


def run_to_by_steps(session, bp, max_cycles: int = 10_000_000) -> str:
    """Step until the machine reaches bp.pc for the hit_count_target-th
    time, stopping before that instruction executes: "hit", "halted",
    "budget" or "fault", as Simulator.run_to. Its own loop: each step
    fetches through peek(), parses the whole footprint with
    instruction_io_sets, makes a pc off the program or a footprint that
    does not parse a fault that halts the machine, and only then calls
    exec_instruction."""
    if not 0 <= bp.pc < len(session._code):
        raise Fault("bp_oob", f"breakpoint pc {bp.pc} outside program")
    state, hits = session.state, 0
    while not state.halted:
        if state.cycle >= max_cycles:
            return "budget"
        pc = state.pc
        if pc == bp.pc:
            hits += 1
            if hits == bp.hit_count_target:
                return "hit"
        instr = session.peek()
        try:
            if instr is None:               # not halted: the pc is off the program
                raise Fault("pc_oob", f"pc {pc} outside program", pc)
            ios = instruction_io_sets(instr, state, pc)
        except Fault:
            state.halted = True
            return "fault"
        if session.exec_instruction(instr, pc, ios) is not None:
            return "fault"
    return "halted"


# ------------------------------------------------- brute-force dependencies

def bruteforce_dep_oracle(trace, config) -> set:
    """Exact read-after-write pairs (dependent, producer, label) computed by
    re-executing the stream with per-register and PER-BYTE last-writer dicts.
    Independent of the analyzer's event/interval-map machinery."""
    from xshark.replayer import _restore
    from xshark.sim import Simulator

    state = _restore(trace, config)
    sim = Simulator(None, config, state)
    last_reg: Dict[str, int] = {}
    last_byte: Dict[Tuple[str, int], int] = {}
    edges = set()
    for idx, (pc, instr) in enumerate(trace.instr_stream):
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


# ------------------------------------------------------ numpy VMEM pages

def _longest_run(free: np.ndarray) -> int:
    if not free.any():
        return 0
    # boundaries of runs of True
    padded = np.concatenate(([False], free, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return int((ends - starts).max())


def analyze_vmem(events: List[PerfEvent], sample_interval: int = 64,
                 capacity: int = DEFAULT_VMEM_CAPACITY) -> VmemPageStats:
    if sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    n_pages = capacity // PAGE_BYTES
    big = np.iinfo(np.int64).max
    first_write = np.full(n_pages, big, dtype=np.int64)
    first_read = np.full(n_pages, big, dtype=np.int64)
    used_since = np.full(n_pages, big, dtype=np.int64)   # first read-after-write
    last_read = np.full(n_pages, -1, dtype=np.int64)
    end = 0

    for ev in events:
        end = max(end, ev.cycle)
        if ev.kind != MEM_READ and ev.kind != MEM_WRITE:
            continue
        m = ev.region
        if m is None or m.space is not MemSpace.VMEM:
            continue
        lo = m.offset // PAGE_BYTES
        hi = (m.end + PAGE_BYTES - 1) // PAGE_BYTES
        if ev.kind == MEM_WRITE:
            first_write[lo:hi] = np.minimum(first_write[lo:hi], ev.cycle)
        else:
            first_read[lo:hi] = np.minimum(first_read[lo:hi], ev.cycle)
            last_read[lo:hi] = np.maximum(last_read[lo:hi], ev.cycle)
            seg = used_since[lo:hi]
            seg[(first_write[lo:hi] <= ev.cycle) & (seg == big)] = ev.cycle

    written_pages = first_write < big
    any_read = first_read < big
    used_pages = used_since < big
    touched = written_pages | any_read
    # liveness interval per page (conservative on partial information)
    live_start = np.minimum(first_write, first_read)
    live_end = np.where(written_pages & ~used_pages, end, last_read)

    samples = list(range(0, end + 1, sample_interval)) if end else [0]
    total_free, largest, bucket_used, bucket_written = [], [], [], []
    for t in samples:
        live = touched & (live_start <= t) & (t <= live_end)
        free = ~live
        total_free.append(int(free.sum()) * PAGE_BYTES)
        largest.append(_longest_run(free) * PAGE_BYTES)
        used_now = (used_since <= t).reshape(VMEM_BUCKETS, -1).sum(axis=1)
        written_now = (first_write <= t).reshape(VMEM_BUCKETS, -1).sum(axis=1)
        bucket_used.append(used_now.astype(int).tolist())
        bucket_written.append(written_now.astype(int).tolist())

    states = {
        "never_touched": int((~touched).sum()),
        "used": int(used_pages.sum()),
        "unused": int((written_pages & ~used_pages).sum()),
        "read_only": int((any_read & ~written_pages).sum()),
    }
    return VmemPageStats(capacity, sample_interval, samples, total_free,
                         largest, bucket_used, bucket_written, states)


# ------------------------------------------------------ event-log codec

def event_json(ev: PerfEvent) -> dict:
    """The set fields of the event's kind's row of EVENT_FIELDS, regions
    as {"len", "offset", "space"}: json.dumps of it with sorted keys is the
    event's log line."""
    required, optional = EVENT_FIELDS[ev.kind]
    out = {}
    for name in ["cycle", "kind", *required.split(), *optional.split()]:
        value = getattr(ev, name)
        if isinstance(value, MemRegion):
            value = {"len": value.length, "offset": value.offset,
                     "space": value.space.value}
        if value is not None:
            out[name] = value
    return out


# ------------------------------------------------------ event-log reader

# docs/events.md, "Malformed logs": the JSON type of each field, and the
# members of the closed-set string fields
_EVENT_TYPES = {**dict.fromkeys("cycle pc idx slot dma_id size until".split(), int),
                **dict.fromkeys("kind opcode unit reg link reason".split(), str),
                "annulled": bool,
                **dict.fromkeys("region src_region dst_region".split(), dict)}
_EVENT_MEMBERS = {"unit": {u.value for u in Unit},
                  "reason": {"hazard", "dma_base", "dma_transfer"},
                  "opcode": set(Opcode.__members__),
                  "link": set(DMA_DIR_NAMES.values()),
                  "reg": set(REGISTER_NAMES)}


def _event_from_json(d: dict) -> PerfEvent:
    kind = d["kind"]
    if kind not in EVENT_FIELDS:
        raise ValueError(f"unknown event kind {kind!r}")
    required, optional = EVENT_FIELDS[kind]
    required = {"cycle", "kind", *required.split()}
    if not required <= d.keys() <= required | set(optional.split()):
        raise ValueError(f"{kind} event has the wrong fields")
    for name, value in d.items():
        want = _EVENT_TYPES[name]
        if type(value) is not want or (want is int and value < 0):
            raise ValueError(f"event field {name!r} has the wrong type")
        if name in _EVENT_MEMBERS and value not in _EVENT_MEMBERS[name]:
            raise ValueError(f"event field {name!r} names no member")
    ev = PerfEvent(**d)
    for name in ("region", "src_region", "dst_region"):
        if name in d:
            if sorted(d[name]) != ["len", "offset", "space"]:
                raise ValueError(f"event field {name!r} has the wrong keys")
            setattr(ev, name, MemRegion.from_json(d[name]))
    return ev


def events_from_jsonl(text: str):
    """(events, summary or None) of an event log, or ValueError: each
    non-blank line through json.loads and the rules of docs/events.md one
    field at a time, then the reference rules."""
    events, summary, issued, issues = [], None, set(), 0
    try:
        for line in text.splitlines():
            if not line or line.isspace():
                continue
            d = json.loads(line)
            if d.get("kind") == "summary":
                summary = d
                continue
            ev = _event_from_json(d)
            if ev.kind == "instr_issue":
                if ev.idx != issues:
                    raise ValueError("instr_issue out of order")
                issues += 1
                if (ev.opcode in ("DMA_ISSUE", "DMA_WAIT") and not ev.annulled
                        and None in (ev.slot, ev.dma_id)):
                    raise ValueError("DMA op without its slot or dma_id")
            elif ev.idx is not None and ev.idx > issues:
                raise ValueError("idx past the next instr_issue")
            if ev.kind == "dma_issue":
                issued.add(ev.dma_id)
            elif (ev.kind in ("dma_base_done", "dma_transfer_start", "dma_complete")
                  or ev.opcode == "DMA_WAIT" and not ev.annulled) \
                    and ev.dma_id not in issued:
                raise ValueError("dma_id never issued")
            events.append(ev)
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            Fault) as e:
        raise ValueError(f"bad event line {line[:80]!r}: {e!r}") from None
    return events, summary


# ------------------------------------------------- per-bucket utilization

@dataclass
class OracleUtilization:
    unit: str
    bucket_width: int
    samples: List[Tuple[int, float]]            # (bucket start cycle, busy fraction)
    annotations: List[Tuple[int, int]] = field(default_factory=list)

    def to_json(self):
        """The series' value in the `utilization` section of report.json."""
        return {"unit": self.unit, "bucket_width": self.bucket_width,
                "samples": [[c, round(f, 6)] for c, f in self.samples],
                "annotations": self.annotations}

    def to_csv(self) -> str:
        """The text of the series' util_<unit>.csv."""
        return "bucket_start_cycle,busy_fraction\r\n" + "".join(
            "%d,%.6f\r\n" % s for s in self.samples)


def analyze_utilization(events: List[PerfEvent],
                        bucket_width: int = 1) -> Dict[str, OracleUtilization]:
    """Per unit, a fraction per bucket up to the last cycle or `until` of
    the log; each busy interval [s, e), in log order, adds (hi - lo) /
    bucket_width to every bucket [lo, hi) it meets."""
    busy: Dict[str, List[Tuple[int, int]]] = {u.value: [] for u in Unit}
    completions, end = [], 0
    for ev in events:
        end = max(end, ev.cycle)
        if ev.kind == UNIT_BUSY:
            busy[ev.unit].append((ev.cycle, ev.until))
            end = max(end, ev.until)
        elif ev.kind == DMA_COMPLETE:
            completions.append((ev.cycle, ev.dma_id))
    n_buckets = max(1, -(-end // bucket_width)) if end else 0
    out = {}
    for unit, intervals in busy.items():
        frac = [0.0] * n_buckets
        for s, e in intervals:
            b = s // bucket_width
            while b < n_buckets and b * bucket_width < e:
                lo = max(s, b * bucket_width)
                hi = min(e, (b + 1) * bucket_width)
                frac[b] += (hi - lo) / bucket_width
                b += 1
        out[unit] = OracleUtilization(
            unit, bucket_width, [(b * bucket_width, frac[b]) for b in range(n_buckets)],
            completions if unit == Unit.MXU.value else [])
    return out


# ----------------------------------------------------------------- assembler

_DIRECTIONS = {name: d for d, name in DMA_DIR_NAMES.items()}
_OPCODES = {op.name.lower(): op for op in FORMS}
_FIELDS = {kind: field_name for kind, (field_name, _) in REG_KINDS.items()}
_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*):")
_NUM_RE = re.compile(r"-?(0[xX][0-9a-fA-F]+|0|[1-9][0-9]*)")
_HLO_RE = re.compile(r"^\s*;;\s*hlo:\s*(\S+)\s*$")
_DATA_RE = re.compile(r"^(0[xX][0-9a-fA-F]+|[0-9]+)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^\[\s*(s[0-9]+)\s*\]$")
_HEX_BYTE_RE = re.compile(r"[0-9a-fA-F]{1,2}")


def _num(tok: str, line: int, col: int) -> int:
    if not _NUM_RE.fullmatch(tok):
        raise AsmError(line, col, f"expected number, got {tok!r}")
    return int(tok, 0)


def _parse_reg(tok: str, line: int, col: int, want: RegClass) -> RegisterId:
    try:
        r = RegisterId.parse(tok)
    except EncodingError as e:
        raise AsmError(line, col, str(e)) from None
    if r.cls is not want:
        raise AsmError(line, col, f"expected {want.value}-register, got {tok}")
    return r


def assemble(source: str) -> AssembledKernel:
    """The same kernel as xshark.workloads.assemble, or the same AsmError:
    pass 1 collects labels, directives and each instruction line's
    operand texts, pass 2 builds every line's Instruction anew."""
    labels: Dict[str, int] = {}
    pending: List[tuple] = []          # (line, col, mnemonic, operands, guard)
    hbm_image: List[Tuple[int, bytes]] = []
    vmem_image: List[Tuple[int, bytes]] = []
    opened: List[Tuple[str, int]] = []
    entry_label: Optional[Tuple[str, int]] = None

    for lineno, raw_line in enumerate(source.splitlines(), 1):
        line = raw_line
        hlo = ";;" in line and _HLO_RE.match(line)
        if hlo:
            opened.append((hlo.group(1), len(pending)))
            continue
        if ";" in line:
            line = line[:line.index(";")]
        line = line.strip()
        if not line:
            continue
        col = raw_line.index(line) + 1

        m = _LABEL_RE.match(line)
        if m:
            name = m.group(1)
            if name in labels:
                raise AsmError(lineno, 1, f"duplicate label {name!r}")
            labels[name] = len(pending)
            rest = line[m.end():]
            line = rest.strip()
            if not line:
                continue
            col += m.end() + len(rest) - len(rest.lstrip())
        if line.startswith("."):
            directive, rest = (line.split(None, 1) + [""])[:2]
            if directive == ".entry":
                entry_label = (rest.strip(), lineno)
                continue
            m2 = _DATA_RE.match(rest)
            if directive in (".data", ".data32", ".dataf", ".vdata", ".vdata32", ".vdataf"):
                if not m2:
                    raise AsmError(lineno, col, f"{directive} needs '<addr>: <values>'")
                addr = _num(m2.group(1), lineno, col)
                toks = m2.group(2).split()
                if directive.endswith("32"):
                    blob = b"".join(struct.pack("<I", _num(t, lineno, col) & 0xFFFFFFFF)
                                    for t in toks)
                elif directive.endswith("f"):
                    try:
                        blob = b"".join(struct.pack("<f", float(t.encode("ascii")))
                                        for t in toks)
                    except (ValueError, OverflowError):
                        raise AsmError(lineno, col, "bad float literal") from None
                else:
                    if not all(_HEX_BYTE_RE.fullmatch(t) for t in toks):
                        raise AsmError(lineno, col, "bad hex byte")
                    blob = bytes(int(t, 16) for t in toks)
                (vmem_image if directive.startswith(".v") else hbm_image).append((addr, blob))
                continue
            raise AsmError(lineno, col, f"unknown directive {directive}")

        pred = None
        if line.startswith("@"):
            ptok, _, line = line.partition(" ")
            pred = _parse_reg(ptok[1:], lineno, col, RegClass.PREDICATE)
            line = line.strip()
            if not line:
                raise AsmError(lineno, col, "guard without an instruction")
        toks = line.split(None, 1)
        ops = [o.strip() for o in toks[1].split(",")] if len(toks) > 1 else []
        pending.append((lineno, col, toks[0].lower(), ops, pred))

    ends = [start for _, start in opened[1:]] + [len(pending)]
    regions = [(name, start, end) for (name, start), end in zip(opened, ends)
               if end > start]
    instructions = [_build(*ent, labels, len(pending)) for ent in pending]
    entry_pc = 0
    if entry_label is not None:
        name, lineno = entry_label
        if name not in labels:
            raise AsmError(lineno, 1, f"entry label {name!r} undefined")
        entry_pc = labels[name]
    return AssembledKernel(Program(tuple(instructions), entry_pc), hbm_image,
                           vmem_image, labels, regions)


def _target(tok: str, labels, n: int, line: int, col: int) -> int:
    if tok[:1].isdigit() or tok[:1] == "-":
        t = _num(tok, line, col)
    elif tok in labels:
        t = labels[tok]
    else:
        raise AsmError(line, col, f"undefined label {tok!r}")
    if not 0 <= t < n:
        raise AsmError(line, col, f"branch target {t} out of bounds")
    return t


def _build(line: int, col: int, m: str, ops: list, pred, labels, n: int) -> Instruction:
    op = _OPCODES.get(m)
    if op is None:
        raise AsmError(line, col, f"unknown mnemonic {m!r}")
    forms = FORMS[op]
    form = next((f for f in forms if len(f.operands) == len(ops)), None)
    if form is None:
        raise AsmError(line, col, f"{m} expects {len(forms[-1].operands)} operands, "
                                  f"got {len(ops)}")
    values = {"dst": [], "src": [], "imm": []}
    for (_, kind), tok in zip(form.operands, ops):
        if kind == "[s]":
            mm = _MEM_RE.match(tok)
            if not mm:
                raise AsmError(line, col, f"expected [sN] operand, got {tok!r}")
            tok = mm.group(1)
        if kind in REG_KINDS:
            value = _parse_reg(tok, line, col, REG_KINDS[kind][1])
        elif kind == "mode" and tok.lower() in CMP_MODES:
            value = CMP_MODES.index(tok.lower())
        elif kind == "dir":
            if tok not in _DIRECTIONS:
                raise AsmError(line, col, f"unknown DMA direction {tok!r}")
            value = _DIRECTIONS[tok]
        elif kind == "target":
            value = _target(tok, labels, n, line, col)
        else:
            value = _num(tok, line, col)
        values[_FIELDS.get(kind, "imm")].append(value)
    try:
        return make_instruction(op, tuple(values["dst"]), tuple(values["src"]),
                                tuple(values["imm"]), pred, form)
    except EncodingError as e:
        raise AsmError(line, col, str(e)) from None


def trace_to_json(trace: ExecutionTrace) -> str:
    payload = {
        "header": trace.header.to_json(),
        "reg_snapshots": [[str(r), base64.b64encode(d).decode()]
                          for r, d in trace.reg_snapshots],
        "mem_snapshots": [[m.to_json(), base64.b64encode(d).decode()]
                          for m, d in trace.mem_snapshots],
        "instr_stream": [[pc, encode_instruction(i).hex()]
                         for pc, i in trace.instr_stream],
    }
    checksum = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return json.dumps({"format": "xshark-trace", "version": TRACE_VERSION,
                       **payload, "checksum": checksum}, indent=1)
