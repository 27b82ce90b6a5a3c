"""Execution recorder: captures a replayable window as first-use inputs plus
the executed instruction stream.

Per dynamic instruction: parse its inputs and outputs, snapshot the inputs
that are first uses, step, then (if the step succeeded) count its outputs as
written. The rule, shared with the replayer through `WindowLedger`, is
docs/trace-format.md, "Window footprint and the `window:` digest".

The trace container is a single JSON file (header + base64 snapshot blobs +
hex instruction stream + sha256 checksum); a compact binary variant sits
behind the same reader. See docs/trace-format.md.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

from . import gc_paused
from .isa import (INSTR_BYTES, ISA_VERSION, EncodingError, Fault,
                  Instruction, MemRegion, MemSpace, RegClass, RegisterId,
                  decode_shared, encode_instruction, instruction_io_sets)
from .sim import Breakpoint, Simulator
from .window import Footprint, WindowLedger

TRACE_MAGIC = b"XTRC"
TRACE_VERSION = 1


class TraceError(Exception):
    """Trace container problem. `code` is stable: TRACE_FORMAT,
    TRACE_CHECKSUM, TRACE_VERSION, TRACE_CONFIG_MISMATCH."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class TraceHeader:
    isa_version: int
    sim_config_hash: str
    start_pc: int
    start_cycle: int
    instruction_count: int
    ended_at_halt: bool = False
    fault_kind: Optional[str] = None

    def to_json(self):
        return asdict(self)                # the fields in declaration order

    @staticmethod
    def from_json(d):
        h = TraceHeader(d["isa_version"], d["sim_config_hash"],
                        d["start_pc"], d["start_cycle"],
                        d["instruction_count"], d.get("ended_at_halt", False),
                        d.get("fault_kind"))
        if not all(type(v) is int for v in (h.isa_version, h.start_pc, h.start_cycle,
                                            h.instruction_count)):
            raise ValueError("trace header counters must be integers")
        if (type(h.sim_config_hash) is not str or type(h.ended_at_halt) is not bool
                or type(h.fault_kind) not in (str, type(None))):
            raise ValueError("trace header sim_config_hash, ended_at_halt or "
                             "fault_kind has the wrong type")
        if h.isa_version != ISA_VERSION:
            raise TraceError("TRACE_VERSION",
                             f"trace ISA version {h.isa_version} != {ISA_VERSION}")
        return h


@dataclass
class ExecutionTrace:
    header: TraceHeader
    reg_snapshots: List[Tuple[RegisterId, bytes]]
    mem_snapshots: List[Tuple[MemRegion, bytes]]
    instr_stream: List[Tuple[int, Instruction]]    # (pc, instruction) as executed

    def check_config_hash(self, config_hash: str):
        """The config-hash gate: a trace replays only under the SimConfig
        whose hash it was recorded with."""
        if self.header.sim_config_hash != config_hash:
            raise TraceError("TRACE_CONFIG_MISMATCH",
                             "trace was recorded under a different SimConfig; replay "
                             "fidelity requires identical timing parameters")

    def validate(self) -> WindowLedger:
        """Check the container's invariants; returns the ledger in which
        exactly the snapshotted locations are defined."""
        ledger = WindowLedger()
        for r, data in self.reg_snapshots:
            if r in ledger.regs:
                raise TraceError("TRACE_FORMAT", f"duplicate register snapshot {r}")
            ledger.regs.add(r)
            if len(data) != r.width_bytes:
                raise TraceError("TRACE_FORMAT", f"snapshot width mismatch for {r}")
        for region, data in self.mem_snapshots:
            if len(data) != region.length:
                raise TraceError("TRACE_FORMAT", f"snapshot width mismatch for {region}")
            if not ledger.define(region):
                raise TraceError("TRACE_FORMAT", f"overlapping memory snapshot {region}")
        h, stream = self.header, self.instr_stream
        if h.instruction_count != len(stream):
            raise TraceError("TRACE_FORMAT", "instruction count mismatch")
        if (min(h.start_cycle, h.start_pc, *(pc for pc, _ in stream)) < 0
                or stream and stream[0][0] != h.start_pc):
            raise TraceError("TRACE_FORMAT", "a negative start_cycle or pc, or a "
                                             "start_pc that is not the first record's pc")
        return ledger

    @property
    def snapshot_bytes(self) -> int:
        return (sum(len(d) for _, d in self.reg_snapshots)
                + sum(len(d) for _, d in self.mem_snapshots))


@dataclass
class RecordResult:
    trace: ExecutionTrace
    footprint: Footprint                       # what the live window wrote
    recorded: int = 0
    ended_at_halt: bool = False
    fault: Optional[Fault] = None


@gc_paused
def record(sim: Simulator, breakpoint: Optional[Breakpoint],
           n_instructions: int, fast_forward_dma: bool = False,
           max_cycles: int = 10_000_000) -> RecordResult:
    """Run `sim` to the breakpoint (if given), then record up to n_instructions.

    Recording refuses to start while a DMA is in flight unless
    fast_forward_dma is set: then `sim` steps on until the engine is
    quiescent, and raises the Fault of a step that faults. Traces are
    self-contained. A fault before an instruction executes, such as the
    pc_oob of a pc outside the program, ends the window as Simulator.step
    makes it.
    """
    if n_instructions <= 0:
        raise ValueError("n_instructions must be positive")
    if breakpoint is not None:
        outcome = sim.run_to(breakpoint, max_cycles)
        if outcome != "hit":
            raise Fault("bp_not_hit",
                        f"breakpoint at pc={breakpoint.pc} not reached ({outcome})")

    state = sim.state
    inflight = [i for i, s in enumerate(state.dma_slots) if s.active]
    if inflight:
        if not fast_forward_dma:
            raise Fault("dma_inflight",
                        f"recording with DMAs in flight on slots {inflight}; "
                        "pass fast_forward_dma to run to quiescence")
        while any(s.active for s in state.dma_slots):
            fault = sim.step()
            if fault is not None:
                raise fault
            if state.halted or state.cycle >= max_cycles:
                raise Fault("dma_inflight", "could not reach DMA quiescence")

    start_pc, start_cycle = state.pc, state.cycle
    ledger = WindowLedger()
    reg_snaps, mem_snaps, stream = [], [], []
    fault = None

    for _ in range(n_instructions):
        instr, pc = sim.peek(), state.pc
        if instr is None:       # halted (None), or the pc_oob fault
            fault = sim.step()
            break
        try:
            ios = instr.static_io or instruction_io_sets(instr, state, pc)
        except Fault:
            fault = sim.step()  # the same fault, which halts the machine
            break
        regs, pieces = ledger.first_uses(ios)
        for r in regs:
            reg_snaps.append((r, state.read_reg_bytes(r)))
        for m in pieces:
            mem_snaps.append((m, state.read_mem(m)))
        fault = sim.exec_instruction(instr, pc, ios)
        if fault is not None:
            break
        ledger.wrote(ios)
        stream.append((pc, instr))

    sim.sync()
    ended_at_halt = state.halted and fault is None
    header = TraceHeader(ISA_VERSION, sim.config.config_hash(), start_pc,
                         start_cycle, len(stream), ended_at_halt,
                         fault.kind if fault else None)
    trace = ExecutionTrace(header, reg_snaps, mem_snaps, stream)
    trace.validate()
    return RecordResult(trace, ledger.close(state.dma_slots), len(stream),
                        ended_at_halt, fault)


# -- container formats ---------------------------------------------------

_REG_CLASSES = tuple(RegClass)   # a binary register snapshot's class tag: index here


def _payload_checksum(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def trace_to_json(trace: ExecutionTrace) -> str:
    # the text of json.dumps(container, indent=1); instr_stream, its bulk, by template
    hexes = {id(i): i for _, i in trace.instr_stream}   # each distinct Instruction
    hexes = {k: encode_instruction(i).hex() for k, i in hexes.items()}
    stream = [(pc, hexes[id(i)]) for pc, i in trace.instr_stream]
    payload = {"header": trace.header.to_json(),
               "reg_snapshots": [[str(r), base64.b64encode(d).decode()]
                                 for r, d in trace.reg_snapshots],
               "mem_snapshots": [[m.to_json(), base64.b64encode(d).decode()]
                                 for m, d in trace.mem_snapshots]}
    checksum = _payload_checksum({**payload, "instr_stream": stream})
    head = json.dumps({"format": "xshark-trace", "version": TRACE_VERSION, **payload},
                      indent=1)
    rows = ",\n  ".join(map('[\n   %d,\n   "%s"\n  ]'.__mod__, stream))
    return (head[:-2] + ',\n "instr_stream": ' + ("[\n  " + rows + "\n ]" if rows else "[]")
            + ',\n "checksum": "' + checksum + '"\n}')


def trace_to_binary(trace: ExecutionTrace) -> bytes:
    out = bytearray()
    out += TRACE_MAGIC
    out += struct.pack("<H", TRACE_VERSION)
    hdr = json.dumps(trace.header.to_json(), sort_keys=True).encode()
    out += struct.pack("<I", len(hdr)) + hdr
    out += struct.pack("<I", len(trace.reg_snapshots))
    for r, d in trace.reg_snapshots:
        out += struct.pack("<BBH", _REG_CLASSES.index(r.cls), r.index, len(d)) + d
    out += struct.pack("<I", len(trace.mem_snapshots))
    for m, d in trace.mem_snapshots:
        out += struct.pack("<BQI", 0 if m.space is MemSpace.HBM else 1,
                           m.offset, m.length) + d
    out += struct.pack("<I", len(trace.instr_stream))
    for pc, instr in trace.instr_stream:
        out += struct.pack("<I", pc) + encode_instruction(instr)
    out += hashlib.sha256(bytes(out)).digest()
    return bytes(out)


def write_trace(trace: ExecutionTrace, destination: str, binary: bool = False):
    with open(destination, "wb") as fh:      # the JSON text is ASCII
        fh.write(trace_to_binary(trace) if binary else trace_to_json(trace).encode())


def _trace_from_json(text: str) -> ExecutionTrace:
    doc = json.loads(text)
    if doc.get("format") != "xshark-trace":
        raise TraceError("TRACE_FORMAT", "missing xshark-trace format marker")
    if doc.get("version") != TRACE_VERSION:
        raise TraceError("TRACE_VERSION", f"unsupported trace version {doc.get('version')}")
    payload = {k: doc[k] for k in ("header", "reg_snapshots", "mem_snapshots",
                                   "instr_stream")}
    if _payload_checksum(payload) != doc.get("checksum"):
        raise TraceError("TRACE_CHECKSUM", "trace payload checksum mismatch")
    return ExecutionTrace(
        TraceHeader.from_json(doc["header"]),
        [(RegisterId.parse(r), base64.b64decode(d, validate=True))
         for r, d in doc["reg_snapshots"]],
        [(MemRegion.from_json(m), base64.b64decode(d, validate=True))
         for m, d in doc["mem_snapshots"]],
        _decode_stream((pc, bytes.fromhex(raw)) for pc, raw in doc["instr_stream"]),
    )


def _trace_from_binary(blob: bytes) -> ExecutionTrace:
    """The trace of a binary container, which read_trace knows by its magic."""
    blob, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(blob).digest() != digest:
        raise TraceError("TRACE_CHECKSUM", "trace payload checksum mismatch")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != TRACE_VERSION:
        raise TraceError("TRACE_VERSION", f"unsupported trace version {version}")
    pos = 6
    (hlen,) = struct.unpack_from("<I", blob, pos); pos += 4
    header = TraceHeader.from_json(json.loads(blob[pos:pos + hlen])); pos += hlen
    (nreg,) = struct.unpack_from("<I", blob, pos); pos += 4
    regs = []
    for _ in range(nreg):
        tag, idx, ln = struct.unpack_from("<BBH", blob, pos); pos += 4
        regs.append((RegisterId(_REG_CLASSES[tag], idx), blob[pos:pos + ln])); pos += ln
    (nmem,) = struct.unpack_from("<I", blob, pos); pos += 4
    mems = []
    for _ in range(nmem):
        sp, off, ln = struct.unpack_from("<BQI", blob, pos); pos += 13
        mems.append((MemRegion(MemSpace.HBM if sp == 0 else MemSpace.VMEM, off, ln),
                     blob[pos:pos + ln]))
        pos += ln
    (nins,) = struct.unpack_from("<I", blob, pos); pos += 4
    stream = []
    for _ in range(nins):
        (pc,) = struct.unpack_from("<I", blob, pos); pos += 4
        stream.append((pc, blob[pos:pos + INSTR_BYTES])); pos += INSTR_BYTES
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} bytes past the instruction stream")
    return ExecutionTrace(header, regs, mems, _decode_stream(stream))


def _decode_stream(records) -> List[Tuple[int, Instruction]]:
    """(pc, Instruction) per (pc, 16-byte record), each distinct record
    decoded once into one shared (frozen) Instruction; a record that does
    not decode, or whose pc is not an integer, is TRACE_FORMAT naming its
    index."""
    stream, decoded = [], {}
    for i, (pc, raw) in enumerate(records):
        try:
            if type(pc) is not int:
                raise EncodingError(f"pc {pc!r} is not an integer")
            stream.append((pc, decode_shared(raw, decoded)))
        except EncodingError as e:
            raise TraceError("TRACE_FORMAT",
                             f"instruction record {i} does not decode: {e}") from None
    return stream


def read_trace(source: str, expected_config_hash: Optional[str] = None) -> ExecutionTrace:
    with open(source, "rb") as fh:
        blob = fh.read()
    try:
        if blob[:4] == TRACE_MAGIC:
            trace = _trace_from_binary(blob)
        else:
            trace = _trace_from_json(blob.decode())
    except (ValueError, LookupError, TypeError, AttributeError, struct.error,
            RecursionError, Fault) as e:
        # undecodable text, bad JSON/base64/hex, nesting too deep to decode,
        # missing fields, short binary records, bad register bytes, empty
        # regions
        raise TraceError("TRACE_FORMAT", f"malformed trace: {e!r}") from None
    if expected_config_hash is not None:
        trace.check_config_hash(expected_config_hash)
    trace.validate()
    return trace
