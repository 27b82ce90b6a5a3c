"""Toy accelerator ISA: registers, memory spaces, instructions, machine state.

Single source of truth for the instruction set. Every instruction is a fixed
16-byte little-endian record (layout in docs/isa.md):

  byte  0      opcode
  byte  1      guard predicate register (0xff = unpredicated)
  byte  2      destination register     (0xff = none)
  bytes 3-5    source registers         (0xff = none)
  bytes 6-9    imm0, signed 32-bit LE
  bytes 10-13  imm1, signed 32-bit LE
  bytes 14-15  reserved, must be zero

Register bytes carry the class in bits 7:6 (00=scalar, 01=vector,
10=predicate) and the index in bits 5:0.

OPCODES below gives each opcode's unit and operand forms, the one copy of
the operand syntax; docs/isa.md gives their semantics.

Any instruction may carry a guard predicate; when the guard is false the
instruction is annulled and its only architectural input is the guard itself.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import NamedTuple, Optional

ISA_VERSION = 1

SCALAR_REGS = 32
VECTOR_REGS = 32
PRED_REGS = 8
VLEN_BYTES = 64          # one vector register == one VMEM page
PAGE_BYTES = 64
MXU_TILE_DIM = 16
MXU_TILE_BYTES = MXU_TILE_DIM * MXU_TILE_DIM * 4  # 1024
INSTR_BYTES = 16
DMA_SLOTS = 16

DEFAULT_VMEM_CAPACITY = 2 * 1024 * 1024
VMEM_BUCKETS = 128       # equal page buckets in the VMEM analysis views
DEFAULT_HBM_CAPACITY = 256 * 1024 * 1024


class Fault(Exception):
    """Architectural fault raised during decode, IO-set parsing or execution.

    kind is a stable machine-readable tag; detail names the offending
    register/value where applicable.
    """

    def __init__(self, kind: str, message: str, pc: Optional[int] = None):
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.pc = pc

    def describe(self) -> str:
        loc = f" at pc={self.pc}" if self.pc is not None else ""
        return f"{self.kind}{loc}: {self.message}"


class EncodingError(ValueError):
    pass


class RegClass(Enum):
    SCALAR = "s"
    VECTOR = "v"
    PREDICATE = "p"


_REG_LIMIT = {RegClass.SCALAR: SCALAR_REGS, RegClass.VECTOR: VECTOR_REGS,
              RegClass.PREDICATE: PRED_REGS}
_REG_TAG = {cls: tag for tag, cls in enumerate(RegClass)}   # encoding bits 7:6
_REG_WIDTH = {RegClass.SCALAR: 4, RegClass.VECTOR: VLEN_BYTES, RegClass.PREDICATE: 1}


@dataclass(frozen=True)
class RegisterId:
    cls: RegClass
    index: int
    name: str = field(init=False, repr=False, compare=False)   # `s0`, `v3`, ...

    def __post_init__(self):
        if not 0 <= self.index < _REG_LIMIT[self.cls]:
            raise EncodingError(f"register index {self.index} out of range for {self.cls.value}")
        object.__setattr__(self, "name", f"{self.cls.value}{self.index}")

    def __hash__(self):
        return hash(self.name)          # a str caches its hash; an Enum does not

    def __str__(self):
        return self.name

    @property
    def width_bytes(self) -> int:
        return _REG_WIDTH[self.cls]

    @staticmethod
    def parse(text: str) -> "RegisterId":
        """The register named exactly `s0`..`s31`, `v0`..`v31` or `p0`..`p7`."""
        r = _REG_BY_NAME.get(text)
        if r is not None:
            return r
        m = _REG_NAME_RE.fullmatch(text)
        if m is None:
            raise EncodingError(f"bad register name {text!r}")
        return RegisterId(RegClass(m[1]), int(m[2]))   # out of range: raises


# the 72 registers, interned by name and by encoding byte (0xff: none)
_REG_NAME_RE = re.compile(r"([svp])(0|[1-9][0-9]*)")
_REG_BY_NAME = {}
_REG_BY_BYTE = {0xFF: None}
for _cls, _tag in _REG_TAG.items():
    for _i in range(_REG_LIMIT[_cls]):
        _REG_BY_BYTE[_tag << 6 | _i] = _REG_BY_NAME[f"{_cls.value}{_i}"] = \
            RegisterId(_cls, _i)
REGISTER_NAMES = frozenset(_REG_BY_NAME)


class MemSpace(Enum):
    HBM = "hbm"
    VMEM = "vmem"


@dataclass(frozen=True)
class MemRegion:
    space: MemSpace
    offset: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise Fault("mem_empty", f"zero/negative length region at offset {self.offset}")
        if self.offset < 0:
            raise Fault("mem_oob", f"negative offset {self.offset}")

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, other: "MemRegion") -> bool:
        return (self.space is other.space and self.offset < other.end
                and other.offset < self.end)

    def __str__(self):
        return f"{self.space.value}[{self.offset:#x}+{self.length}]"

    def to_json(self):
        return {"space": self.space.value, "offset": self.offset, "len": self.length}

    @staticmethod
    def from_json(d) -> "MemRegion":
        """A region object of exactly the keys space, offset and len; its
        offset and len are ints, never bools."""
        if d.keys() != _REGION_KEYS:
            raise ValueError(f"a region has exactly the keys space, offset "
                             f"and len: {d!r}")
        if type(d["offset"]) is not int or type(d["len"]) is not int:
            raise ValueError(f"region offset and len must be integers: {d!r}")
        return MemRegion(MemSpace(d["space"]), d["offset"], d["len"])


_REGION_KEYS = frozenset(("space", "offset", "len"))


class Opcode(IntEnum):
    S_LDI = 0x01
    S_ADD = 0x02
    S_MUL = 0x03
    S_CMP = 0x04
    S_MOV = 0x05
    V_ADD = 0x06
    V_MUL = 0x07
    V_LOAD = 0x08
    V_STORE = 0x09
    MXU_MM = 0x0A
    DMA_ISSUE = 0x0B
    DMA_WAIT = 0x0C
    BR = 0x0D
    BRZ = 0x0E
    HALT = 0x0F


class Unit(Enum):
    SALU = "SALU"
    VALU = "VALU"
    LSU = "LSU"
    MXU = "MXU"
    DMA = "DMA"
    CTRL = "CTRL"


CMP_MODES = ("eq", "ne", "lt", "le", "gt", "ge")

# DMA direction immediate -> (src space, dst space)
DMA_DIRS = {
    0: (MemSpace.HBM, MemSpace.VMEM),
    1: (MemSpace.VMEM, MemSpace.HBM),
    2: (MemSpace.VMEM, MemSpace.VMEM),
    3: (MemSpace.HBM, MemSpace.HBM),
}
# DMA direction immediate -> its text, also the event logs' `link`
DMA_DIR_NAMES = {d: f"{src.value}>{dst.value}" for d, (src, dst) in DMA_DIRS.items()}

S = RegClass.SCALAR
V = RegClass.VECTOR
P = RegClass.PREDICATE

# The opcode table: each opcode's unit and operand forms, the one place that
# lists the operand syntax (docs/isa.md shows it). A form lists its operands
# in text order as `name:kind`, or just `kind` when the two agree.
# Register kinds read (`s`, `v`, `p`, `[s]`: a scalar in brackets) or write
# (`sd`, `vd`, `pd`) a register of that class; the other kinds are
# immediates. Registers and immediates fill Instruction's dst_regs, src_regs
# and immediates in text order.
OPCODES = {
    Opcode.S_LDI:     (Unit.SALU, "rd:sd, imm"),
    Opcode.S_ADD:     (Unit.SALU, "rd:sd, ra:s, rb:s"),
    Opcode.S_MUL:     (Unit.SALU, "rd:sd, ra:s, rb:s"),
    Opcode.S_CMP:     (Unit.SALU, "pd:pd, ra:s, rb:s, m:mode"),
    Opcode.S_MOV:     (Unit.SALU, "rd:sd, ra:s", "rd:sd, va:v, lane"),
    Opcode.V_ADD:     (Unit.VALU, "vd:vd, va:v, vb:v"),
    Opcode.V_MUL:     (Unit.VALU, "vd:vd, va:v, vb:v"),
    Opcode.V_LOAD:    (Unit.LSU, "vd:vd, [ra]:[s]"),
    Opcode.V_STORE:   (Unit.LSU, "[ra]:[s], vb:v"),
    Opcode.MXU_MM:    (Unit.MXU, "rd:s, ra:s, rb:s"),
    Opcode.DMA_ISSUE: (Unit.DMA, "slot, dir, rs:s, rd:s, rl:s"),
    Opcode.DMA_WAIT:  (Unit.DMA, "slot"),
    Opcode.BR:        (Unit.CTRL, "target"),
    Opcode.BRZ:       (Unit.CTRL, "p:p, target"),
    Opcode.HALT:      (Unit.CTRL, ""),
}

# register kind -> (Instruction field, register class)
REG_KINDS = {"s": ("src", S), "v": ("src", V), "p": ("src", P), "[s]": ("src", S),
             "sd": ("dst", S), "vd": ("dst", V), "pd": ("dst", P)}

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1
_WIDE = "immediate {} exceeds 32 bits"

# immediate kind -> (lowest value, end, message for a 32-bit value outside)
IMM_KINDS = {
    "imm": (_I32_MIN, _I32_MAX + 1, _WIDE),
    "target": (_I32_MIN, _I32_MAX + 1, _WIDE),
    "lane": (0, VLEN_BYTES // 4, "vector-lane S_MOV needs lane immediate in [0,16)"),
    "mode": (0, len(CMP_MODES), "S_CMP mode {} unknown"),
    "slot": (0, DMA_SLOTS, f"DMA slot {{}} out of range [0,{DMA_SLOTS})"),
    "dir": (0, len(DMA_DIRS), "DMA direction {} unknown"),
}


class Form(NamedTuple):
    """One operand form of an opcode, read from OPCODES."""
    operands: tuple          # ((name, kind), ...) in text order
    dst: list                # classes of the written registers; lists, as
    src: list                # _form_of compares them with lists (no hashing)
    imms: tuple              # immediate kinds
    target: Optional[int]    # index of the branch target in imms


def _form(text: str) -> Form:
    operands = tuple((name, kind or name) for name, _, kind in
                     (op.partition(":") for op in text.split(", ") if op))
    regs = [REG_KINDS[k] for _, k in operands if k in REG_KINDS]
    imms = tuple(k for _, k in operands if k not in REG_KINDS)
    return Form(operands, [c for f, c in regs if f == "dst"],
                [c for f, c in regs if f == "src"], imms,
                imms.index("target") if "target" in imms else None)


FORMS = {op: tuple(map(_form, texts)) for op, (_, *texts) in OPCODES.items()}


def _form_of(opcode: Opcode, dst_regs: tuple, src_regs: tuple) -> Optional[Form]:
    dst, src = [r.cls for r in dst_regs], [r.cls for r in src_regs]
    for form in FORMS[opcode]:
        if form.dst == dst and form.src == src:
            return form
    return None


class IoSets(NamedTuple):
    """Exact architectural read/write footprint of one dynamic instruction."""

    input_regs: tuple
    output_regs: tuple
    input_mem: tuple
    output_mem: tuple


class _Fields:
    """An Instruction's fields, writable. make_instruction fills one and then
    makes it an Instruction by assigning its class (the two share one
    layout): one assignment in place of the object.__setattr__ call per
    field that a frozen class needs."""

    __slots__ = ("opcode", "dst_regs", "src_regs", "immediates", "predicate",
                 "form", "io", "static_io")


@dataclass(frozen=True, init=False)
class Instruction(_Fields):
    """One instruction, checked against its opcode's forms in OPCODES;
    immutable, and equal to another of the same opcode, registers,
    immediates and guard.

    `form` is the form its operands match. `io` is the footprint that does
    not depend on the state: all of it for a register-only opcode, the
    registers of one that addresses memory (instruction_io_sets).
    `static_io` is instruction_io_sets from any state when no state can
    change it: `io` for an unguarded instruction that addresses no memory,
    None for the others, whose footprint is parsed per step. An IoSets is
    never false, so `static_io or instruction_io_sets(...)` is the
    footprint. Both are slots set at construction, so every read of them
    is a plain attribute read."""

    __slots__ = ()
    opcode: Opcode
    dst_regs: tuple
    src_regs: tuple
    immediates: tuple
    predicate: Optional[RegisterId]
    form: Form = field(compare=False, repr=False)
    io: IoSets = field(compare=False, repr=False)
    static_io: Optional[IoSets] = field(compare=False, repr=False)

    def __new__(cls, opcode: Opcode, dst_regs: tuple = (), src_regs: tuple = (),
                immediates: tuple = (), predicate: Optional[RegisterId] = None):
        return make_instruction(opcode, dst_regs, src_regs, immediates, predicate)

    def __reduce__(self):
        return make_instruction, (self.opcode, self.dst_regs, self.src_regs,
                                  self.immediates, self.predicate)


_tuple_new = tuple.__new__     # an IoSets without its Python-level __new__


def make_instruction(opcode: Opcode, dst_regs: tuple, src_regs: tuple,
                     immediates: tuple, predicate: Optional[RegisterId],
                     form: Optional[Form] = None) -> Instruction:
    """Instruction(opcode, dst_regs, src_regs, immediates, predicate) in one
    call. The assembler and decode_instruction, which have matched the
    operands against `form`, pass it; without it, one is matched here.
    Raises EncodingError for operands no form of the opcode takes, then for
    an immediate out of its kind's range, then for a guard that is not a
    predicate register."""
    form = form or _form_of(opcode, dst_regs, src_regs)
    if form is None or len(immediates) != len(form.imms):
        raise EncodingError(_shape_error(opcode, dst_regs, src_regs))
    if immediates:
        for imm, kind in zip(immediates, form.imms):
            lo, end, message = IMM_KINDS[kind]
            if not lo <= imm < end:
                raise EncodingError((message if _I32_MIN <= imm <= _I32_MAX
                                     else _WIDE).format(imm))
    if predicate is None:
        io = _tuple_new(IoSets, (src_regs, dst_regs, (), ()))
        static_io = None if opcode in MEM_OPCODES else io
    elif predicate.cls is P:
        io = _tuple_new(IoSets, ((predicate,) + src_regs, dst_regs, (), ()))
        static_io = None
    else:
        raise EncodingError("guard must be a predicate register")
    ins = _Fields()
    ins.opcode = opcode
    ins.dst_regs = dst_regs
    ins.src_regs = src_regs
    ins.immediates = immediates
    ins.predicate = predicate
    ins.form = form
    ins.io = io
    ins.static_io = static_io
    ins.__class__ = Instruction
    return ins


def _shape_error(opcode: Opcode, dst_regs: tuple, src_regs: tuple) -> str:
    name, dst = opcode.name, [r.cls for r in dst_regs]
    if all(f.dst != dst for f in FORMS[opcode]):
        return f"{name}: bad destination operands"
    form = _form_of(opcode, dst_regs, src_regs)
    if form is None:
        return f"{name}: bad source operands"
    return f"{name}: expected {len(form.imms)} immediates"


def _enc_reg(r: Optional[RegisterId]) -> int:
    return 0xFF if r is None else _REG_TAG[r.cls] << 6 | r.index


def _dec_reg(b: int) -> Optional[RegisterId]:
    if b in _REG_BY_BYTE:
        return _REG_BY_BYTE[b]
    if b >> 6 == 3:
        raise EncodingError(f"bad register byte {b:#04x}")
    return RegisterId(list(RegClass)[b >> 6], b & 0x3F)   # out of range: raises


_RECORD = struct.Struct("<BBBBBBii2x")


def encode_instruction(instr: Instruction) -> bytes:
    regs = (instr.predicate, *(instr.dst_regs or (None,)),
            *instr.src_regs, *(None,) * (3 - len(instr.src_regs)))
    return _RECORD.pack(instr.opcode, *map(_enc_reg, regs), *instr.immediates,
                        *(0,) * (2 - len(instr.immediates)))


_OPCODE_BY_BYTE = {op.value: op for op in Opcode}


def decode_instruction(raw: bytes) -> Instruction:
    if len(raw) != INSTR_BYTES:
        raise EncodingError(f"instruction record must be {INSTR_BYTES} bytes, got {len(raw)}")
    op_b, pred_b, dst_b, s0, s1, s2, imm0, imm1 = _RECORD.unpack(raw)
    if raw[14:16] != b"\x00\x00":
        raise EncodingError("reserved bytes must be zero")
    opcode = _OPCODE_BY_BYTE.get(op_b)
    if opcode is None:
        raise EncodingError(f"unknown opcode byte {op_b:#04x}")
    dst = _dec_reg(dst_b)
    dsts = (dst,) if dst else ()
    srcs = tuple(filter(None, (_dec_reg(s0), _dec_reg(s1), _dec_reg(s2))))
    form = _form_of(opcode, dsts, srcs)
    imms = (imm0, imm1)[:len(form.imms) if form else 0]
    return make_instruction(opcode, dsts, srcs, imms, _dec_reg(pred_b), form)


def decode_shared(raw: bytes, decoded: dict) -> Instruction:
    """decode_instruction(raw) through `decoded`, the records a stream has
    decoded so far: each distinct record is decoded once, and its (frozen)
    Instruction is shared by every record equal to it."""
    instr = decoded.get(raw)
    if instr is None:
        instr = decoded[raw] = decode_instruction(raw)
    return instr


@dataclass(frozen=True)
class Program:
    """Decoded instruction stream. Branch targets are instruction indices."""

    instructions: tuple
    entry_pc: int = 0

    def __post_init__(self):
        n = len(self.instructions)
        if not 0 <= self.entry_pc <= n:
            raise EncodingError(f"entry pc {self.entry_pc} out of bounds")
        for i, ins in enumerate(self.instructions):
            if ins.form.target is not None:
                tgt = ins.immediates[ins.form.target]
                if not 0 <= tgt < n:
                    raise EncodingError(f"branch target {tgt} at index {i} out of bounds")

    def __len__(self):
        return len(self.instructions)

    def to_bytes(self) -> bytes:
        return b"".join(encode_instruction(i) for i in self.instructions)

    @staticmethod
    def from_bytes(raw: bytes, entry_pc: int) -> "Program":
        if len(raw) % INSTR_BYTES:
            raise EncodingError("program byte length not a multiple of 16")
        decoded = {}
        instrs = tuple(decode_shared(raw[i:i + INSTR_BYTES], decoded)
                       for i in range(0, len(raw), INSTR_BYTES))
        return Program(instrs, entry_pc)


class SparseBytes:
    """Sparse zero-backed byte store for the HBM address space."""

    PAGE = 4096

    def __init__(self):
        self._pages: dict = {}

    def read(self, offset: int, length: int) -> bytes:
        out = bytearray(length)
        pos = 0
        while pos < length:
            page, off = divmod(offset + pos, self.PAGE)
            n = min(self.PAGE - off, length - pos)
            buf = self._pages.get(page)
            if buf is not None:
                out[pos:pos + n] = buf[off:off + n]
            pos += n
        return bytes(out)

    def write(self, offset: int, data: bytes):
        pos = 0
        while pos < len(data):
            page, off = divmod(offset + pos, self.PAGE)
            n = min(self.PAGE - off, len(data) - pos)
            buf = self._pages.get(page)
            if buf is None:
                buf = self._pages[page] = bytearray(self.PAGE)
            buf[off:off + n] = data[pos:pos + n]
            pos += n


class DmaSlotState:
    """One DMA engine slot: what the machine needs of its transfer.

    The schedule is fully determined at issue time (base latency is
    constant; the per-link queue is FIFO in base-done order, which equals
    issue order), so a DMA_WAIT reads its stall bounds from here. `applied`
    flips when the destination bytes become visible at complete_cycle. The
    full timeline is in the event log only (docs/events.md).
    """

    __slots__ = ("active", "dst", "base_done_cycle", "complete_cycle", "buffer",
                 "applied", "dma_id")

    def __init__(self):
        self.active = False
        self.dst = None
        self.base_done_cycle = 0
        self.complete_cycle = 0
        self.buffer = b""
        self.applied = False
        self.dma_id = -1


class MachineState:
    """Full architectural state: registers, VMEM, HBM, DMA slots, cycle."""

    __slots__ = ("pc", "cycle", "sregs", "vregs", "pregs", "vmem", "hbm",
                 "dma_slots", "halted", "link_free", "dma_seq",
                 "vmem_capacity", "hbm_capacity")

    def __init__(self, vmem_capacity: int = DEFAULT_VMEM_CAPACITY,
                 hbm_capacity: int = DEFAULT_HBM_CAPACITY):
        self.pc = 0
        self.cycle = 0
        self.sregs = [0] * SCALAR_REGS           # stored as uint32
        self.vregs = bytearray(VECTOR_REGS * VLEN_BYTES)
        self.pregs = [0] * PRED_REGS
        self.vmem = bytearray(vmem_capacity)
        self.hbm = SparseBytes()
        self.dma_slots = [DmaSlotState() for _ in range(DMA_SLOTS)]
        self.halted = False
        self.link_free = {}                      # link name -> cycle
        self.dma_seq = 0
        self.vmem_capacity = vmem_capacity
        self.hbm_capacity = hbm_capacity

    # -- register access ---------------------------------------------------

    def read_sreg_signed(self, i: int) -> int:
        v = self.sregs[i]
        return v - (1 << 32) if v & (1 << 31) else v

    def write_sreg(self, i: int, value: int):
        self.sregs[i] = value & 0xFFFFFFFF

    def read_reg_bytes(self, r: RegisterId) -> bytes:
        if r.cls is RegClass.SCALAR:
            return struct.pack("<I", self.sregs[r.index])
        if r.cls is RegClass.VECTOR:
            o = r.index * VLEN_BYTES
            return bytes(self.vregs[o:o + VLEN_BYTES])
        return bytes([self.pregs[r.index]])

    def write_reg_bytes(self, r: RegisterId, data: bytes):
        if len(data) != r.width_bytes:
            raise Fault("reg_width", f"{r} expects {r.width_bytes} bytes, got {len(data)}")
        if r.cls is RegClass.SCALAR:
            self.sregs[r.index] = struct.unpack("<I", data)[0]
        elif r.cls is RegClass.VECTOR:
            o = r.index * VLEN_BYTES
            self.vregs[o:o + VLEN_BYTES] = data
        else:
            self.pregs[r.index] = 1 if data[0] else 0

    # -- memory access -----------------------------------------------------

    def check_region(self, region: MemRegion, reg: Optional[RegisterId] = None,
                     pc: Optional[int] = None):
        vmem = region.space is MemSpace.VMEM
        if region.end > (self.vmem_capacity if vmem else self.hbm_capacity):
            who = f" (address register {reg}={self.sregs[reg.index]:#x})" if reg else ""
            raise Fault("mem_oob", f"region {region} exceeds {region.space.value} capacity{who}", pc)

    def read_mem(self, region: MemRegion) -> bytes:
        self.check_region(region)
        if region.space is MemSpace.VMEM:
            return bytes(self.vmem[region.offset:region.end])
        return self.hbm.read(region.offset, region.length)

    def write_mem(self, region: MemRegion, data: bytes):
        self.check_region(region)
        if len(data) != region.length:
            raise Fault("mem_width", f"{region} expects {region.length} bytes")
        if region.space is MemSpace.VMEM:
            self.vmem[region.offset:region.end] = data
        else:
            self.hbm.write(region.offset, data)


def _aligned_region(state: MachineState, r: RegisterId, length: int,
                    space: MemSpace, pc: Optional[int]) -> MemRegion:
    addr = state.sregs[r.index]
    if addr % PAGE_BYTES:
        raise Fault("mem_align", f"address register {r}={addr:#x} not {PAGE_BYTES}-byte aligned", pc)
    region = MemRegion(space, addr, length)
    state.check_region(region, r, pc)
    return region


def instruction_io_sets(instr: Instruction, state: MachineState,
                        pc: Optional[int] = None) -> IoSets:
    """Parse the registers and memory regions this instruction will read and
    write when stepped from `state`.

    Memory-region addresses live in scalar registers, so the footprint of an
    opcode that addresses memory is a function of current state; the rest of
    it is the instruction's `io`. A guard that evaluates false annuls the
    instruction: the guard register is then its only input.
    """
    guard = instr.predicate
    if guard is not None and not state.pregs[guard.index]:
        return _ANNULLED[guard.index]
    op, io = instr.opcode, instr.io
    if op not in MEM_OPCODES:
        return io                                # registers only
    in_regs = io.input_regs

    if op is Opcode.V_LOAD or op is Opcode.V_STORE:
        region = _aligned_region(state, instr.src_regs[0], VLEN_BYTES, MemSpace.VMEM, pc)
        if op is Opcode.V_LOAD:
            return _tuple_new(IoSets, (in_regs, io.output_regs, (region,), ()))
        return _tuple_new(IoSets, (in_regs, (), (), (region,)))

    if op is Opcode.MXU_MM:
        rd, ra, rb = instr.src_regs
        dst = _aligned_region(state, rd, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        a = _aligned_region(state, ra, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        b = _aligned_region(state, rb, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        # accumulate: destination tile is both read and written
        return _tuple_new(IoSets, (in_regs, (), (a, b, dst), (dst,)))

    rs, rd, rl = instr.src_regs                  # DMA_ISSUE
    src_space, dst_space = DMA_DIRS[instr.immediates[1]]
    length = state.sregs[rl.index]
    if length == 0:
        raise Fault("dma_empty", f"DMA length register {rl}=0", pc)
    src = MemRegion(src_space, state.sregs[rs.index], length)
    dst = MemRegion(dst_space, state.sregs[rd.index], length)
    state.check_region(src, rs, pc)
    state.check_region(dst, rd, pc)
    return _tuple_new(IoSets, (in_regs, (), (src,), (dst,)))


# the opcodes whose footprint depends on the state: they address memory
MEM_OPCODES = frozenset({Opcode.V_LOAD, Opcode.V_STORE, Opcode.MXU_MM,
                         Opcode.DMA_ISSUE})
# guard register index -> the footprint of an instruction it annuls
_ANNULLED = [_tuple_new(IoSets, ((_REG_BY_NAME[f"p{i}"],), (), (), ()))
             for i in range(PRED_REGS)]


def addressed_reads(instr: Instruction) -> list:
    """The memory regions that instruction_io_sets finds `instr` reading,
    in its order, each as (text, registers): the region named by how it is
    addressed, e.g. ("vmem[s4+64]", (s4,)), and the registers that address
    it. It is what a replay can name when those registers are undefined."""
    op, srcs = instr.opcode, instr.src_regs
    if op is Opcode.V_LOAD:
        return [(f"vmem[{srcs[0]}+{VLEN_BYTES}]", srcs[:1])]
    if op is Opcode.MXU_MM:
        rd, ra, rb = srcs
        return [(f"vmem[{r}+{MXU_TILE_BYTES}]", (r,)) for r in (ra, rb, rd)]
    if op is Opcode.DMA_ISSUE:
        rs, _, rl = srcs
        space = DMA_DIRS[instr.immediates[1]][0].value
        return [(f"{space}[{rs}+{rl}]", (rs, rl))]
    return []
