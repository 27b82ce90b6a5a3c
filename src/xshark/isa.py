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

Execution units and semantics:

  SALU   S_LDI rd, imm          rd = imm (32-bit)
         S_ADD rd, ra, rb       rd = ra + rb  (wrapping int32)
         S_MUL rd, ra, rb       rd = ra * rb  (wrapping int32)
         S_CMP pd, ra, rb, m    pd = signed compare, m in {eq,ne,lt,le,gt,ge}
         S_MOV rd, ra           rd = ra
         S_MOV rd, va, lane     rd = 32-bit lane of vector register
  VALU   V_ADD/V_MUL vd, va, vb 16-lane IEEE-754 f32 elementwise
  LSU    V_LOAD vd, [ra]        64 B from VMEM, 64-byte aligned
         V_STORE [ra], vb       64 B to VMEM, 64-byte aligned
  MXU    MXU_MM rd, ra, rb      16x16x16 f32 tile multiply-accumulate on
                                three page-aligned 1024 B VMEM tiles
                                (dst += a @ b, dst read-modify-write)
  DMA    DMA_ISSUE slot, dir, rs, rd, rl   start async copy of rl bytes
         DMA_WAIT slot                     block until slot completes
  CTRL   BR target / BRZ p, target / HALT  (targets are instruction indices)

Any instruction may carry a guard predicate; when the guard is false the
instruction is annulled and its only architectural input is the guard itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional

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
_REG_TAG = {RegClass.SCALAR: 0, RegClass.VECTOR: 1, RegClass.PREDICATE: 2}
_TAG_REG = {v: k for k, v in _REG_TAG.items()}


@dataclass(frozen=True)
class RegisterId:
    cls: RegClass
    index: int

    def __post_init__(self):
        if not 0 <= self.index < _REG_LIMIT[self.cls]:
            raise EncodingError(f"register index {self.index} out of range for {self.cls.value}")

    def __str__(self):
        return f"{self.cls.value}{self.index}"

    @property
    def width_bytes(self) -> int:
        if self.cls is RegClass.SCALAR:
            return 4
        if self.cls is RegClass.VECTOR:
            return VLEN_BYTES
        return 1

    @staticmethod
    def parse(text: str) -> "RegisterId":
        text = text.strip()
        for rc in RegClass:
            if text.startswith(rc.value) and text[1:].isdigit():
                return RegisterId(rc, int(text[1:]))
        raise EncodingError(f"bad register name {text!r}")


def sreg(i: int) -> RegisterId:
    return RegisterId(RegClass.SCALAR, i)


def vreg(i: int) -> RegisterId:
    return RegisterId(RegClass.VECTOR, i)


def preg(i: int) -> RegisterId:
    return RegisterId(RegClass.PREDICATE, i)


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
        return MemRegion(MemSpace(d["space"]), d["offset"], d["len"])


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


UNIT_OF = {
    Opcode.S_LDI: Unit.SALU, Opcode.S_ADD: Unit.SALU, Opcode.S_MUL: Unit.SALU,
    Opcode.S_CMP: Unit.SALU, Opcode.S_MOV: Unit.SALU,
    Opcode.V_ADD: Unit.VALU, Opcode.V_MUL: Unit.VALU,
    Opcode.V_LOAD: Unit.LSU, Opcode.V_STORE: Unit.LSU,
    Opcode.MXU_MM: Unit.MXU,
    Opcode.DMA_ISSUE: Unit.DMA, Opcode.DMA_WAIT: Unit.DMA,
    Opcode.BR: Unit.CTRL, Opcode.BRZ: Unit.CTRL, Opcode.HALT: Unit.CTRL,
}

CMP_MODES = ("eq", "ne", "lt", "le", "gt", "ge")

# DMA direction immediate -> (src space, dst space)
DMA_DIRS = {
    0: (MemSpace.HBM, MemSpace.VMEM),
    1: (MemSpace.VMEM, MemSpace.HBM),
    2: (MemSpace.VMEM, MemSpace.VMEM),
    3: (MemSpace.HBM, MemSpace.HBM),
}

S = RegClass.SCALAR
V = RegClass.VECTOR
P = RegClass.PREDICATE

# opcode -> (dst classes, src classes, imm count). S_MOV is validated by hand.
_SIGNATURES = {
    Opcode.S_LDI: ((S,), (), 1),
    Opcode.S_ADD: ((S,), (S, S), 0),
    Opcode.S_MUL: ((S,), (S, S), 0),
    Opcode.S_CMP: ((P,), (S, S), 1),
    Opcode.S_MOV: None,
    Opcode.V_ADD: ((V,), (V, V), 0),
    Opcode.V_MUL: ((V,), (V, V), 0),
    Opcode.V_LOAD: ((V,), (S,), 0),
    Opcode.V_STORE: ((), (S, V), 0),
    Opcode.MXU_MM: ((), (S, S, S), 0),
    Opcode.DMA_ISSUE: ((), (S, S, S), 2),
    Opcode.DMA_WAIT: ((), (), 1),
    Opcode.BR: ((), (), 1),
    Opcode.BRZ: ((), (P,), 1),
    Opcode.HALT: ((), (), 0),
}

_I32_MIN, _I32_MAX = -(1 << 31), (1 << 31) - 1


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode
    dst_regs: tuple = ()
    src_regs: tuple = ()
    immediates: tuple = ()
    predicate: Optional[RegisterId] = None

    def __post_init__(self):
        sig = _SIGNATURES[self.opcode]
        if self.opcode is Opcode.S_MOV:
            if len(self.dst_regs) != 1 or self.dst_regs[0].cls is not S or len(self.src_regs) != 1:
                raise EncodingError("S_MOV needs one scalar dst and one src")
            src = self.src_regs[0]
            if src.cls is S:
                if self.immediates:
                    raise EncodingError("scalar S_MOV takes no immediate")
            elif src.cls is V:
                if len(self.immediates) != 1 or not 0 <= self.immediates[0] < MXU_TILE_DIM:
                    raise EncodingError("vector-lane S_MOV needs lane immediate in [0,16)")
            else:
                raise EncodingError("S_MOV source must be scalar or vector")
        else:
            dcls, scls, nimm = sig
            if tuple(r.cls for r in self.dst_regs) != dcls:
                raise EncodingError(f"{self.opcode.name}: bad destination operands")
            if tuple(r.cls for r in self.src_regs) != scls:
                raise EncodingError(f"{self.opcode.name}: bad source operands")
            if len(self.immediates) != nimm:
                raise EncodingError(f"{self.opcode.name}: expected {nimm} immediates")
        for imm in self.immediates:
            if not _I32_MIN <= imm <= _I32_MAX:
                raise EncodingError(f"immediate {imm} exceeds 32 bits")
        if self.opcode is Opcode.S_CMP and not 0 <= self.immediates[0] < len(CMP_MODES):
            raise EncodingError(f"S_CMP mode {self.immediates[0]} unknown")
        if self.opcode in (Opcode.DMA_ISSUE, Opcode.DMA_WAIT):
            slot = self.immediates[0]
            if not 0 <= slot < DMA_SLOTS:
                raise EncodingError(f"DMA slot {slot} out of range [0,{DMA_SLOTS})")
        if self.opcode is Opcode.DMA_ISSUE and self.immediates[1] not in DMA_DIRS:
            raise EncodingError(f"DMA direction {self.immediates[1]} unknown")
        if self.predicate is not None and self.predicate.cls is not P:
            raise EncodingError("guard must be a predicate register")

    @property
    def unit(self) -> Unit:
        return UNIT_OF[self.opcode]


def _enc_reg(r: Optional[RegisterId]) -> int:
    if r is None:
        return 0xFF
    return (_REG_TAG[r.cls] << 6) | r.index


def _dec_reg(b: int) -> Optional[RegisterId]:
    if b == 0xFF:
        return None
    tag, idx = b >> 6, b & 0x3F
    if tag not in _TAG_REG:
        raise EncodingError(f"bad register byte {b:#04x}")
    return RegisterId(_TAG_REG[tag], idx)


def encode_instruction(instr: Instruction) -> bytes:
    srcs = list(instr.src_regs) + [None] * (3 - len(instr.src_regs))
    imms = list(instr.immediates) + [0] * (2 - len(instr.immediates))
    return struct.pack(
        "<BBBBBBii2x",
        instr.opcode,
        _enc_reg(instr.predicate),
        _enc_reg(instr.dst_regs[0] if instr.dst_regs else None),
        _enc_reg(srcs[0]), _enc_reg(srcs[1]), _enc_reg(srcs[2]),
        imms[0], imms[1],
    )


def decode_instruction(raw: bytes) -> Instruction:
    if len(raw) != INSTR_BYTES:
        raise EncodingError(f"instruction record must be {INSTR_BYTES} bytes, got {len(raw)}")
    op_b, pred_b, dst_b, s0, s1, s2, imm0, imm1 = struct.unpack("<BBBBBBii2x", raw)
    if raw[14:16] != b"\x00\x00":
        raise EncodingError("reserved bytes must be zero")
    try:
        opcode = Opcode(op_b)
    except ValueError:
        raise EncodingError(f"unknown opcode byte {op_b:#04x}") from None
    try:
        dst = _dec_reg(dst_b)
        srcs = tuple(r for r in (_dec_reg(s0), _dec_reg(s1), _dec_reg(s2)) if r is not None)
        pred = _dec_reg(pred_b)
        nimm = 1 if (opcode is Opcode.S_MOV and srcs and srcs[0].cls is V) \
            else (_SIGNATURES[opcode][2] if _SIGNATURES[opcode] else 0)
        imms = (imm0, imm1)[:nimm]
        return Instruction(opcode, (dst,) if dst else (), srcs, imms, pred)
    except EncodingError:
        raise
    except Fault as f:
        raise EncodingError(str(f)) from None


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
            if ins.opcode in (Opcode.BR, Opcode.BRZ):
                tgt = ins.immediates[0]
                if not 0 <= tgt < n:
                    raise EncodingError(f"branch target {tgt} at index {i} out of bounds")

    def __len__(self):
        return len(self.instructions)

    def to_bytes(self) -> bytes:
        return b"".join(encode_instruction(i) for i in self.instructions)

    @staticmethod
    def from_bytes(raw: bytes, entry_pc: int = 0) -> "Program":
        if len(raw) % INSTR_BYTES:
            raise EncodingError("program byte length not a multiple of 16")
        instrs = tuple(decode_instruction(raw[i:i + INSTR_BYTES])
                       for i in range(0, len(raw), INSTR_BYTES))
        return Program(instrs, entry_pc)


class SparseBytes:
    """Sparse zero-backed byte store for the HBM address space."""

    PAGE = 4096

    def __init__(self, capacity: int):
        self.capacity = capacity
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

    def backed_bytes(self) -> int:
        return len(self._pages) * self.PAGE

    def clone(self) -> "SparseBytes":
        c = SparseBytes(self.capacity)
        c._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return c


class DmaSlotState:
    """One DMA engine slot.

    The transfer schedule is fully determined at issue time (base latency is
    constant; the per-link queue is FIFO in base-done order, which equals
    issue order), so all four timeline cycles are recorded eagerly.
    `applied` flips when the destination bytes become architecturally visible
    at complete_cycle.
    """

    __slots__ = ("active", "src", "dst", "issue_cycle", "base_done_cycle",
                 "transfer_start_cycle", "complete_cycle", "buffer", "applied",
                 "dma_id")

    def __init__(self):
        self.active = False
        self.src = None
        self.dst = None
        self.issue_cycle = 0
        self.base_done_cycle = 0
        self.transfer_start_cycle = 0
        self.complete_cycle = 0
        self.buffer = b""
        self.applied = False
        self.dma_id = -1

    def clone(self) -> "DmaSlotState":
        c = DmaSlotState()
        for f in self.__slots__:
            setattr(c, f, getattr(self, f))
        return c


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
        self.hbm = SparseBytes(hbm_capacity)
        self.dma_slots = [DmaSlotState() for _ in range(DMA_SLOTS)]
        self.halted = False
        self.link_free = {}                      # (src space, dst space) -> cycle
        self.dma_seq = 0
        self.vmem_capacity = vmem_capacity
        self.hbm_capacity = hbm_capacity

    def clone(self) -> "MachineState":
        c = MachineState.__new__(MachineState)
        c.pc, c.cycle, c.halted = self.pc, self.cycle, self.halted
        c.sregs = list(self.sregs)
        c.vregs = bytearray(self.vregs)
        c.pregs = list(self.pregs)
        c.vmem = bytearray(self.vmem)
        c.hbm = self.hbm.clone()
        c.dma_slots = [s.clone() for s in self.dma_slots]
        c.link_free = dict(self.link_free)
        c.dma_seq = self.dma_seq
        c.vmem_capacity = self.vmem_capacity
        c.hbm_capacity = self.hbm_capacity
        return c

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

    def space_capacity(self, space: MemSpace) -> int:
        return self.vmem_capacity if space is MemSpace.VMEM else self.hbm_capacity

    def check_region(self, region: MemRegion, reg: Optional[RegisterId] = None,
                     pc: Optional[int] = None):
        if region.end > self.space_capacity(region.space):
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


@dataclass(frozen=True)
class IoSets:
    """Exact architectural read/write footprint of one dynamic instruction."""

    input_regs: tuple = ()
    output_regs: tuple = ()
    input_mem: tuple = ()
    output_mem: tuple = ()


def _aligned_region(state: MachineState, r: RegisterId, length: int,
                    space: MemSpace, pc=None) -> MemRegion:
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

    Memory-region addresses live in scalar registers, so the footprint is a
    function of current state. A guard that evaluates false annuls the
    instruction: the guard register is then its only input.
    """
    op = instr.opcode
    in_regs: list = []
    if instr.predicate is not None:
        in_regs.append(instr.predicate)
        if not state.pregs[instr.predicate.index]:
            return IoSets(tuple(in_regs), (), (), ())
    in_regs.extend(instr.src_regs)

    if op in (Opcode.S_LDI, Opcode.S_ADD, Opcode.S_MUL, Opcode.S_CMP,
              Opcode.S_MOV, Opcode.V_ADD, Opcode.V_MUL, Opcode.BR,
              Opcode.BRZ, Opcode.HALT, Opcode.DMA_WAIT):
        return IoSets(tuple(in_regs), instr.dst_regs, (), ())

    if op is Opcode.V_LOAD:
        region = _aligned_region(state, instr.src_regs[0], VLEN_BYTES, MemSpace.VMEM, pc)
        return IoSets(tuple(in_regs), instr.dst_regs, (region,), ())

    if op is Opcode.V_STORE:
        region = _aligned_region(state, instr.src_regs[0], VLEN_BYTES, MemSpace.VMEM, pc)
        return IoSets(tuple(in_regs), (), (), (region,))

    if op is Opcode.MXU_MM:
        rd, ra, rb = instr.src_regs
        dst = _aligned_region(state, rd, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        a = _aligned_region(state, ra, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        b = _aligned_region(state, rb, MXU_TILE_BYTES, MemSpace.VMEM, pc)
        # accumulate: destination tile is both read and written
        return IoSets(tuple(in_regs), (), (a, b, dst), (dst,))

    if op is Opcode.DMA_ISSUE:
        rs, rd, rl = instr.src_regs
        src_space, dst_space = DMA_DIRS[instr.immediates[1]]
        length = state.sregs[rl.index]
        if length == 0:
            raise Fault("dma_empty", f"DMA length register {rl}=0", pc)
        src = MemRegion(src_space, state.sregs[rs.index], length)
        dst = MemRegion(dst_space, state.sregs[rd.index], length)
        state.check_region(src, rs, pc)
        state.check_region(dst, rd, pc)
        return IoSets(tuple(in_regs), (), (src,), (dst,))

    raise Fault("decode", f"unhandled opcode {op!r}", pc)

