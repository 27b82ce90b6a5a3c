"""Assembler & disassembler for the kernel dialect (grammar in docs/asm.md).

One instruction per line; `;` starts a comment; `;; hlo: <name>` opens a
pseudo-HLO region used by the analyzer to group instructions. `.data*`
directives build the initial HBM image, `.vdata*` the initial VMEM image
(bytes, 32-bit words, or f32 words). `@pN` before a mnemonic guards the
instruction. Branch targets are labels or absolute instruction indices.
"""

from __future__ import annotations

import base64
import json
import re
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa import (CMP_MODES, ISA_VERSION, EncodingError, Instruction,
                   MemRegion, MemSpace, Opcode, Program, RegClass, RegisterId,
                   decode_instruction, encode_instruction)

DIRECTIONS = {"hbm>vmem": 0, "vmem>hbm": 1, "vmem>vmem": 2, "hbm>hbm": 3}
_DIR_NAMES = {v: k for k, v in DIRECTIONS.items()}


class AsmError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class AssembledKernel:
    program: Program
    hbm_image: List[Tuple[int, bytes]] = field(default_factory=list)
    vmem_image: List[Tuple[int, bytes]] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    regions: List[Tuple[str, int, int]] = field(default_factory=list)  # (name, start, end)
    source: str = ""

    def region_of(self, pc: int) -> Optional[str]:
        for name, start, end in self.regions:
            if start <= pc < end:
                return name
        return None


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):")
_NUM_RE = re.compile(r"^-?(0[xX][0-9a-fA-F]+|\d+)$")


def _num(tok: str, line: int, col: int) -> int:
    if not _NUM_RE.match(tok):
        raise AsmError(line, col, f"expected number, got {tok!r}")
    return int(tok, 0)


def _parse_reg(tok: str, line: int, col: int, want: Optional[RegClass] = None) -> RegisterId:
    try:
        r = RegisterId.parse(tok)
    except EncodingError as e:
        raise AsmError(line, col, str(e)) from None
    if want is not None and r.cls is not want:
        raise AsmError(line, col, f"expected {want.value}-register, got {tok}")
    return r


def assemble(source: str) -> AssembledKernel:
    """Deterministic two-pass assembly; diagnostics carry line and column."""
    labels: Dict[str, int] = {}
    pending: List[dict] = []
    hbm_image: List[Tuple[int, bytes]] = []
    vmem_image: List[Tuple[int, bytes]] = []
    regions: List[Tuple[str, int, int]] = []
    region_name: Optional[str] = None
    region_start = 0
    entry_label: Optional[Tuple[str, int]] = None

    def close_region(at: int):
        nonlocal region_name
        if region_name is not None and at > region_start:
            regions.append((region_name, region_start, at))
        region_name = None

    for lineno, raw_line in enumerate(source.splitlines(), 1):
        line = raw_line
        hlo = re.match(r"^\s*;;\s*hlo:\s*(\S+)\s*$", line)
        if hlo:
            close_region(len(pending))
            region_name = hlo.group(1)
            region_start = len(pending)
            continue
        if ";" in line:
            line = line[:line.index(";")]
        line = line.strip()
        if not line:
            continue

        m = _LABEL_RE.match(line)
        if m:
            name = m.group(1)
            if name in labels:
                raise AsmError(lineno, 1, f"duplicate label {name!r}")
            labels[name] = len(pending)
            line = line[m.end():].strip()
            if not line:
                continue

        col = raw_line.index(line.split()[0]) + 1 if line.split() else 1
        if line.startswith("."):
            parts = line.split(None, 1)
            directive = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
            if directive == ".entry":
                entry_label = (rest.strip(), lineno)
                continue
            m2 = re.match(r"^(0[xX][0-9a-fA-F]+|\d+)\s*:\s*(.*)$", rest)
            if directive in (".data", ".data32", ".dataf", ".vdata", ".vdata32", ".vdataf"):
                if not m2:
                    raise AsmError(lineno, col, f"{directive} needs '<addr>: <values>'")
                addr = int(m2.group(1), 0)
                toks = m2.group(2).split()
                if directive.endswith("32"):
                    blob = b"".join(struct.pack("<I", _num(t, lineno, col) & 0xFFFFFFFF)
                                    for t in toks)
                elif directive.endswith("f"):
                    try:
                        blob = b"".join(struct.pack("<f", float(t)) for t in toks)
                    except ValueError:
                        raise AsmError(lineno, col, "bad float literal") from None
                else:
                    try:
                        blob = bytes(int(t, 16) for t in toks)
                    except ValueError:
                        raise AsmError(lineno, col, "bad hex byte") from None
                (vmem_image if directive.startswith(".v") else hbm_image).append((addr, blob))
                continue
            raise AsmError(lineno, col, f"unknown directive {directive}")

        pred = None
        if line.startswith("@"):
            ptok, _, line = line.partition(" ")
            pred = _parse_reg(ptok[1:], lineno, col, RegClass.PREDICATE)
            line = line.strip()
        toks = line.split(None, 1)
        mnemonic = toks[0].lower()
        ops = [o.strip() for o in toks[1].split(",")] if len(toks) > 1 else []
        pending.append({"line": lineno, "col": col, "mnemonic": mnemonic,
                        "ops": ops, "pred": pred})

    close_region(len(pending))

    instructions = []
    for idx, ent in enumerate(pending):
        instructions.append(_build(ent, idx, labels, len(pending)))
    entry_pc = 0
    if entry_label is not None:
        name, lineno = entry_label
        if name not in labels:
            raise AsmError(lineno, 1, f"entry label {name!r} undefined")
        entry_pc = labels[name]
    try:
        program = Program(tuple(instructions), entry_pc)
    except EncodingError as e:
        raise AsmError(0, 0, str(e)) from None
    return AssembledKernel(program, hbm_image, vmem_image, labels, regions, source)


def _target(tok: str, labels, n: int, line: int, col: int) -> int:
    if _NUM_RE.match(tok):
        t = int(tok, 0)
    elif tok in labels:
        t = labels[tok]
    else:
        raise AsmError(line, col, f"undefined label {tok!r}")
    if not 0 <= t < n:
        raise AsmError(line, col, f"branch target {t} out of bounds")
    return t


def _build(ent: dict, idx: int, labels, n: int) -> Instruction:
    line, col = ent["line"], ent["col"]
    m, ops, pred = ent["mnemonic"], ent["ops"], ent["pred"]

    def need(k):
        if len(ops) != k:
            raise AsmError(line, col, f"{m} expects {k} operands, got {len(ops)}")

    def reg(i, want):
        return _parse_reg(ops[i], line, col, want)

    def mem(i):
        mm = re.match(r"^\[\s*(s\d+)\s*\]$", ops[i])
        if not mm:
            raise AsmError(line, col, f"expected [sN] operand, got {ops[i]!r}")
        return _parse_reg(mm.group(1), line, col, RegClass.SCALAR)

    try:
        if m == "s_ldi":
            need(2)
            return Instruction(Opcode.S_LDI, (reg(0, RegClass.SCALAR),), (),
                               (_num(ops[1], line, col),), pred)
        if m in ("s_add", "s_mul"):
            need(3)
            return Instruction(Opcode[m.upper()], (reg(0, RegClass.SCALAR),),
                               (reg(1, RegClass.SCALAR), reg(2, RegClass.SCALAR)), (), pred)
        if m == "s_cmp":
            need(4)
            mode = ops[3].lower()
            mode_i = CMP_MODES.index(mode) if mode in CMP_MODES else _num(ops[3], line, col)
            return Instruction(Opcode.S_CMP, (reg(0, RegClass.PREDICATE),),
                               (reg(1, RegClass.SCALAR), reg(2, RegClass.SCALAR)),
                               (mode_i,), pred)
        if m == "s_mov":
            if len(ops) == 2:
                return Instruction(Opcode.S_MOV, (reg(0, RegClass.SCALAR),),
                                   (reg(1, RegClass.SCALAR),), (), pred)
            need(3)
            return Instruction(Opcode.S_MOV, (reg(0, RegClass.SCALAR),),
                               (reg(1, RegClass.VECTOR),), (_num(ops[2], line, col),), pred)
        if m in ("v_add", "v_mul"):
            need(3)
            return Instruction(Opcode[m.upper()], (reg(0, RegClass.VECTOR),),
                               (reg(1, RegClass.VECTOR), reg(2, RegClass.VECTOR)), (), pred)
        if m == "v_load":
            need(2)
            return Instruction(Opcode.V_LOAD, (reg(0, RegClass.VECTOR),),
                               (mem(1),), (), pred)
        if m == "v_store":
            need(2)
            return Instruction(Opcode.V_STORE, (),
                               (mem(0), reg(1, RegClass.VECTOR)), (), pred)
        if m == "mxu_mm":
            need(3)
            return Instruction(Opcode.MXU_MM, (),
                               (reg(0, RegClass.SCALAR), reg(1, RegClass.SCALAR),
                                reg(2, RegClass.SCALAR)), (), pred)
        if m == "dma_issue":
            need(5)
            if ops[1] not in DIRECTIONS:
                raise AsmError(line, col, f"unknown DMA direction {ops[1]!r}")
            return Instruction(Opcode.DMA_ISSUE, (),
                               (reg(2, RegClass.SCALAR), reg(3, RegClass.SCALAR),
                                reg(4, RegClass.SCALAR)),
                               (_num(ops[0], line, col), DIRECTIONS[ops[1]]), pred)
        if m == "dma_wait":
            need(1)
            return Instruction(Opcode.DMA_WAIT, (), (),
                               (_num(ops[0], line, col),), pred)
        if m == "br":
            need(1)
            return Instruction(Opcode.BR, (), (),
                               (_target(ops[0], labels, n, line, col),), pred)
        if m == "brz":
            need(2)
            return Instruction(Opcode.BRZ, (), (reg(0, RegClass.PREDICATE),),
                               (_target(ops[1], labels, n, line, col),), pred)
        if m == "halt":
            need(0)
            return Instruction(Opcode.HALT, (), (), (), pred)
    except EncodingError as e:
        raise AsmError(line, col, str(e)) from None
    raise AsmError(line, col, f"unknown mnemonic {m!r}")


def disassemble(program: Program) -> str:
    """Canonical text that reassembles to an identical program."""
    targets = {i.immediates[0] for i in program.instructions
               if i.opcode in (Opcode.BR, Opcode.BRZ)}
    targets.add(program.entry_pc)
    lines = [".entry L%d" % program.entry_pc] if program.entry_pc else []
    for idx, ins in enumerate(program.instructions):
        if idx in targets:
            lines.append(f"L{idx}:")
        lines.append("  " + _format(ins))
    return "\n".join(lines) + "\n"


def _format(ins: Instruction) -> str:
    guard = f"@{ins.predicate} " if ins.predicate is not None else ""
    op = ins.opcode
    d, s, imm = ins.dst_regs, ins.src_regs, ins.immediates
    if op is Opcode.S_LDI:
        body = f"s_ldi {d[0]}, {imm[0]}"
    elif op in (Opcode.S_ADD, Opcode.S_MUL):
        body = f"{op.name.lower()} {d[0]}, {s[0]}, {s[1]}"
    elif op is Opcode.S_CMP:
        body = f"s_cmp {d[0]}, {s[0]}, {s[1]}, {CMP_MODES[imm[0]]}"
    elif op is Opcode.S_MOV:
        body = f"s_mov {d[0]}, {s[0]}" + (f", {imm[0]}" if imm else "")
    elif op in (Opcode.V_ADD, Opcode.V_MUL):
        body = f"{op.name.lower()} {d[0]}, {s[0]}, {s[1]}"
    elif op is Opcode.V_LOAD:
        body = f"v_load {d[0]}, [{s[0]}]"
    elif op is Opcode.V_STORE:
        body = f"v_store [{s[0]}], {s[1]}"
    elif op is Opcode.MXU_MM:
        body = f"mxu_mm {s[0]}, {s[1]}, {s[2]}"
    elif op is Opcode.DMA_ISSUE:
        body = f"dma_issue {imm[0]}, {_DIR_NAMES[imm[1]]}, {s[0]}, {s[1]}, {s[2]}"
    elif op is Opcode.DMA_WAIT:
        body = f"dma_wait {imm[0]}"
    elif op is Opcode.BR:
        body = f"br L{imm[0]}"
    elif op is Opcode.BRZ:
        body = f"brz {s[0]}, L{imm[0]}"
    else:
        body = "halt"
    return guard + body


# -- program bundle (CLI `asm` output) ------------------------------------

def save_bundle(kernel: AssembledKernel, path: str):
    doc = {
        "format": "xshark-program",
        "isa_version": ISA_VERSION,
        "entry_pc": kernel.program.entry_pc,
        "instructions": kernel.program.to_bytes().hex(),
        "hbm_image": [[off, base64.b64encode(b).decode()] for off, b in kernel.hbm_image],
        "vmem_image": [[off, base64.b64encode(b).decode()] for off, b in kernel.vmem_image],
        "labels": kernel.labels,
        "regions": kernel.regions,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_bundle(path: str) -> AssembledKernel:
    """Reads a `save_bundle` file; one that does not decode raises
    EncodingError (docs/asm.md)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        doc = json.loads(blob)
        if doc.get("format") != "xshark-program":
            raise EncodingError("not an xshark program bundle")
        if doc.get("isa_version") != ISA_VERSION:
            raise EncodingError(f"program bundle ISA version {doc.get('isa_version')}")
        program = Program.from_bytes(bytes.fromhex(doc["instructions"]), doc["entry_pc"])
        return AssembledKernel(
            program,
            [(off, base64.b64decode(b)) for off, b in doc["hbm_image"]],
            [(off, base64.b64decode(b)) for off, b in doc["vmem_image"]],
            doc.get("labels", {}),
            [tuple(r) for r in doc.get("regions", [])],
        )
    except (ValueError, LookupError, TypeError, AttributeError) as e:
        # EncodingError is a ValueError, as are bad JSON, hex and base64
        raise EncodingError(f"{path}: {e!r}") from None


def apply_images(kernel: AssembledKernel, state):
    """Writes the kernel's HBM and VMEM images into `state`; an image past
    either capacity raises Fault("mem_oob")."""
    for space, image in ((MemSpace.HBM, kernel.hbm_image),
                         (MemSpace.VMEM, kernel.vmem_image)):
        for off, blob in image:
            if blob:
                state.write_mem(MemRegion(space, off, len(blob)), blob)


def initial_state(kernel: AssembledKernel, config):
    """A fresh machine for `config` with the kernel's images applied and the
    pc at the program's entry."""
    state = config.make_state()
    apply_images(kernel, state)
    state.pc = kernel.program.entry_pc
    return state
