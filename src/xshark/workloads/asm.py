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

from ..isa import (CMP_MODES, DMA_DIR_NAMES, FORMS, IMM_KINDS, ISA_VERSION,
                   REG_KINDS, EncodingError, Instruction, MemRegion, MemSpace,
                   Program, RegClass, RegisterId)

_DIRECTIONS = {name: d for d, name in DMA_DIR_NAMES.items()}
_OPCODES = {op.name.lower(): op for op in FORMS}
_MNEMONICS = {op: name for name, op in _OPCODES.items()}
# operand kind -> (the Instruction field it fills, its text from its value)
_KINDS = {kind: (field_name, str) for kind, (field_name, _) in REG_KINDS.items()}
_KINDS.update({kind: ("imm", str) for kind in IMM_KINDS}, **{
    "[s]": ("src", "[{}]".format), "mode": ("imm", CMP_MODES.__getitem__),
    "dir": ("imm", DMA_DIR_NAMES.__getitem__), "target": ("imm", "L{}".format)})


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

    def region_of(self, pc: int) -> Optional[str]:
        for name, start, end in self.regions:
            if start <= pc < end:
                return name
        return None


_LABEL_RE = re.compile(r"^([A-Za-z_][\w.]*):")
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
    """Deterministic two-pass assembly; diagnostics carry line and column."""
    labels: Dict[str, int] = {}
    pending: List[tuple] = []          # (line, col, mnemonic, operands, guard)
    hbm_image: List[Tuple[int, bytes]] = []
    vmem_image: List[Tuple[int, bytes]] = []
    opened: List[Tuple[str, int]] = []          # (region name, start)
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
        col = raw_line.index(line) + 1             # where the text starts

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
                    try:   # ASCII only: encoding anything else raises ValueError
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
        toks = line.split(None, 1)
        ops = [o.strip() for o in toks[1].split(",")] if len(toks) > 1 else []
        pending.append((lineno, col, toks[0].lower(), ops, pred))

    # a region ends where the next opens; one that holds no instruction is dropped
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
    try:
        program = Program(tuple(instructions), entry_pc)
    except EncodingError as e:
        raise AsmError(0, 0, str(e)) from None
    return AssembledKernel(program, hbm_image, vmem_image, labels, regions)


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
    """One instruction from its mnemonic and operand texts, read by the
    opcode's forms in isa.OPCODES."""
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
        values[_KINDS[kind][0]].append(value)
    try:
        return Instruction(op, tuple(values["dst"]), tuple(values["src"]),
                           tuple(values["imm"]), pred)
    except EncodingError as e:
        raise AsmError(line, col, str(e)) from None


def disassemble(program: Program) -> str:
    """Canonical text that reassembles to an identical program."""
    targets = {i.immediates[i.form.target] for i in program.instructions
               if i.form.target is not None}
    targets.add(program.entry_pc)
    lines = [".entry L%d" % program.entry_pc] if program.entry_pc else []
    for idx, ins in enumerate(program.instructions):
        if idx in targets:
            lines.append(f"L{idx}:")
        lines.append("  " + _format(ins))
    return "\n".join(lines) + "\n"


def _format(ins: Instruction) -> str:
    values = {"dst": iter(ins.dst_regs), "src": iter(ins.src_regs),
              "imm": iter(ins.immediates)}
    texts = []
    for _, kind in ins.form.operands:
        field_name, show = _KINDS[kind]
        texts.append(show(next(values[field_name])))
    guard = f"@{ins.predicate} " if ins.predicate is not None else ""
    body = _MNEMONICS[ins.opcode]
    return guard + (f"{body} {', '.join(texts)}" if texts else body)


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
