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
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .. import gc_paused
from ..isa import (CMP_MODES, DMA_DIR_NAMES, FORMS, IMM_KINDS, ISA_VERSION,
                   REG_KINDS, REGISTER_NAMES, SCALAR_REGS, EncodingError,
                   Instruction, MemRegion, MemSpace, Program, RegClass,
                   RegisterId, make_instruction)

_DIRECTIONS = {name: d for d, name in DMA_DIR_NAMES.items()}
_OPCODES = {op.name.lower(): op for op in FORMS}
_MNEMONICS = {op: name for name, op in _OPCODES.items()}


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


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*):")
_NUM_RE = re.compile(r"-?(0[xX][0-9a-fA-F]+|0|[1-9][0-9]*)")
_HLO_RE = re.compile(r"^\s*;;\s*hlo:\s*(\S+)\s*$")
_DATA_RE = re.compile(r"^(0[xX][0-9a-fA-F]+|[0-9]+)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^\[\s*(s[0-9]+)\s*\]$")
_HEX_BYTE_RE = re.compile(r"[0-9a-fA-F]{1,2}")


def _num(tok: str, line: int, col: int, *_) -> int:
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


@gc_paused
def assemble(source: str) -> AssembledKernel:
    """Deterministic two-pass assembly; diagnostics carry line and column.

    Labels are fixed after pass 1, so an instruction's text alone decides
    it: pass 2 builds one Instruction per distinct text, at its first line,
    and every later line of that text shares it (an Instruction is frozen).
    """
    labels: Dict[str, int] = {}
    texts: List[str] = []              # each instruction line's text, in order
    first: Dict[str, tuple] = {}       # text -> (builder, line, col, guard, operands)
    hbm_image: List[Tuple[int, bytes]] = []
    vmem_image: List[Tuple[int, bytes]] = []
    opened: List[Tuple[str, int]] = []          # (region name, start)
    entry_label: Optional[Tuple[str, int]] = None

    for lineno, raw_line in enumerate(source.splitlines(), 1):
        line = raw_line
        if ";" in line:
            hlo = ";;" in line and _HLO_RE.match(line)
            if hlo:
                opened.append((hlo.group(1), len(texts)))
                continue
            line = line[:line.index(";")]
        line = line.strip()
        if not line:
            continue
        col = raw_line.index(line) + 1             # where the text starts

        m = ":" in line and _LABEL_RE.match(line)
        if m:
            name = m.group(1)
            if name in labels:
                raise AsmError(lineno, 1, f"duplicate label {name!r}")
            labels[name] = len(texts)
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

        texts.append(line)
        if line in first:
            continue
        text, pred = line, None
        if line.startswith("@"):
            ptok, _, line = line.partition(" ")
            pred = _parse_reg(ptok[1:], lineno, col, RegClass.PREDICATE)
            line = line.strip()
            if not line:
                raise AsmError(lineno, col, "guard without an instruction")
        parts = line.split(None, 1)
        operands = parts[1] if len(parts) > 1 else ""
        key = parts[0].lower(), operands.count(",") + 1 if operands else 0
        first[text] = (_BUILDERS.get(key) or _builder(*key), lineno, col, pred,
                       operands)

    # a region ends where the next opens; one that holds no instruction is dropped
    n = len(texts)
    ends = [start for _, start in opened[1:]] + [n]
    regions = [(name, start, end) for (name, start), end in zip(opened, ends)
               if end > start]
    # in order of first lines, so the first bad line is the one reported
    built = {text: build(line, col, pred, operands, labels, n)
             for text, (build, line, col, pred, operands) in first.items()}
    entry_pc = 0
    if entry_label is not None:
        name, lineno = entry_label
        if name not in labels:
            raise AsmError(lineno, 1, f"entry label {name!r} undefined")
        entry_pc = labels[name]
    # _target and the entry check keep Program's bounds checks from firing
    return AssembledKernel(Program(tuple(map(built.__getitem__, texts)), entry_pc),
                           hbm_image, vmem_image, labels, regions)


def _target(tok: str, line: int, col: int, labels, n: int) -> int:
    if tok[:1].isdigit() or tok[:1] == "-":
        t = _num(tok, line, col)
    elif tok in labels:
        t = labels[tok]
    else:
        raise AsmError(line, col, f"undefined label {tok!r}")
    if not 0 <= t < n:
        raise AsmError(line, col, f"branch target {t} out of bounds")
    return t


def _mem(tok: str, line: int, col: int, *_) -> RegisterId:
    mm = _MEM_RE.match(tok)
    if not mm:
        raise AsmError(line, col, f"expected [sN] operand, got {tok!r}")
    return _parse_reg(mm.group(1), line, col, RegClass.SCALAR)


def _mode(tok: str, line: int, col: int, *_) -> int:
    if tok.lower() in CMP_MODES:
        return CMP_MODES.index(tok.lower())
    return _num(tok, line, col)


def _direction(tok: str, line: int, col: int, *_) -> int:
    raise AsmError(line, col, f"unknown DMA direction {tok!r}")


def _operand(kind: str) -> tuple:
    """How an operand of `kind` is read and written: (the slot of the field
    it fills in (dst_regs, src_regs, immediates), its text from its value, a
    table of its usual spellings, the rule for any other token). The rule
    returns the value of a spelling the table lacks (`EQ`, `[ s3 ]`, any
    number) or raises the token's AsmError."""
    if kind == "[s]":
        return 1, "[{}]".format, {f"[s{i}]": RegisterId.parse(f"s{i}")
                                  for i in range(SCALAR_REGS)}, _mem
    if kind in REG_KINDS:
        field_name, cls = REG_KINDS[kind]
        names = {r.name: r for r in map(RegisterId.parse, REGISTER_NAMES) if r.cls is cls}
        return ("dst", "src").index(field_name), str, names, \
            lambda tok, line, col, *_: _parse_reg(tok, line, col, cls)
    if kind == "mode":
        return 2, CMP_MODES.__getitem__, {mode: i for i, mode in enumerate(CMP_MODES)}, _mode
    if kind == "dir":
        return 2, DMA_DIR_NAMES.__getitem__, _DIRECTIONS, _direction
    if kind == "target":
        return 2, "L{}".format, {}, _target
    return 2, str, {}, _num


_OPERANDS = {kind: _operand(kind) for kind in (*REG_KINDS, *IMM_KINDS)}


def _builder(m: str, count: int) -> Callable:
    """build(line, col, guard, operands, labels, n): the Instruction of a
    line of mnemonic `m` with `count` operands, whose operand text (after
    the mnemonic) is `operands`, given the program's labels and length. It
    splits the operands, reads each through its reader (a table lookup,
    else the rule) into its field, and makes the Instruction; an error is
    the AsmError of the first operand that does not read, else that of the
    Instruction's checks. A field of one value is a one-tuple the table
    holds, so lines share it. It is compiled from generated source, as
    sim._line_plan is, so that one call reads a whole line, when the first
    line that needs it is assembled, and kept in _BUILDERS. A mnemonic
    that takes no `count` operands gets _unplanned, which is not kept."""
    op = _OPCODES.get(m)
    form = next((f for f in FORMS.get(op, ()) if len(f.operands) == count), None)
    if form is None:
        return partial(_unplanned, m, count)
    readers = [_OPERANDS[kind] for _, kind in form.operands]
    fields = ([], [], [])            # the names of each field's values
    for i, (slot, *_) in enumerate(readers):
        fields[slot].append(f"a{i}")
    namespace = {"_make": make_instruction, "_op": op, "_form": form,
                 "EncodingError": EncodingError, "AsmError": AsmError}
    body = [", ".join(f"o{i}" for i in range(len(readers))) + ", = operands.split(',')"
            ] if readers else []
    for i, (slot, _, table, rule) in enumerate(readers):
        one = len(fields[slot]) == 1
        namespace[f"_get{i}"] = ({tok: (v,) for tok, v in table.items()} if one
                                 else table).get
        namespace[f"_rule{i}"] = rule
        read = f"_rule{i}(o{i}, line, col, labels, n)"
        body += [f"o{i} = o{i}.strip()",
                 f"a{i} = _get{i}(o{i})",
                 f"if a{i} is None:",
                 f"    a{i} = " + (f"({read},)" if one else read)]
    values = [f[0] if len(f) == 1 else "(" + "".join(v + ", " for v in f) + ")"
              for f in fields]
    body += ["try:",
             f"    return _make(_op, {values[0]}, {values[1]}, {values[2]}, guard, _form)",
             "except EncodingError as e:",
             "    raise AsmError(line, col, str(e)) from None"]
    source = "def build(line, col, guard, operands, labels, n):\n" + "".join(
        f"    {line}\n" for line in body)
    exec(source, namespace)
    build = _BUILDERS[m, count] = namespace["build"]
    return build


def _unplanned(m: str, count: int, line: int, col: int, *_):
    """The builder of a line whose mnemonic takes no `count` operands."""
    if m not in _OPCODES:
        raise AsmError(line, col, f"unknown mnemonic {m!r}")
    raise AsmError(line, col, f"{m} expects {len(FORMS[_OPCODES[m]][-1].operands)} "
                              f"operands, got {count}")


# (mnemonic, operand count) -> the builder of its lines, made on first use
_BUILDERS: Dict[tuple, Callable] = {}


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
    values = iter(ins.dst_regs), iter(ins.src_regs), iter(ins.immediates)
    texts = []
    for _, kind in ins.form.operands:
        slot, show, *_ = _OPERANDS[kind]
        texts.append(show(next(values[slot])))
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


def _rows_of(value, *types) -> bool:
    """value is a JSON array of arrays whose items have exactly `types`, in
    order (a bool is not an int)."""
    return type(value) is list and all(
        type(row) is list and len(row) == len(types)
        and all(type(v) is t for v, t in zip(row, types)) for row in value)


def load_bundle(path: str) -> AssembledKernel:
    """Reads a `save_bundle` file; one that does not decode raises
    EncodingError (docs/asm.md)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        doc = json.loads(blob)
        if doc.get("format") != "xshark-program":
            raise EncodingError("not an xshark program bundle")
        if type(doc.get("isa_version")) is not int or doc["isa_version"] != ISA_VERSION:
            raise EncodingError(f"program bundle ISA version {doc.get('isa_version')}")
        labels, regions = doc.get("labels", {}), doc.get("regions", [])
        for key, ok in (
                ("entry_pc", type(doc["entry_pc"]) is int),
                ("hbm_image", _rows_of(doc["hbm_image"], int, str)
                 and all(off >= 0 for off, _ in doc["hbm_image"])),
                ("vmem_image", _rows_of(doc["vmem_image"], int, str)
                 and all(off >= 0 for off, _ in doc["vmem_image"])),
                ("labels", type(labels) is dict
                 and all(type(v) is int for v in labels.values())),
                ("regions", _rows_of(regions, str, int, int))):
            if not ok:
                raise EncodingError(f"bundle field {key} is malformed")
        program = Program.from_bytes(bytes.fromhex(doc["instructions"]), doc["entry_pc"])
        return AssembledKernel(
            program,
            [(off, base64.b64decode(b, validate=True)) for off, b in doc["hbm_image"]],
            [(off, base64.b64decode(b, validate=True)) for off, b in doc["vmem_image"]],
            labels,
            [tuple(r) for r in regions],
        )
    except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as e:
        # EncodingError is a ValueError, as are bad JSON, hex and base64;
        # nesting too deep to decode is a RecursionError
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
