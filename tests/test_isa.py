"""Encoding round-trips, IO-set parsing, and IO-set soundness fuzzing."""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.isa import (EncodingError, Fault, Instruction, MachineState,
                        MemRegion, MemSpace, Opcode, Program, RegClass,
                        RegisterId, addressed_reads, decode_instruction,
                        encode_instruction, instruction_io_sets)
from xshark.sim import SimConfig, Simulator
from xshark.workloads import assemble, disassemble

from helpers import asm_run, preg, sreg, vreg


def S(i):
    return sreg(i)


def test_sldi_encoding_layout():
    raw = encode_instruction(Instruction(Opcode.S_LDI, (S(0),), (), (42,)))
    assert len(raw) == 16
    assert raw[0] == 0x01              # declared opcode byte for S_LDI
    assert raw[1] == 0xFF              # unpredicated
    assert raw[6:10] == (42).to_bytes(4, "little")


def test_dma_issue_round_trip():
    ins = Instruction(Opcode.DMA_ISSUE, (), (S(1), S(2), S(3)), (3, 0))
    assert decode_instruction(encode_instruction(ins)) == ins


def test_truncated_record_rejected():
    raw = encode_instruction(Instruction(Opcode.HALT))
    with pytest.raises(EncodingError):
        decode_instruction(raw[:15])


def test_unknown_opcode_rejected():
    raw = bytearray(16)
    raw[0] = 0xEE
    with pytest.raises(EncodingError):
        decode_instruction(bytes(raw))


def test_reserved_bytes_must_be_zero():
    raw = bytearray(encode_instruction(Instruction(Opcode.HALT)))
    raw[15] = 1
    with pytest.raises(EncodingError):
        decode_instruction(bytes(raw))


_OPCODE_BUILDERS = [
    lambda r: Instruction(Opcode.S_LDI, (sreg(r.randrange(32)),), (),
                          (r.randrange(-2**31, 2**31),)),
    lambda r: Instruction(r.choice([Opcode.S_ADD, Opcode.S_MUL]),
                          (sreg(r.randrange(32)),),
                          (sreg(r.randrange(32)), sreg(r.randrange(32))), ()),
    lambda r: Instruction(Opcode.S_CMP, (preg(r.randrange(8)),),
                          (sreg(r.randrange(32)), sreg(r.randrange(32))),
                          (r.randrange(6),)),
    lambda r: Instruction(Opcode.S_MOV, (sreg(r.randrange(32)),),
                          (sreg(r.randrange(32)),), ()),
    lambda r: Instruction(Opcode.S_MOV, (sreg(r.randrange(32)),),
                          (vreg(r.randrange(32)),), (r.randrange(16),)),
    lambda r: Instruction(r.choice([Opcode.V_ADD, Opcode.V_MUL]),
                          (vreg(r.randrange(32)),),
                          (vreg(r.randrange(32)), vreg(r.randrange(32))), ()),
    lambda r: Instruction(Opcode.V_LOAD, (vreg(r.randrange(32)),),
                          (sreg(r.randrange(32)),), ()),
    lambda r: Instruction(Opcode.V_STORE, (),
                          (sreg(r.randrange(32)), vreg(r.randrange(32))), ()),
    lambda r: Instruction(Opcode.MXU_MM, (),
                          tuple(sreg(r.randrange(32)) for _ in range(3)), ()),
    lambda r: Instruction(Opcode.DMA_ISSUE, (),
                          tuple(sreg(r.randrange(32)) for _ in range(3)),
                          (r.randrange(16), r.randrange(4))),
    lambda r: Instruction(Opcode.DMA_WAIT, (), (), (r.randrange(16),)),
    lambda r: Instruction(Opcode.BR, (), (), (r.randrange(4),)),
    lambda r: Instruction(Opcode.BRZ, (), (preg(r.randrange(8)),),
                          (r.randrange(4),)),
    lambda r: Instruction(Opcode.HALT),
]


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_encode_decode_round_trip_random(seed):
    r = random.Random(seed)
    ins = r.choice(_OPCODE_BUILDERS)(r)
    if r.random() < 0.3:
        ins = Instruction(ins.opcode, ins.dst_regs, ins.src_regs,
                          ins.immediates, preg(r.randrange(8)))
    assert decode_instruction(encode_instruction(ins)) == ins
    # and through the text: branch targets are drawn below 4
    prog = Program((ins,) + (Instruction(Opcode.HALT),) * 3)
    assert assemble(disassemble(prog)).program == prog


def test_instruction_is_an_immutable_value():
    """An Instruction is equal to, and hashes as, another of the same
    opcode, registers, immediates and guard, and to nothing else; its
    fields cannot be set or deleted; a copy or a pickle round trip is equal
    to it, and it prints its five fields."""
    ins = Instruction(Opcode.S_ADD, (sreg(2),), (sreg(0), sreg(1)), (), preg(3))
    twin = Instruction(Opcode.S_ADD, (sreg(2),), (sreg(0), sreg(1)), (), preg(3))
    assert ins == twin and hash(ins) == hash(twin) and ins is not twin
    assert ins != Instruction(Opcode.S_ADD, (sreg(2),), (sreg(0), sreg(1)))
    assert ins != (ins.opcode, ins.dst_regs, ins.src_regs, ins.immediates,
                   ins.predicate)
    for name in ("opcode", "io", "static_io", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(ins, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(ins, name)
    for again in (copy.copy(ins), copy.deepcopy(ins), pickle.loads(pickle.dumps(ins))):
        assert again == ins and again.io == ins.io and again.form is ins.form
    assert repr(ins) == (f"Instruction(opcode={Opcode.S_ADD!r}, dst_regs={ins.dst_regs!r}, "
                         f"src_regs={ins.src_regs!r}, immediates=(), "
                         f"predicate={preg(3)!r})")


# ----------------------------------------------------------- IO-set parsing

def test_vload_footprint():
    st_ = MachineState()
    st_.write_sreg(1, 0x100)
    ins = Instruction(Opcode.V_LOAD, (vreg(0),), (S(1),), ())
    ios = instruction_io_sets(ins, st_)
    assert ios.input_regs == (S(1),)
    assert ios.input_mem == (MemRegion(MemSpace.VMEM, 0x100, 64),)
    assert ios.output_regs == (vreg(0),)
    assert ios.output_mem == ()


def test_dma_issue_footprint():
    st_ = MachineState()
    st_.write_sreg(1, 0x1000)          # src (HBM)
    st_.write_sreg(2, 0x200)           # dst (VMEM)
    st_.write_sreg(3, 256)
    ins = Instruction(Opcode.DMA_ISSUE, (), (S(1), S(2), S(3)), (0, 0))
    ios = instruction_io_sets(ins, st_)
    assert ios.input_mem == (MemRegion(MemSpace.HBM, 0x1000, 256),)
    assert ios.output_mem == (MemRegion(MemSpace.VMEM, 0x200, 256),)


def test_predicated_false_only_reads_guard():
    st_ = MachineState()
    ins = Instruction(Opcode.S_ADD, (S(2),), (S(0), S(1)), (), preg(0))
    ios = instruction_io_sets(ins, st_)
    assert ios.input_regs == (preg(0),)
    assert ios.output_regs == () and ios.input_mem == () and ios.output_mem == ()


def test_out_of_bounds_region_names_register():
    st_ = MachineState()
    st_.write_sreg(1, st_.vmem_capacity)   # aligned but out of range
    ins = Instruction(Opcode.V_LOAD, (vreg(0),), (S(1),), ())
    with pytest.raises(Fault) as exc:
        instruction_io_sets(ins, st_)
    assert exc.value.kind == "mem_oob"
    assert "s1" in str(exc.value)


def test_misaligned_vector_address_faults():
    st_ = MachineState()
    st_.write_sreg(1, 33)
    ins = Instruction(Opcode.V_LOAD, (vreg(0),), (S(1),), ())
    with pytest.raises(Fault) as exc:
        instruction_io_sets(ins, st_)
    assert exc.value.kind == "mem_align"


def test_branch_target_validation():
    with pytest.raises(EncodingError):
        Program((Instruction(Opcode.BR, (), (), (5,)),))


def _instruction_of(op, r):
    """A random instruction of opcode `op`, from _OPCODE_BUILDERS."""
    while True:
        ins = r.choice(_OPCODE_BUILDERS)(r)
        if ins.opcode is op:
            return ins


def _copy(ins):
    """An Instruction equal to `ins`, built afresh."""
    fresh = Instruction(ins.opcode, ins.dst_regs, ins.src_regs, ins.immediates,
                        ins.predicate)
    assert fresh == ins and fresh is not ins
    return fresh


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_static_footprint_is_never_stale(op):
    """The footprint an instruction keeps never leaks into a parse: parsed
    with its guard false, true, then false again, it gives what a copy built
    afresh gives from the same state, and the regions of a memory opcode
    follow its address register."""
    r = random.Random(int(op))
    base = _instruction_of(op, r)
    guard = preg(r.randrange(8))
    ins = Instruction(op, base.dst_regs, base.src_regs, base.immediates, guard)
    st_ = _random_state(r, SimConfig())
    _constrain_addresses(r, ins, st_)
    for value in (0, 1, 0):
        st_.pregs[guard.index] = value
        fresh = _copy(ins)
        ios = instruction_io_sets(ins, st_, 0)
        assert ios == instruction_io_sets(fresh, st_, 0)
        assert ios.input_regs == ((guard, *ins.src_regs) if value else (guard,))
    if op in (Opcode.V_LOAD, Opcode.V_STORE, Opcode.MXU_MM, Opcode.DMA_ISSUE):
        st_.pregs[guard.index] = 1
        before = instruction_io_sets(ins, st_, 0)
        address = ins.src_regs[0]                 # [ra], rd of MXU_MM, rs of DMA
        st_.sregs[address.index] += 64
        after = instruction_io_sets(ins, st_, 0)
        assert after == instruction_io_sets(_copy(ins), st_, 0) != before
        assert st_.sregs[address.index] in {m.offset for m in
                                            after.input_mem + after.output_mem}


@given(st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_static_footprint_is_the_parsed_one(seed):
    """`static_io` is unset (None) exactly for a guarded instruction and one
    that addresses memory; when set, it is what instruction_io_sets parses
    from any state."""
    r = random.Random(seed)
    ins = r.choice(_OPCODE_BUILDERS)(r)
    if r.random() < 0.3:
        ins = Instruction(ins.opcode, ins.dst_regs, ins.src_regs,
                          ins.immediates, preg(r.randrange(8)))
    addresses = ins.opcode in (Opcode.V_LOAD, Opcode.V_STORE, Opcode.MXU_MM,
                               Opcode.DMA_ISSUE)
    assert (ins.static_io is None) == (ins.predicate is not None or addresses)
    if ins.static_io is not None:
        for _ in range(3):
            st_ = _random_state(r, SimConfig())
            assert ins.static_io == instruction_io_sets(ins, st_, 0)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_addressed_reads_are_the_parsed_input_regions(op):
    """addressed_reads names, in order, the regions instruction_io_sets
    parses as the inputs of an instruction; with each register in a text
    replaced by its value (an address in hex, a length in decimal) the two
    agree."""
    r = random.Random(int(op) + 100)
    base = _instruction_of(op, r)
    ins = Instruction(op, base.dst_regs, base.src_regs, base.immediates)
    st_ = _random_state(r, SimConfig())
    _constrain_addresses(r, ins, st_)
    texts = []
    for text, (address, *length) in addressed_reads(ins):
        text = text.replace(f"[{address}+", f"[{st_.sregs[address.index]:#x}+")
        for reg in length:
            text = text.replace(f"+{reg}]", f"+{st_.sregs[reg.index]}]")
        texts.append(text)
    assert texts == [str(m) for m in instruction_io_sets(ins, st_, 0).input_mem]


# ------------------------------------------------- predicated-false example

def test_predicated_false_add_changes_nothing_but_pc_cycle():
    src = """
      s_ldi s0, 3
      s_ldi s1, 4
      @p0 s_add s2, s0, s1
      halt
    """
    _, result, _ = asm_run(src)
    assert result.state.sregs[2] == 0
    assert result.outcome == "halted"


# --------------------------------------------------- IO-set soundness fuzz

def _random_state(r: random.Random, config) -> MachineState:
    st_ = config.make_state()
    for i in range(32):
        st_.sregs[i] = r.randrange(0, 1 << 32)
    st_.vregs[:] = r.randbytes(len(st_.vregs))
    for i in range(8):
        st_.pregs[i] = r.randrange(2)
    st_.vmem[:4096] = r.randbytes(4096)
    st_.hbm.write(0, r.randbytes(4096))
    return st_


def _constrain_addresses(r, ins, st_):
    """Point address registers at small in-bounds aligned regions."""
    if ins.opcode in (Opcode.V_LOAD, Opcode.V_STORE):
        st_.write_sreg(ins.src_regs[0].index, 64 * r.randrange(0, 32))
    elif ins.opcode is Opcode.MXU_MM:
        for reg in ins.src_regs:
            st_.write_sreg(reg.index, 1024 * r.randrange(0, 3))
    elif ins.opcode is Opcode.DMA_ISSUE:
        rs, rd, rl = ins.src_regs
        st_.write_sreg(rs.index, r.randrange(0, 2048))
        st_.write_sreg(rd.index, 2048 + r.randrange(0, 1024))
        st_.write_sreg(rl.index, r.randrange(1, 300))


def _arch_snapshot(st_):
    return (list(st_.sregs), bytes(st_.vregs), list(st_.pregs),
            bytes(st_.vmem[:8192]),
            {k: bytes(v) for k, v in st_.hbm._pages.items()})


def _locations_changed(before, after):
    changed = set()
    for i, (a, b) in enumerate(zip(before[0], after[0])):
        if a != b:
            changed.add(("reg", "s", i))
    for i in range(32):
        if before[1][i * 64:(i + 1) * 64] != after[1][i * 64:(i + 1) * 64]:
            changed.add(("reg", "v", i))
    for i, (a, b) in enumerate(zip(before[2], after[2])):
        if a != b:
            changed.add(("reg", "p", i))
    for off in range(0, 8192, 64):
        if before[3][off:off + 64] != after[3][off:off + 64]:
            changed.add(("vmem", off // 64))
    pages = set(before[4]) | set(after[4])
    for p in pages:
        if before[4].get(p, b"\0" * 4096) != after[4].get(p, b"\0" * 4096):
            changed.add(("hbm", p))
    return changed


@pytest.mark.parametrize("seed", range(40))
def test_io_sets_sound_writes_within_outputs(seed):
    """Stepping changes registers/memory only inside declared output sets;
    mutating a byte outside the declared inputs leaves the deltas identical."""
    r = random.Random(seed * 7919)
    config = SimConfig()
    builders = [b for b in _OPCODE_BUILDERS]
    ins = r.choice(builders)(r)
    if ins.opcode in (Opcode.BR, Opcode.BRZ, Opcode.HALT, Opcode.DMA_WAIT):
        ins = Instruction(Opcode.S_ADD, (sreg(r.randrange(32)),),
                          (sreg(r.randrange(32)), sreg(r.randrange(32))), ())
    st_ = _random_state(r, config)
    _constrain_addresses(r, ins, st_)
    ios = instruction_io_sets(ins, st_)

    declared_out = set()
    for reg in ios.output_regs:
        declared_out.add(("reg", reg.cls.value, reg.index))
    for m in ios.output_mem:
        if m.space is MemSpace.VMEM:
            declared_out.update(("vmem", p) for p in
                                range(m.offset // 64, (m.end + 63) // 64))
        else:
            declared_out.update(("hbm", p) for p in
                                range(m.offset // 4096, (m.end + 4095) // 4096))

    work = copy.deepcopy(st_)
    sim = Simulator(None, config, work)
    assert sim.exec_instruction(ins, 0, ios) is None
    sim._advance_engine(10 ** 9)       # settle any in-flight DMA
    changed = _locations_changed(_arch_snapshot(st_), _arch_snapshot(work))
    assert changed <= declared_out, f"{ins}: wrote outside outputs: {changed - declared_out}"

    # mutate one byte outside the declared inputs; the delta must not move
    declared_in_regs = {(reg.cls.value, reg.index) for reg in ios.input_regs}
    candidates = [i for i in range(32)
                  if ("s", i) not in declared_in_regs
                  and ("reg", "s", i) not in declared_out]
    if candidates:
        mutated = copy.deepcopy(st_)
        mutated.sregs[r.choice(candidates)] ^= 0xDEADBEEF
        work2 = copy.deepcopy(mutated)
        sim2 = Simulator(None, config, work2)
        ios2 = instruction_io_sets(ins, work2, 0)
        assert sim2.exec_instruction(ins, 0, ios2) is None
        sim2._advance_engine(10 ** 9)
        delta2 = _locations_changed(_arch_snapshot(mutated), _arch_snapshot(work2))
        assert delta2 == changed
