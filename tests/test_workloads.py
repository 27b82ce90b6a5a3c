"""Assembler round-trips and the paper-analog kernels."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.analyzer import analyze_dma
from xshark.isa import Fault, Opcode, encode_instruction
from xshark.sim import SimConfig
from xshark.workloads import (AsmError, assemble, disassemble,
                              gen_allgather_kernel, gen_checkerboard_kernel,
                              gen_random_kernel, gen_starvation_kernel,
                              initial_state)
from xshark.workloads.asm import load_bundle, save_bundle

import oracles
from helpers import asm_run, region_of


# ---------------------------------------------------------------- assembler

def test_minimal_halt_kernel():
    k = assemble("halt\n")
    assert len(k.program) == 1
    assert k.program.instructions[0].opcode is Opcode.HALT


def test_forward_branch_resolves_label():
    k = assemble("br done\ns_ldi s0, 1\ndone:\nhalt\n")
    assert k.program.instructions[0].immediates == (2,)


def test_duplicate_label_diagnostic():
    with pytest.raises(AsmError) as exc:
        assemble("x:\nhalt\nx:\nhalt\n")
    assert "duplicate label" in str(exc.value) and exc.value.line == 3


def test_unknown_mnemonic_diagnostic():
    with pytest.raises(AsmError) as exc:
        assemble("halt\nfrobnicate s0\n")
    assert exc.value.line == 2


def test_register_out_of_range_diagnostic():
    with pytest.raises(AsmError):
        assemble("s_ldi s99, 1\n")


def test_dangling_label_diagnostic():
    with pytest.raises(AsmError) as exc:
        assemble("br nowhere\nhalt\n")
    assert "undefined label" in str(exc.value)


def test_region_labels_tracked():
    src = """
      ;; hlo: phase.a
      s_ldi s0, 1
      s_ldi s1, 2
      ;; hlo: phase.b
      halt
    """
    k = assemble(src)
    assert k.regions == [("phase.a", 0, 2), ("phase.b", 2, 3)]
    assert region_of(k, 1) == "phase.a" and region_of(k, 2) == "phase.b"


def test_data_directives_build_images():
    src = """
      .data 0x100: de ad
      .data32 0x200: 1 0x10
      .dataf 0x300: 1.5
      .vdata32 0x40: 7
      halt
    """
    k = assemble(src)
    hbm = dict(k.hbm_image)
    assert hbm[0x100] == b"\xde\xad"
    assert hbm[0x200] == (1).to_bytes(4, "little") + (16).to_bytes(4, "little")
    assert dict(k.vmem_image)[0x40] == (7).to_bytes(4, "little")


@pytest.mark.parametrize("directive", [".vdata 0x1ffffe: 01 02 03",
                                       ".data 0xfffe: 01 02 03"])
def test_image_past_capacity_is_mem_oob(directive):
    config = SimConfig.from_json({"hbm_capacity": 0x10000})
    with pytest.raises(Fault) as exc:
        initial_state(assemble(directive + "\nhalt\n"), config)
    assert exc.value.kind == "mem_oob"


def test_initial_state_applies_images_at_entry():
    k = assemble(".data 0x10: 0a 0b\n.vdata 0x20: 0c\n.entry go\nhalt\ngo: halt\n")
    state = initial_state(k, SimConfig())
    assert state.hbm.read(0x10, 2) == b"\x0a\x0b"
    assert bytes(state.vmem[0x20:0x21]) == b"\x0c"
    assert len(state.vmem) == SimConfig().vmem_capacity
    assert state.pc == 1


ROUND_TRIP = """
  .entry main
  main:
  s_ldi s0, -5
  s_cmp p1, s0, s1, ge
  @p1 v_add v1, v2, v3
  s_mov s2, v1, 7
  v_load v0, [s3]
  v_store [s3], v0
  mxu_mm s4, s5, s6
  dma_issue 2, vmem>hbm, s0, s1, s2
  dma_wait 2
  brz p1, main
  br main
  halt
"""


def test_assembler_disassembler_round_trip():
    p1 = assemble(ROUND_TRIP).program
    text = disassemble(p1)
    p2 = assemble(text).program
    assert p1 == p2


def test_random_kernels_round_trip_and_bundle(tmp_path):
    for seed in range(5):
        k = assemble(gen_random_kernel(seed, size=120).text)
        assert assemble(disassemble(k.program)).program == k.program
    path = str(tmp_path / "prog.json")
    k = assemble(ROUND_TRIP)
    save_bundle(k, path)
    back = load_bundle(path)
    assert back.program == k.program and back.labels == k.labels



@pytest.mark.parametrize("source,line,col", [
    ("@p1\n", 1, 1), ("  halt\n  @p1   ; no instruction\n", 2, 3)])
def test_guard_without_an_instruction_is_an_asm_error(source, line, col):
    for assembler in (assemble, oracles.assemble):
        with pytest.raises(AsmError) as e:
            assembler(source)
        assert (e.value.line, e.value.col, e.value.message) == (
            line, col, "guard without an instruction")


def _assembled(assembler, source: str):
    """What `assembler` makes of `source`: the kernel's program bytes,
    entry, images, labels and regions, or its AsmError's (line, col,
    message)."""
    try:
        k = assembler(source)
    except AsmError as e:
        return "error", e.line, e.col, e.message
    return ("kernel", k.program.to_bytes(), k.program.entry_pc, k.hbm_image,
            k.vmem_image, k.labels, k.regions)


# tokens a mutation may put in place of one token of a line: registers of
# each class in and out of range, numbers with a leading zero, in hex and
# out of every immediate's range, labels that exist and one that does not,
# modes and directions in either case, and memory operands where a register
# belongs
_TOKENS = st.sampled_from([
    "s0", "s31", "s32", "v0", "v31", "v32", "p0", "p7", "p8", "q2", "s\u00b2",
    "", "0", "007", "-1", "15", "16", "6", "9", "0x10", "0x7fffffff",
    "4294967296", "-2147483649", "loop0", "loop1", "nowhere", "eq", "GE",
    "below", "hbm>vmem", "hbm>foo", "[s3]", "[ s3 ]", "[v1]", "[s40]", "@p1",
    "halt", "s_add", "br", "frobnicate"])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(10, 60), data=st.data())
def test_assembler_matches_the_reference(seed, size, data):
    """A small random kernel, with up to three changes (an instruction
    line's token replaced, or one line copied over another, its leading
    blanks, a trailing comment or a label prefix changed on the way),
    assembles to the same kernel or fails with the same AsmError as the
    reference assembler, which builds every line on its own."""
    lines = gen_random_kernel(seed, size=size).text.splitlines()
    indented = [i for i, line in enumerate(lines) if line.startswith(" ")]
    for _ in range(data.draw(st.integers(0, 3), "mutations")):
        if data.draw(st.integers(0, 3), "copy") == 0:
            i, j = data.draw(st.lists(st.integers(0, len(lines) - 1),
                                      min_size=2, max_size=2), "copy from")
            lines[i] = (data.draw(st.sampled_from(["", " ", "\t", "    "]), "blanks")
                        + data.draw(st.sampled_from(["", "copied: ", "c.1:"]), "label")
                        + lines[j].lstrip()
                        + data.draw(st.sampled_from(["", " ; copied", ";"]), "comment"))
            continue
        i = data.draw(st.sampled_from(indented), "line")
        parts = re.split(r"([\s,]+)", lines[i])   # tokens at even positions
        j = data.draw(st.sampled_from([j for j in range(len(parts) - 1, -1, -2)
                                       if parts[j]] or [0]), "token")   # last first
        parts[j] = data.draw(_TOKENS, "with")
        lines[i] = "".join(parts)
    source = "\n".join(lines) + "\n"
    assert _assembled(assemble, source) == _assembled(oracles.assemble, source)


# the benchmark's kernels: starvation, long_window and three of its corpus
# kernels (seeds 3, 9 and 14, sized by the acceptance corpus's formula,
# 50 + seed * 991 % 4951)
_BENCHMARK_KERNELS = {
    "starvation": lambda: gen_starvation_kernel(tiles=64, prefetch_depth=1),
    "long_window": lambda: gen_random_kernel(7, size=5000).text,
    **{f"corpus-{seed}": (lambda seed=seed: gen_random_kernel(
        seed, size=50 + seed * 991 % 4951).text) for seed in (3, 9, 14)},
}


@pytest.mark.parametrize("name", _BENCHMARK_KERNELS)
def test_benchmark_kernels_match_the_reference(name):
    """Each whole benchmark kernel, thousands of lines, assembles to the
    same program bytes, entry, images, labels and regions as the reference
    assembler gives."""
    source = _BENCHMARK_KERNELS[name]()
    got = _assembled(assemble, source)
    assert got[0] == "kernel" and got == _assembled(oracles.assemble, source)


@pytest.mark.parametrize("source,accepted", [
    ("caf\u00e9: halt\n", False),        # a label is ASCII: [A-Za-z_][A-Za-z0-9_.]*
    ("a\u0660: halt\n", False),
    ("top: br caf\u00e9\n", False),
    ("_a.b9: br _a.b9\n", True),
    ("s_ldi s3, 0\nv_load v1, [ s3 ]\nhalt\n", True),
    ("s_cmp p0, s0, s1, Le\ns_cmp p1, s0, s1, GE\nhalt\n", True),
    ("dma_issue 0, HBM>VMEM, s0, s1, s2\nhalt\n", False),
], ids=["non-ascii-label", "non-ascii-digit-label", "non-ascii-target",
        "ascii-label", "blanks-in-brackets", "cmp-mode-any-case",
        "dma-direction-upper-case"])
def test_documented_spellings(source, accepted):
    """What docs/asm.md says both assemblers accept and refuse: labels are
    ASCII, a memory operand may hold blanks, a compare mode has any case and
    a DMA direction is lower case."""
    got = _assembled(assemble, source)
    assert got == _assembled(oracles.assemble, source)
    assert (got[0] == "kernel") == accepted


def test_one_instruction_per_distinct_text_and_record(tmp_path):
    """A kernel holds one Instruction object per distinct instruction text,
    and a loaded bundle one per distinct 16-byte record."""
    k = assemble(gen_random_kernel(4, size=300).text)
    text = disassemble(k.program)           # one instruction per indented line
    texts = [ln for ln in text.splitlines() if ln.startswith("  ")]
    again = assemble(text).program.instructions
    assert len({id(i) for i in again}) == len(set(texts)) < len(texts)
    path = str(tmp_path / "prog.json")
    save_bundle(k, path)
    loaded = load_bundle(path).program.instructions
    assert len({id(i) for i in loaded}) == len(set(map(encode_instruction, loaded)))
    assert loaded == k.program.instructions


# ---------------------------------------------------------------- all-gather

def test_allgather_baseline_nine_setup_dmas_base_stalled():
    kernel, result, tracker = asm_run(gen_allgather_kernel())
    setup = [x for x in analyze_dma(tracker.events)
             if region_of(kernel, x.pc) == "ag.setup"]
    assert len(setup) == 9
    for x in setup:
        base = x.base_done_cycle - x.wait_cycle
        transfer = x.complete_cycle - x.base_done_cycle
        assert x.wait_cycle < x.base_done_cycle        # scenario 1
        assert base > transfer                          # dominated by base latency
    frac = result.total_stall / result.cycles
    assert 0.30 < frac < 0.50                           # ~40% of kernel cycles


def test_allgather_pinned_elides_setup_phase():
    kernel_b, base, _ = asm_run(gen_allgather_kernel())
    kernel_p, pinned, tracker_p = asm_run(gen_allgather_kernel(pinned=True))
    records_p = analyze_dma(tracker_p.events)
    setup_p = [x for x in records_p
               if region_of(kernel_p, x.pc) == "ag.setup"]
    assert setup_p == []
    assert pinned.cycles <= 0.9 * base.cycles           # >= 10% faster
    # both variants push the same bytes
    assert len([x for x in records_p
                if region_of(kernel_p, x.pc) == "ag.data"]) == 6


def test_allgather_variants_agree_on_data():
    _, base, _ = asm_run(gen_allgather_kernel())
    _, pinned, _ = asm_run(gen_allgather_kernel(pinned=True))
    spots = [0x100000 + k * 1024 for k in range(6)]
    for off in spots:
        assert base.state.hbm.read(off, 64) == pinned.state.hbm.read(off, 64)
        assert base.state.hbm.read(off, 8) != bytes(8)


def test_allgather_parallel_setup_cuts_base_stall_threefold():
    kb, base, tb = asm_run(gen_allgather_kernel())
    kp, par, tp = asm_run(gen_allgather_kernel(parallel_setup=True))

    def setup_base_stall(kernel, tracker):
        total = 0
        opens = {}
        for e in tracker.events:
            if e.kind == "stall_begin" and e.reason == "dma_base" \
                    and region_of(kernel, e.pc) == "ag.setup":
                opens[e.idx] = e.cycle
            elif e.kind == "stall_end" and e.reason == "dma_base" and e.idx in opens:
                total += e.cycle - opens.pop(e.idx)
        return total

    b, p = setup_base_stall(kb, tb), setup_base_stall(kp, tp)
    assert b > 0
    assert p <= 0.40 * b


# ---------------------------------------------------------------- starvation

def _mxu_utilization(tracker, cycles):
    busy = [(e.cycle, e.until) for e in tracker.events
            if e.kind == "unit_busy" and e.unit == "MXU"]
    first = min(c for c, _ in busy)
    return sum(u - c for c, u in busy) / (cycles - first)


def test_starvation_baseline_low_mxu_utilization():
    _, result, tracker = asm_run(gen_starvation_kernel(tiles=32, prefetch_depth=1))
    assert result.outcome == "halted"
    assert _mxu_utilization(tracker, result.cycles) < 0.40


def test_starvation_depth4_high_mxu_utilization():
    _, result, tracker = asm_run(gen_starvation_kernel(tiles=32, prefetch_depth=4))
    assert result.outcome == "halted"
    assert _mxu_utilization(tracker, result.cycles) > 0.85


def test_starvation_depths_agree_architecturally():
    _, r1, _ = asm_run(gen_starvation_kernel(tiles=16, prefetch_depth=1))
    _, r4, _ = asm_run(gen_starvation_kernel(tiles=16, prefetch_depth=4))
    assert bytes(r1.state.vmem[:2048]) == bytes(r4.state.vmem[:2048])
    assert r4.cycles < r1.cycles


# ------------------------------------------------------------ random kernels

def test_random_kernel_seed_determinism():
    a = gen_random_kernel(7, size=300)
    b = gen_random_kernel(7, size=300)
    assert a.text == b.text
    assert a.text != gen_random_kernel(8, size=300).text


def test_random_kernels_run_clean_within_bound():
    for seed in range(30):
        g = gen_random_kernel(seed, size=150)
        _, result, _ = asm_run(g.text, max_cycles=g.estimated_max_cycles,
                               record_events=False)
        assert result.outcome == "halted", f"seed {seed}: {result.fault}"
        assert result.cycles <= g.estimated_max_cycles


def test_random_kernels_cover_all_opcodes():
    seen = set()
    for seed in range(100):
        k = assemble(gen_random_kernel(seed, size=200).text)
        seen.update(i.opcode for i in k.program.instructions)
    assert seen == set(Opcode)


def test_checkerboard_touches_alternating_pages():
    _, result, _ = asm_run(gen_checkerboard_kernel(), record_events=False,
                           max_cycles=2_000_000)
    assert result.outcome == "halted"
    vm = result.state.vmem
    assert vm[0:1] == b"\0"        # stores write zeros; page-touch is what counts
