"""Replay fidelity, divergence detection, and schedule permutation."""

import gc
import hashlib
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark import isa, recorder, replayer, sim
from xshark.analyzer import apply_and_verify
from xshark.analyzer.suggest import Suggestion
from xshark.isa import (MemRegion, MemSpace, decode_instruction, encode_instruction,
                        instruction_io_sets)
from xshark.recorder import ExecutionTrace, TraceError, record
from xshark.replayer import (ReplayDivergence, compare_window, replay,
                             replay_with_schedule)
from xshark.sim import (Breakpoint, RecordingTracker, SimConfig, Simulator,
                        events_to_jsonl, run_program)
from xshark.workloads import assemble, gen_random_kernel, initial_state

from helpers import asm_run, asm_session, mk_config, sreg

KERNEL = """
  .data 0x1000: 01 02 03 04 05 06 07 08
  .dataf 0x2000: 1.0 2.0 3.0 4.0
  s_ldi s0, 3
  s_ldi s9, -1
  s_ldi s8, 0
  top:
  s_ldi s1, 0x1000
  s_ldi s2, 0x200
  s_ldi s3, 72
  dma_issue 1, hbm>vmem, s1, s2, s3
  dma_wait 1
  s_ldi s4, 0x200
  v_load v1, [s4]
  v_add v2, v1, v1
  s_add s0, s0, s9
  s_cmp p0, s0, s8, le
  brz p0, top
  halt
"""


def _record(src=KERNEL, config=None, n=10_000, bp=0):
    config = config or SimConfig()
    _, session = asm_session(src, config)
    res = record(session, Breakpoint(bp), n)
    return session, res, config


def test_replay_reproduces_live_window_deltas():
    session, res, config = _record()
    rep = replay(res.trace, config)
    verdict = compare_window(session.state, res, rep)
    assert verdict["equal"], verdict


def test_replay_runs_from_zeroed_state_plus_snapshots():
    session, res, config = _record()
    rep = replay(res.trace, config)
    # live vmem holds pre-window garbage nowhere here, but the replay state
    # must agree on every written location and stay zero elsewhere
    assert rep.state.vmem[0x200:0x208] == bytes([1, 2, 3, 4, 5, 6, 7, 8])
    assert rep.state.pc == session.state.pc


def test_replay_divergence_on_unsnapshotted_read():
    session, res, config = _record()
    # drop the HBM snapshot feeding the DMA: replay must name the reader
    mutated = res.trace
    keep = [(m, d) for m, d in mutated.mem_snapshots if m.space.value != "hbm"]
    assert len(keep) < len(mutated.mem_snapshots)
    mutated.mem_snapshots = keep
    with pytest.raises(ReplayDivergence) as exc:
        replay(mutated, config)
    assert "DMA_ISSUE" in str(exc.value)
    assert exc.value.index >= 0


def test_divergence_names_every_undefined_input():
    # the window starts at the load, so s4 and the 64 VMEM bytes at 0x200
    # are its first uses; without their snapshots the error names s4, and
    # the region by how it is addressed, since the replay's s4 is not the
    # window's
    src = "  s_ldi s4, 0x200\n  v_load v1, [s4]\n  halt\n"
    _, res, config = _record(src, bp=1)
    t = res.trace
    assert [str(r) for r, _ in t.reg_snapshots] == ["s4"]
    assert [str(m) for m, _ in t.mem_snapshots] == ["vmem[0x200+64]"]
    with pytest.raises(ReplayDivergence) as exc:
        replay(ExecutionTrace(t.header, [], [], t.instr_stream), config)
    assert str(exc.value).endswith(
        "V_LOAD at pc 1 reads s4, which no snapshot and no in-window producer "
        "defines, so it cannot locate vmem[s4+64]")
    assert exc.value.index == 0
    # with s4 defined, the bytes it addresses are named by their address
    with pytest.raises(ReplayDivergence, match=r"V_LOAD at pc 1 reads "
                       r"vmem\[0x200\+64\], which no snapshot"):
        replay(ExecutionTrace(t.header, t.reg_snapshots, [], t.instr_stream),
               config)


def test_divergence_names_an_undefined_dma_length_register():
    # a zeroed length register would make the DMA fault as empty; the
    # divergence names the register instead
    src = ("  s_ldi s0, 0x1000\n  s_ldi s1, 0x200\n  s_ldi s2, 64\n"
           "  dma_issue 0, hbm>vmem, s0, s1, s2\n  dma_wait 0\n  halt\n")
    _, res, config = _record(src, bp=3)
    t = res.trace
    regs = [(r, d) for r, d in t.reg_snapshots if str(r) != "s2"]
    assert len(regs) == 2
    with pytest.raises(ReplayDivergence) as exc:
        replay(ExecutionTrace(t.header, regs, t.mem_snapshots, t.instr_stream),
               config)
    assert str(exc.value).endswith(
        "DMA_ISSUE at pc 3 reads s2, which no snapshot and no in-window "
        "producer defines, so it cannot locate hbm[s0+s2]")


def test_replay_config_hash_gate():
    _, res, _ = _record()
    other = mk_config(t_base=11)
    with pytest.raises(TraceError) as exc:
        replay(res.trace, other)
    assert exc.value.code == "TRACE_CONFIG_MISMATCH"


def test_timing_config_independence_of_architecture():
    """Replaying under a different T_b/bandwidth changes event timings but
    never architectural results. Each replay reads a copy of the trace whose
    header carries the other config's hash, so the config-hash gate passes."""
    _, res, config = _record()
    base = replay(res.trace, config)
    t = res.trace
    for other in (mk_config(t_base=13),
                  mk_config(link_bandwidth={"hbm>vmem": 4}),
                  mk_config(unit_latency={"MXU": 5, "LSU": 9})):
        header = replace(t.header, sim_config_hash=other.config_hash())
        rep = replay(ExecutionTrace(header, t.reg_snapshots, t.mem_snapshots,
                                    t.instr_stream), other)
        assert rep.digest == base.digest
        assert rep.footprint == base.footprint
        assert rep.cycles != base.cycles or other.to_json() == config.to_json()


def test_replay_timing_determinism():
    _, res, config = _record()
    t1, t2 = RecordingTracker(), RecordingTracker()
    r1 = replay(res.trace, config, t1)
    r2 = replay(res.trace, config, t2)
    assert events_to_jsonl(t1.events) == events_to_jsonl(t2.events)
    assert r1.digest == r2.digest and r1.cycles == r2.cycles


def test_trace_ending_mid_dma_is_not_an_error():
    # cut the window right after the issue: the DMA never completes in-window
    src = """
      s_ldi s1, 0x1000
      s_ldi s2, 0x200
      s_ldi s3, 64
      dma_issue 0, hbm>vmem, s1, s2, s3
      dma_wait 0
      halt
    """
    session, res, config = _record(src, n=4)
    assert res.recorded == 4
    rep = replay(res.trace, config)
    slot = rep.state.dma_slots[0]
    assert slot.active and not slot.applied          # still in flight at cut
    assert compare_window(session.state, res, rep)["equal"]


# ------------------------------------------------------------- schedules

def test_identity_permutation_equals_replay():
    _, res, config = _record()
    base = replay(res.trace, config)
    n = len(res.trace.instr_stream)
    rep = replay_with_schedule(res.trace, list(range(n)), config)
    assert rep.digest == base.digest and rep.cycles == base.cycles


def test_swap_independent_loads_preserves_state():
    src = """
      s_ldi s0, 1
      s_ldi s1, 2
      s_ldi s2, 3
      halt
    """
    _, res, config = _record(src)
    base = replay(res.trace, config)
    rep = replay_with_schedule(res.trace, [1, 0, 2, 3], config)
    assert rep.digest == base.digest


def test_hoisting_issue_above_its_address_producer_diverges():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      halt
    """
    _, res, config = _record(src)
    order = [3, 0, 1, 2, 4, 5]          # issue before its s_ldi producers
    with pytest.raises(ReplayDivergence):
        replay_with_schedule(res.trace, order, config)


def test_non_permutation_rejected():
    _, res, config = _record()
    with pytest.raises(ValueError):
        replay_with_schedule(res.trace, [0, 0, 1], config)


def test_unlanded_dma_destination_is_not_in_the_footprint():
    # the live destination holds other bytes than the replay's zeroed one,
    # so counting it as written would also break the digests' equality
    src = """
      .vdata 0x200: ff ff ff ff
      s_ldi s1, 0x1000
      s_ldi s2, 0x200
      s_ldi s3, 64
      dma_issue 0, hbm>vmem, s1, s2, s3
      dma_wait 0
      halt
    """
    session, res, config = _record(src, n=4)
    assert dict(res.footprint.mem) == {MemSpace.VMEM: (), MemSpace.HBM: ()}
    assert res.footprint.regs == {sreg(1), sreg(2), sreg(3)}
    assert compare_window(session.state, res, replay(res.trace, config))["equal"]


def test_window_digest_follows_the_documented_recipe():
    """docs/trace-format.md, "Window footprint and the `window:` digest"."""
    _, res, config = _record()
    rep = replay(res.trace, config)
    state, fp = rep.state, rep.footprint
    assert fp.regs and any(spans for _, spans in fp.mem)
    h = hashlib.sha256(struct.pack("<I", state.pc) + bytes([state.halted]))
    for r in sorted(fp.regs, key=str):
        h.update(str(r).encode() + state.read_reg_bytes(r))
    for space, spans in fp.mem:
        for s, e in spans:
            h.update(f"{space.value}:{s}:{e}".encode()
                     + state.read_mem(MemRegion(space, s, e - s)))
    assert [sp for sp, _ in fp.mem] == [MemSpace.VMEM, MemSpace.HBM]
    assert rep.digest == "window:" + h.hexdigest()


# ------------------------------------------------------ faulting windows

FAULTING_WINDOWS = {
    # the second issue finds slot 0 busy while the first DMA is in flight
    "dma_busy": """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      s_ldi s3, 0x400
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_issue 0, hbm>vmem, s0, s3, s2
      halt
    """,
    "dma_wait_idle": """
      s_ldi s1, 0x200
      v_load v1, [s1]
      dma_wait 3
      halt
    """,
    # faults while its footprint is parsed, before it steps
    "mem_align": """
      s_ldi s0, 0x1000
      s_ldi s1, 0x203
      v_load v1, [s0]
      v_load v2, [s1]
      halt
    """,
}


@pytest.mark.parametrize("kind", FAULTING_WINDOWS)
def test_window_ending_in_a_fault_replays_bit_exact(kind):
    session, res, config = _record(FAULTING_WINDOWS[kind])
    assert res.fault.kind == kind and res.trace.header.fault_kind == kind
    rep = replay(res.trace, config)
    assert rep.footprint == res.footprint
    assert compare_window(session.state, res, rep)["equal"] is True


def test_trace_whose_last_record_faults_diverges():
    # the recorder never keeps the faulting instruction; a stream that holds
    # it is tampered, whatever the header's fault_kind says
    session, res, config = _record(FAULTING_WINDOWS["dma_busy"])
    t = res.trace
    pc = session.state.pc
    stream = t.instr_stream + [(pc, session._code[pc])]
    header = replace(t.header, instruction_count=len(stream))
    with pytest.raises(ReplayDivergence, match="dma_busy"):
        replay(ExecutionTrace(header, t.reg_snapshots, t.mem_snapshots, stream),
               config)


def test_footprint_parsed_once_per_instruction(monkeypatch):
    """run, record and replay each parse the footprint of an executed
    instruction that is guarded or addresses memory once, and take the
    cached `io` of every other one; the simulator takes it from the
    caller."""
    calls = []

    def counting(*args):
        calls.append(args)
        return instruction_io_sets(*args)

    def parsed(stream):
        return [pc for pc, instr in stream if instr.predicate is not None
                or instr.opcode in isa.MEM_OPCODES]

    for module in (sim, recorder, replayer):
        monkeypatch.setattr(module, "instruction_io_sets", counting)
    kernel, result, tracker = asm_run(KERNEL)
    code = kernel.program.instructions
    executed = [(ev.pc, code[ev.pc]) for ev in tracker.events
                if ev.kind == "instr_issue"]
    assert len(executed) == result.executed
    assert [pc for _, _, pc in calls] == parsed(executed) != []
    calls.clear()
    _, res, config = _record()
    assert [pc for _, _, pc in calls] == parsed(res.trace.instr_stream) != []
    calls.clear()
    rep = replay(res.trace, config)
    assert [pc for _, _, pc in calls] == parsed(res.trace.instr_stream)
    assert rep.executed == res.recorded


def test_only_read_trace_decodes_the_stream(monkeypatch, tmp_path):
    """read_trace decodes each distinct record once, for either container,
    and repeated records share one Instruction; replay, apply_and_verify and
    replay_with_schedule decode none."""
    decoded = []

    def counting(raw):
        decoded.append(raw)
        return decode_instruction(raw)

    monkeypatch.setattr(isa, "decode_instruction", counting)
    _, res, config = _record()
    n = len(res.trace.instr_stream)
    records = [encode_instruction(i) for _, i in res.trace.instr_stream]
    assert len(set(records)) < n                 # the window repeats records
    for binary in (False, True):
        path = str(tmp_path / f"t{binary}")
        recorder.write_trace(res.trace, path, binary=binary)
        decoded.clear()
        trace = recorder.read_trace(path)
        assert len(decoded) == len(set(records))
        assert trace.instr_stream == res.trace.instr_stream
        first = {}
        for raw, (_, instr) in zip(records, trace.instr_stream):
            assert first.setdefault(raw, instr) is instr
    decoded.clear()
    order = list(range(n))
    replay(trace, config)
    apply_and_verify(trace, Suggestion(0, 0, 0, 0, 0, 0, None, order[:1]), config)
    replay_with_schedule(trace, order, config)
    assert decoded == []


def test_run_record_replay_leave_no_reference_cycle():
    """A finished machine is freed by reference counting: run, run_to,
    record and replay leave no reference cycle that would keep a machine's
    VMEM alive until a full collection."""
    config = SimConfig()
    kernel = assemble(gen_random_kernel(3, size=200).text)
    run_program(kernel.program, config, initial_state(kernel, config))   # warm-up
    gc.collect()              # the first use of the kernels imports numpy
    gc.disable()
    try:
        result = run_program(kernel.program, config, initial_state(kernel, config))
        stopped = Simulator(kernel.program, config, initial_state(kernel, config),
                            RecordingTracker())
        assert stopped.run_to(Breakpoint(len(kernel.program) // 2)) == "hit"
        sim = Simulator(kernel.program, config, initial_state(kernel, config))
        res = record(sim, None, 10 ** 6)
        rep = replay(res.trace, config, RecordingTracker())
        assert result.outcome == "halted" and rep.executed == res.recorded > 0
        del result, stopped, sim, res, rep
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 120),
       skip=st.integers(0, 60), count=st.integers(1, 150))
def test_replay_reproduces_the_live_windows_timeline(seed, size, skip, count):
    """The live run's events of a recorded window, rebased to the window's
    start cycle and first instruction, are the replay's events, and the
    window's cycles are the replay's; windows that run into HALT included."""
    config = SimConfig()
    kernel = assemble(gen_random_kernel(seed, size=size).text)
    live = RecordingTracker()
    session = Simulator(kernel.program, config, initial_state(kernel, config), live)
    for _ in range(skip):
        if session.peek() is None:
            break
        session.step()
    res = record(session, None, count, fast_forward_dma=True)
    _assert_replay_reproduces_the_timeline(session, live, res, config)


def _assert_replay_reproduces_the_timeline(session, live, res, config):
    """The replay's event log is the live window's, byte for byte, once the
    live events are rebased to the window's start cycle, first index and
    first dma_id; and the replay's cycles are the window's."""
    replayed = RecordingTracker()
    rep = replay(res.trace, config, replayed)
    first, start = session.stream_index - res.recorded, res.trace.header.start_cycle
    window = [ev for ev in live.events if ev.idx >= first]
    first_id = next((ev.dma_id for ev in window if ev.kind == "dma_issue"), 0)
    rebased = [replace(ev, cycle=ev.cycle - start, idx=ev.idx - first,
                       until=None if ev.until is None else ev.until - start,
                       dma_id=None if ev.dma_id is None else ev.dma_id - first_id)
               for ev in window]
    assert events_to_jsonl(rebased) == events_to_jsonl(replayed.events)
    assert rep.cycles == session.state.cycle - start
    return rep


FAULTING_TIMELINES = [pytest.param(kind, src, id=kind)
                      for kind, src in FAULTING_WINDOWS.items()] + [
    # the second issue waits out a hazard on the first DMA's destination,
    # then finds its slot busy: it must neither wait nor land that DMA
    pytest.param("dma_busy", """
      s_ldi s1, 0x1000
      s_ldi s2, 0x200
      s_ldi s3, 64
      dma_issue 0, hbm>vmem, s1, s2, s3
      dma_issue 0, hbm>vmem, s1, s2, s3
      halt
    """, id="dma_busy-after-hazard"),
    # runs off the program's end with a DMA still in flight
    pytest.param("pc_oob", """
      s_ldi s1, 0x1000
      s_ldi s2, 0x200
      s_ldi s3, 64
      dma_issue 0, hbm>vmem, s1, s2, s3
      s_add s4, s1, s2
    """, id="pc_oob"),
]


@pytest.mark.parametrize("kind,src", FAULTING_TIMELINES)
def test_replay_reproduces_a_faulting_windows_timeline(kind, src):
    """A window that ends in a fault: the replay's events and cycles are
    the live window's, and so are its footprint and digest."""
    config = SimConfig()
    kernel = assemble(src)
    live = RecordingTracker()
    session = Simulator(kernel.program, config, initial_state(kernel, config), live)
    res = record(session, None, 10)
    assert res.fault.kind == kind
    rep = _assert_replay_reproduces_the_timeline(session, live, res, config)
    assert compare_window(session.state, res, rep)["equal"] is True
