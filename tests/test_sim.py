"""Simulator semantics: cycle accounting, DMA engine timing vs the oracle,
tracker transparency, determinism, faults."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.analyzer import analyze_dma
from xshark.isa import Fault, MemRegion, MemSpace
from xshark.sim import (NullTracker, RecordingTracker, SimConfig, Simulator,
                        events_from_jsonl, events_to_jsonl,
                        run_program, state_digest,
                        STALL_DMA_BASE, STALL_DMA_TRANSFER, STALL_HAZARD)
from xshark.workloads import assemble, gen_random_kernel, initial_state

from helpers import asm_run, asm_state, mk_config
from oracles import dma_oracle, event_json


def test_sldi_takes_one_cycle():
    _, result, tracker = asm_run("s_ldi s0, 7\nhalt\n")
    assert result.state.sregs[0] == 7
    assert analyze_dma(tracker.events) == []
    # S_LDI retires at cycle 1; HALT consumes one more
    assert result.cycles == 2


def test_scalar_wrapping_and_compare():
    src = """
      s_ldi s0, -1
      s_ldi s1, 2
      s_mul s2, s0, s1
      s_cmp p0, s2, s1, lt
      halt
    """
    _, result, _ = asm_run(src)
    assert result.state.sregs[2] == 0xFFFFFFFE      # -2 wrapped
    assert result.state.pregs[0] == 1               # -2 < 2 signed


def test_vector_add_f32():
    src = """
      .vdataf 0x0: 1.5 2.5 -3.0 4.0 0 0 0 0 0 0 0 0 0 0 0 0
      .vdataf 0x40: 0.5 0.5 1.0 -1.0 0 0 0 0 0 0 0 0 0 0 0 0
      s_ldi s0, 0
      s_ldi s1, 64
      v_load v0, [s0]
      v_load v1, [s1]
      v_add v2, v0, v1
      halt
    """
    _, result, _ = asm_run(src)
    lanes = struct.unpack_from("<16f", result.state.vregs, 2 * 64)
    assert lanes[:4] == (2.0, 3.0, -2.0, 3.0)


def test_lane_extract():
    src = """
      .vdata32 0x0: 0x11 0x22 0x33 0x44
      s_ldi s0, 0
      v_load v0, [s0]
      s_mov s1, v0, 2
      halt
    """
    _, result, _ = asm_run(src)
    assert result.state.sregs[1] == 0x33


def test_mxu_accumulates_into_dst_tile():
    # a = I (first two diag entries), b has known first row
    src = """
      .vdataf 0x400: 1.0
      .vdataf 0x444: 1.0
      .vdataf 0x800: 3.0 4.0
      .vdataf 0x840: 5.0 6.0
      s_ldi s0, 0
      s_ldi s1, 0x400
      s_ldi s2, 0x800
      mxu_mm s0, s1, s2
      mxu_mm s0, s1, s2
      halt
    """
    _, result, _ = asm_run(src)
    d = struct.unpack_from("<4f", result.state.vmem, 0)[:2]
    d2 = struct.unpack_from("<2f", result.state.vmem, 64)
    # dst += I @ b, twice
    assert d == (6.0, 8.0)
    assert d2 == (10.0, 12.0)


# ------------------------------------------------------------- DMA timing

DMA_SRC = """
  .data 0x1000: {bytes}
  s_ldi s0, 0x1000
  s_ldi s1, 0x200
  s_ldi s2, 256
  dma_issue 0, hbm>vmem, s0, s1, s2
  s_ldi s3, 1
  dma_wait 0
  halt
"""


def test_dma_wait_stall_classic_case():
    """issue at c, wait at c+2, T_b=100, bw=32, 256 B: stall 106, done c+108."""
    src = DMA_SRC.format(bytes=" ".join(f"{i % 256:02x}" for i in range(16)))
    _, result, tracker = asm_run(src)
    (x,) = analyze_dma(tracker.events)
    c = x.issue_cycle
    assert x.base_done_cycle == c + 100
    assert x.complete_cycle == c + 108
    assert x.wait_cycle == c + 2
    assert result.stall_cycles[STALL_DMA_BASE] == 98
    assert result.stall_cycles[STALL_DMA_TRANSFER] == 8
    stalls = [e for e in tracker.events if e.kind == "stall_begin"]
    ends = [e for e in tracker.events if e.kind == "stall_end"]
    assert stalls[0].cycle == c + 2 and ends[-1].cycle == c + 108
    assert sum(e2.cycle - e1.cycle for e1, e2 in zip(stalls, ends)) == 106
    # destination bytes visible after completion
    assert result.state.vmem[0x200:0x210] == bytes(i % 256 for i in range(16))


def test_dma_timeline_matches_oracle_two_on_one_link():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 256
      s_ldi s4, 0x2000
      s_ldi s5, 0x400
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_issue 1, hbm>vmem, s4, s5, s2
      dma_wait 0
      dma_wait 1
      halt
    """
    _, result, tracker = asm_run(src)
    a, b = analyze_dma(tracker.events)
    oracle = dma_oracle(
        [{"issue_cycle": a.issue_cycle, "link": "hbm>vmem", "size": 256,
          "wait_cycle": a.wait_cycle},
         {"issue_cycle": b.issue_cycle, "link": "hbm>vmem", "size": 256,
          "wait_cycle": b.wait_cycle}], t_base=100, bandwidth=32)
    assert b.transfer_start_cycle == a.complete_cycle   # link serialization
    for got, want in zip((a, b), oracle):
        assert got.base_done_cycle == want.base_done
        assert got.transfer_start_cycle == want.transfer_start
        assert got.complete_cycle == want.complete


def test_three_parallel_dmas_base_latencies_overlap():
    src = """
      s_ldi s2, 64
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s3, 0x2000
      s_ldi s4, 0x400
      s_ldi s5, 0x3000
      s_ldi s6, 0x600
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_issue 1, hbm>vmem, s3, s4, s2
      dma_issue 2, hbm>vmem, s5, s6, s2
      dma_wait 0
      dma_wait 1
      dma_wait 2
      halt
    """
    _, result, tracker = asm_run(src)
    records = analyze_dma(tracker.events)
    bds = [x.base_done_cycle for x in records]
    assert max(bds) - min(bds) <= 3
    starts = sorted((x.transfer_start_cycle, x.complete_cycle)
                    for x in records)
    for (s1_, e1), (s2_, _) in zip(starts, starts[1:]):
        assert s2_ >= e1                                 # transfers disjoint


def test_dma_base_latency_constancy_property():
    _, result, tracker = asm_run(DMA_SRC.format(bytes="00"), mk_config(t_base=37))
    (x,) = analyze_dma(tracker.events)
    assert x.base_done_cycle - x.issue_cycle == 37


def test_wait_after_complete_is_slack():
    filler = "\n".join("  s_add s3, s3, s3" for _ in range(150))
    src = f"""
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      s_ldi s3, 1
{filler}
      dma_wait 0
      halt
    """
    _, result, tracker = asm_run(src)
    (x,) = analyze_dma(tracker.events)
    assert x.wait_cycle > x.complete_cycle
    assert result.total_stall == 0


def test_dma_size_zero_faults_at_issue():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 0
      dma_issue 0, hbm>vmem, s0, s1, s2
      halt
    """
    _, result, _ = asm_run(src)
    assert result.outcome == "fault"
    assert result.fault.kind == "dma_empty"


def test_wait_on_idle_slot_faults():
    _, result, _ = asm_run("dma_wait 3\nhalt\n")
    assert result.outcome == "fault" and result.fault.kind == "dma_wait_idle"


def test_reissue_on_busy_slot_faults():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_issue 0, hbm>vmem, s0, s1, s2
      halt
    """
    _, result, _ = asm_run(src)
    assert result.outcome == "fault" and result.fault.kind == "dma_busy"


def test_touching_inflight_destination_stalls_as_hazard():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      v_load v0, [s1]
      dma_wait 0
      halt
    """
    _, result, tracker = asm_run(src)
    assert result.stall_cycles[STALL_HAZARD] > 90
    (x,) = analyze_dma(tracker.events)
    assert x.wait_cycle > x.complete_cycle      # the wait then sees slack


_IN_FLIGHT_SRC = """
  .data 0x1000: 01 02 03 04
  s_ldi s0, 0x1000
  s_ldi s1, 0x200
  s_ldi s2, 64
  dma_issue 0, hbm>vmem, s0, s1, s2
  v_load v0, [s1]
  dma_wait 0
  halt
"""


def test_simulator_built_on_a_dma_in_flight_interlocks_and_lands_it():
    """A state can reach a new Simulator with a DMA in flight: the v_load
    then still waits for it and reads the bytes it lands."""
    _, whole, _ = asm_run(_IN_FLIGHT_SRC)
    kernel, state = asm_state(_IN_FLIGHT_SRC, SimConfig())
    first = Simulator(kernel.program, SimConfig(), state)
    for _ in range(4):
        assert first.step() is None
    assert state.dma_slots[0].active and not state.dma_slots[0].applied
    rest = Simulator(kernel.program, SimConfig(), state).run(10 ** 6)
    assert rest.stall_cycles == whole.stall_cycles
    assert rest.state.vregs[:4] == bytes([1, 2, 3, 4])
    assert state_digest(rest.state) == state_digest(whole.state)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(20, 120),
       tracked=st.booleans(), data=st.data())
def test_a_run_another_simulator_finishes_is_one_run(seed, size, tracked, data):
    """Simulator A steps a random kernel to a split point, at a step that
    leaves a transfer in flight when there is one; simulator B, built over
    A's state, runs to the end. Together they take the cycles and stalls,
    and leave the state, of one uninterrupted run."""
    config = SimConfig()
    kernel = assemble(gen_random_kernel(seed, size=size).text)
    whole = run_program(kernel.program, config, initial_state(kernel, config))

    def stepped(steps):
        a = Simulator(kernel.program, config, initial_state(kernel, config),
                      RecordingTracker() if tracked else None)
        in_flight = []
        for k in range(steps):
            assert a.step() is None
            if any(s.active and not s.applied for s in a.state.dma_slots):
                in_flight.append(k + 1)
        return a, in_flight

    _, in_flight = stepped(whole.executed)
    a, _ = stepped(data.draw(st.sampled_from(in_flight or range(whole.executed + 1))))
    b = Simulator(kernel.program, config, a.state).run(10_000_000)
    assert b.outcome == "halted" and b.cycles == whole.cycles
    assert {reason: a.stall_cycles[reason] + b.stall_cycles[reason]
            for reason in whole.stall_cycles} == whole.stall_cycles
    assert state_digest(b.state) == state_digest(whole.state)


def test_budget_exhaustion_distinct_from_fault():
    src = """
      s_ldi s0, 1
      top:
      s_add s0, s0, s0
      br top
    """
    _, result, _ = asm_run(src, max_cycles=500)
    assert result.outcome == "budget"
    assert result.fault is None


def test_pc_off_end_is_fault():
    _, result, _ = asm_run("s_ldi s0, 1\n")
    assert result.outcome == "fault" and result.fault.kind == "pc_oob"


# --------------------------------------------------- tracker & determinism

LOOPY = """
  .data 0x1000: aa bb cc dd
  s_ldi s0, 3
  s_ldi s9, -1
  s_ldi s8, 0
  top:
  s_ldi s1, 0x1000
  s_ldi s2, 0x200
  s_ldi s3, 100
  dma_issue 2, hbm>vmem, s1, s2, s3
  dma_wait 2
  s_add s0, s0, s9
  s_cmp p0, s0, s8, le
  brz p0, top
  halt
"""


def test_tracker_transparency():
    cfg = SimConfig()
    _, with_tracker, _ = asm_run(LOOPY, cfg, record_events=True)
    _, without, _ = asm_run(LOOPY, cfg, record_events=False)
    assert state_digest(with_tracker.state) == state_digest(without.state)
    assert with_tracker.cycles == without.cycles


def test_run_determinism_byte_identical_logs():
    _, r1, t1 = asm_run(LOOPY)
    _, r2, t2 = asm_run(LOOPY)
    s1 = events_to_jsonl(t1.events, {"digest": state_digest(r1.state)})
    s2 = events_to_jsonl(t2.events, {"digest": state_digest(r2.state)})
    assert s1 == s2


def test_event_cycles_nondecreasing_and_jsonl_round_trip():
    _, result, tracker = asm_run(LOOPY)
    cycles = [e.cycle for e in tracker.events]
    assert cycles == sorted(cycles)
    text = events_to_jsonl(tracker.events, {"cycles": result.cycles})
    events, summary = events_from_jsonl(text)
    assert summary["cycles"] == result.cycles
    assert len(events) == len(tracker.events)
    assert all(event_json(a) == event_json(b) for a, b in zip(events, tracker.events))


def test_unit_busy_intervals_disjoint_per_unit():
    _, result, tracker = asm_run(LOOPY)
    per_unit = {}
    for e in tracker.events:
        if e.kind == "unit_busy":
            per_unit.setdefault(e.unit, []).append((e.cycle, e.until))
    total = 0
    for unit, spans in per_unit.items():
        spans.sort()
        for (a1, b1), (a2, _) in zip(spans, spans[1:]):
            assert a2 >= b1, f"{unit} busy intervals overlap"
        total += sum(b - a for a, b in spans)
    assert total <= result.cycles * len(per_unit)


def test_stall_partition_identity_vs_oracle():
    """For every DMA: stall = max(0, complete - wait), split at base_done."""
    for t_base, size in [(100, 256), (20, 64), (7, 512)]:
        cfg = mk_config(t_base=t_base)
        src = DMA_SRC.format(bytes="01 02")
        _, result, tracker = asm_run(src, cfg)
        (x,) = analyze_dma(tracker.events)
        (o,) = dma_oracle([{"issue_cycle": x.issue_cycle, "link": x.link,
                            "size": x.size, "wait_cycle": x.wait_cycle}],
                          t_base=t_base, bandwidth=32)
        assert result.stall_cycles[STALL_DMA_BASE] == o.stall_base
        assert result.stall_cycles[STALL_DMA_TRANSFER] == o.stall_transfer
        assert x.complete_cycle == o.complete
