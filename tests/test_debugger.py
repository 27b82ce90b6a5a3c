"""Breakpoints, stepping, and read purity."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.isa import Fault, MemRegion, MemSpace, Opcode
from xshark.sim import (Breakpoint, RecordingTracker, SimConfig, Simulator,
                        state_digest)
from xshark.workloads import assemble, gen_random_kernel, initial_state

import oracles
from helpers import asm_run, asm_session, mk_config, sreg

COUNTDOWN = """
  s_ldi s0, 5
  s_ldi s9, -1
  s_ldi s8, 0
  top:
  s_add s0, s0, s9
  s_cmp p0, s0, s8, le
  brz p0, top
  halt
"""


def test_breakpoint_at_entry_breaks_before_first_instruction():
    _, session = asm_session(COUNTDOWN)
    assert session.run_to(Breakpoint(0)) == "hit"
    assert session.state.pc == 0 and session.state.cycle == 0


def test_breakpoint_hit_count_breaks_on_nth_iteration():
    kernel, session = asm_session(COUNTDOWN)
    body = kernel.labels["top"]
    assert session.run_to(Breakpoint(body, hit_count_target=3)) == "hit"
    assert session.state.pc == body
    # counter decremented twice before the third arrival at the loop head
    assert session.state.sregs[0] == 3

    # cross-check: count retire events at that pc in a plain run
    _, _, tracker = asm_run(COUNTDOWN)
    retires = [e for e in tracker.events
               if e.kind == "instr_retire" and e.pc == body]
    assert len(retires) >= 3


def test_unreachable_breakpoint_runs_to_halt():
    kernel, session = asm_session(COUNTDOWN)
    halt_pc = len(kernel.program) - 1
    assert session.run_to(Breakpoint(halt_pc - 1, hit_count_target=99)) == "halted"
    assert session.state.halted


def test_out_of_bounds_breakpoint_rejected():
    _, session = asm_session(COUNTDOWN)
    with pytest.raises(Fault) as exc:
        session.run_to(Breakpoint(1000))
    assert exc.value.kind == "bp_oob"
    assert session.state.cycle == 0 and session.stream_index == 0


def test_breakpoint_without_a_program_rejected():
    """A simulator built without a program, as a replay's is, has no pc a
    breakpoint can name."""
    config = SimConfig()
    session = Simulator(None, config, config.make_state())
    with pytest.raises(Fault) as exc:
        session.run_to(Breakpoint(0))
    assert exc.value.kind == "bp_oob"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(10, 80),
       at=st.integers(0, 10 ** 6), hits=st.integers(1, 6),
       max_cycles=st.one_of(st.integers(-2, 3000), st.just(10_000_000)))
def test_run_to_matches_the_step_loop(seed, size, at, hits, max_cycles):
    """run_to, on run's loop, ends as the loop over step() ends, twice in a
    row: the same outcome, pc, cycle, stream index, state and events."""
    config = SimConfig()
    kernel = assemble(gen_random_kernel(seed, size=size).text)
    bp = Breakpoint(at % len(kernel.program), hits)
    ends = []
    for run_to in (oracles.run_to_by_steps, Simulator.run_to):
        tracker = RecordingTracker()
        session = Simulator(kernel.program, config, initial_state(kernel, config),
                            tracker)
        end = []
        for target in (bp, Breakpoint(bp.pc, hits + 1)):
            state = session.state
            end.append((run_to(session, target, max_cycles), state.pc, state.cycle,
                        session.stream_index, state_digest(state),
                        list(tracker.events)))
        ends.append(end)
    assert ends[1] == ends[0]


def test_step_returns_decoded_instruction_before_executing():
    kernel, session = asm_session(COUNTDOWN)
    nxt = session.peek()
    assert nxt is kernel.program.instructions[0]
    assert session.state.pc == 0
    assert session.step() is None
    assert session.state.pc == 1 and session.stream_index == 1
    assert session.state.sregs[0] == 5


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), size=st.integers(10, 120), ones=st.booleans())
def test_each_step_executes_exactly_one_instruction(seed, size, ones):
    """step() is run's loop with one cycle's budget, which is one step
    because every instruction takes at least one cycle: each step advances
    stream_index by exactly one until the machine halts or faults, under the
    default config and with every latency and t_base at 1."""
    config = (mk_config(t_base=1, unit_latency=dict.fromkeys(
        SimConfig().unit_latency, 1)) if ones else SimConfig())
    kernel = assemble(gen_random_kernel(seed, size=size).text)
    session = Simulator(kernel.program, config, initial_state(kernel, config))
    state = session.state
    while not state.halted:
        before = session.stream_index
        fault = session.step()
        assert session.stream_index == before + (fault is None)
        assert fault is None or state.halted
    executed = session.stream_index
    assert session.step() is None and session.stream_index == executed


def test_step_at_halt_reports_halted():
    _, session = asm_session("halt\n")
    session.step()
    assert session.state.halted
    before = (session.state.cycle, session.state.pc, session.stream_index)
    assert session.step() is None
    assert (session.state.cycle, session.state.pc, session.stream_index) == before
    assert session.peek() is None


def test_reads_are_pure():
    _, session = asm_session(COUNTDOWN)
    session.step()
    baseline = state_digest(copy.deepcopy(session.state))
    state = session.state
    for _ in range(4):
        state.read_reg_bytes(sreg(0))
        state.read_mem(MemRegion(MemSpace.VMEM, 0, 64))
        state.read_mem(MemRegion(MemSpace.HBM, 0x5000, 128))
    assert state_digest(session.state) == baseline
    with pytest.raises(Fault):
        state.read_mem(MemRegion(MemSpace.VMEM, state.vmem_capacity - 32, 64))


def test_reset_state_reads_zeroed():
    _, session = asm_session(COUNTDOWN)
    assert session.state.read_mem(MemRegion(MemSpace.VMEM, 0, 64)) == bytes(64)
    assert session.state.read_reg_bytes(sreg(7)) == bytes(4)


def test_break_then_step_composes_with_plain_run():
    kernel, session = asm_session(COUNTDOWN)
    assert session.run_to(Breakpoint(kernel.labels["top"], hit_count_target=2)) == "hit"
    for _ in range(3):
        session.step()
    # a plain run truncated after the same dynamic instruction count
    _, ref_session = asm_session(COUNTDOWN)
    for _ in range(session.stream_index):
        ref_session.step()
    assert state_digest(ref_session.state) == state_digest(session.state)
