"""Shared test scaffolding: assemble-and-run in one call."""

from __future__ import annotations

from xshark.debugger import DebugSession
from xshark.sim import NullTracker, RecordingTracker, SimConfig, run_program
from xshark.workloads import assemble, initial_state


def mk_config(**over) -> SimConfig:
    base = SimConfig().to_json()
    base.update(over)
    return SimConfig.from_json(base)


def asm_state(src: str, config: SimConfig):
    kernel = assemble(src)
    return kernel, initial_state(kernel, config)


def asm_run(src: str, config: SimConfig = None, record_events: bool = True,
            max_cycles: int = 10_000_000):
    config = config or SimConfig()
    kernel, state = asm_state(src, config)
    tracker = RecordingTracker() if record_events else NullTracker()
    result = run_program(kernel.program, config, state, tracker, max_cycles)
    return kernel, result, tracker


def asm_session(src: str, config: SimConfig = None, tracker=None):
    config = config or SimConfig()
    kernel, state = asm_state(src, config)
    return kernel, DebugSession(kernel.program, config, state, tracker)
