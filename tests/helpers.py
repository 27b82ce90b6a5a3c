"""Shared test scaffolding: assemble-and-run in one call, register
constructors, and the queries only tests make of a kernel, a dependency
graph, HBM, a utilization series and the event kinds."""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from xshark.debugger import DebugSession
from xshark.isa import RegClass, RegisterId
from xshark.sim import (EVENT_FIELDS, NullTracker, RecordingTracker, SimConfig,
                        run_program)
from xshark.workloads import assemble, initial_state

EVENT_KINDS = frozenset(EVENT_FIELDS)     # every kind an event log may hold

sreg = partial(RegisterId, RegClass.SCALAR)
vreg = partial(RegisterId, RegClass.VECTOR)
preg = partial(RegisterId, RegClass.PREDICATE)


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


def region_of(kernel, pc: int) -> Optional[str]:
    """The name of the `;; region` of an AssembledKernel that holds pc."""
    for name, start, end in kernel.regions:
        if start <= pc < end:
            return name
    return None


def earliest_position(graph, idx: int, relaxed: bool = False) -> int:
    """Dependency-only earliest stream position of instruction idx in a
    DependencyGraph (no hazard clamps); chain members do not bound their
    own DMA in the relaxed model."""
    chain = set(graph.chains.get(idx, ())) if relaxed else set()
    deps = [e.producer for e in graph.edges_of(idx, relaxed)
            if e.producer not in chain]
    return 1 + max(deps) if deps else 0


def bucket_samples(series) -> List[Tuple[int, float]]:
    """(bucket start cycle, busy fraction) per bucket of a
    UtilizationSeries."""
    w = series.bucket_width
    return [(c, f) for a, b, f in series.runs for c in range(a, b, w)]


def backed_bytes(hbm) -> int:
    """The bytes of the pages a SparseBytes has backed."""
    return len(hbm._pages) * hbm.PAGE
