"""Shared test scaffolding: assemble-and-run in one call, register
constructors, random kernels that stall on hazards, and the queries only
tests make of a kernel, a dependency graph, HBM, a utilization series and
the event kinds."""

from __future__ import annotations

import random
from functools import partial
from typing import List, Optional, Tuple

from hypothesis import strategies as st

from xshark.debugger import DebugSession
from xshark.isa import RegClass, RegisterId
from xshark.sim import (EVENT_FIELDS, NullTracker, RecordingTracker, SimConfig,
                        run_program)
from xshark.workloads import assemble, gen_random_kernel, initial_state
from xshark.workloads.kernels import _RK_DMADST, _RK_HBM_DATA

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


def hazard_kernel(seed: int, size: int) -> str:
    """gen_random_kernel(seed, size=size) with hazards: a v_load or v_store
    (drawn from `seed`) on the page where a DMA's VMEM destination starts,
    right after each DMA_ISSUE to VMEM, and after one such DMA (slot 12,
    which the generator leaves free) put after the prologue. Each issues
    while its transfer is in flight, so the hazard interlock stalls it;
    gen_random_kernel's own text almost never stalls on a hazard."""
    rng = random.Random(seed)

    # the generator sets s24 right before each use, so touch may clobber it
    def touch(dst: int) -> list:
        vreg = f"v{rng.randrange(14)}"
        return [f"  s_ldi s24, {dst - dst % 64}",
                "  " + rng.choice([f"v_load {vreg}, [s24]", f"v_store [s24], {vreg}"])]

    lines, dst = [], None
    for line in gen_random_kernel(seed, size=size).text.splitlines():
        lines.append(line)
        words = line.replace(",", " ").split()
        if words == ["s_ldi", "s27", "64"]:             # the prologue's last line
            first = _RK_DMADST + rng.randrange(0x4000)
            lines += [f"  s_ldi s25, {_RK_HBM_DATA}", f"  s_ldi s26, {first}",
                      "  s_ldi s23, 64", "  dma_issue 12, hbm>vmem, s25, s26, s23",
                      *touch(first), "  dma_wait 12"]
        elif words[:2] == ["s_ldi", "s26"]:
            dst = int(words[2], 0)
        elif words[:1] == ["dma_issue"] and words[2].endswith(">vmem"):
            lines += touch(dst)
    return "\n".join(lines) + "\n"


def random_kernels(sizes) -> st.SearchStrategy:
    """Strategy: the text of a random kernel of a size drawn from `sizes`,
    from gen_random_kernel or, as often, from hazard_kernel."""
    seeds = st.integers(0, 10_000)
    return st.one_of(
        st.builds(lambda seed, size: gen_random_kernel(seed, size=size).text,
                  seeds, sizes),
        st.builds(hazard_kernel, seeds, sizes))


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
