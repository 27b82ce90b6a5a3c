"""Curated kernels and a random-kernel generator.

gen_allgather_kernel     collective with a 9-DMA metadata setup phase
                         (3 groups x (1 initial + 2 dependent)) feeding a
                         data-transfer phase; `pinned` keeps the node
                         addresses resident in VMEM, `parallel_setup`
                         overlaps the setup base latencies.
gen_starvation_kernel    DMA->WAIT->matmul chain that starves the MXU at
                         prefetch_depth=1 and software-pipelines at higher
                         depths.
gen_checkerboard_kernel  touches every other VMEM page (worst-case
                         fragmentation pattern).
gen_random_kernel        seeded, always-terminating fuzz kernels covering
                         the whole ISA; property-test fuel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..isa import PAGE_BYTES, DEFAULT_VMEM_CAPACITY

# ---------------------------------------------------------------- all-gather

_AG_META = 0x10000       # HBM: per-group metadata page (dep page addresses)
_AG_DEP = 0x20000        # HBM: dep pages (node addresses)
_AG_NODE = 0x100000      # HBM: remote-node destination windows
_AG_VMETA = 0x0000       # VMEM: landed group metadata
_AG_VDEP = 0x1000        # VMEM: landed node-address pages
_AG_LOCAL = 0x2000       # VMEM: local shard (preloaded)
_AG_SEND = 0x8000        # VMEM: send staging buffers
_AG_GROUPS = 3           # metadata groups
_AG_DEPS = 2             # dependent node-address pages per group
_AG_ADDR_BYTES = 64      # bytes of one node-address DMA
_AG_PAYLOAD = 1024       # bytes sent to each node
_AG_COMPUTE = 2          # vector ops per payload page


def gen_allgather_kernel(pinned: bool = False, parallel_setup: bool = False) -> str:
    """All-gather analog. Baseline: 9 serialized setup DMAs (stall-dominated
    by base latency) then the data phase. Tuned so the baseline spends
    roughly 40% of its cycles stalled under the default config."""
    groups, deps_per_group, payload_bytes = _AG_GROUPS, _AG_DEPS, _AG_PAYLOAD
    nxfer = groups * deps_per_group
    L = []
    emit = L.append
    emit(f"; all-gather analog: groups={groups} deps={deps_per_group} "
         f"payload={payload_bytes} pinned={pinned} parallel={parallel_setup}")
    # HBM images: group meta pages point at dep pages; dep pages hold the
    # node destination addresses.
    for g in range(groups):
        deps = [ _AG_DEP + (g * deps_per_group + j) * 0x1000
                 for j in range(deps_per_group)]
        emit(f".data32 {hex(_AG_META + g * 0x1000)}: " + " ".join(map(hex, deps)))
    for k in range(nxfer):
        node = _AG_NODE + k * payload_bytes
        if pinned:
            emit(f".vdata32 {hex(_AG_VDEP + k * PAGE_BYTES)}: {hex(node)}")
        else:
            emit(f".data32 {hex(_AG_DEP + k * 0x1000)}: {hex(node)}")
    emit(f".vdataf {hex(_AG_LOCAL)}: " + " ".join(f"{v}.5" for v in range(16)))

    if not pinned:
        emit(";; hlo: ag.setup")
        emit(f"  s_ldi s2, {_AG_ADDR_BYTES}")
        if not parallel_setup:
            for g in range(groups):
                emit(f"  s_ldi s0, {hex(_AG_META + g * 0x1000)}")
                emit(f"  s_ldi s1, {hex(_AG_VMETA + g * PAGE_BYTES)}")
                emit("  dma_issue 0, hbm>vmem, s0, s1, s2")
                emit("  dma_wait 0")
                emit("  v_load v0, [s1]")
                for j in range(deps_per_group):
                    k = g * deps_per_group + j
                    emit(f"  s_mov s3, v0, {j}")
                    emit(f"  s_ldi s4, {hex(_AG_VDEP + k * PAGE_BYTES)}")
                    emit("  dma_issue 0, hbm>vmem, s3, s4, s2")
                    emit("  dma_wait 0")
        else:
            for g in range(groups):
                emit(f"  s_ldi s{4 + 2 * g}, {hex(_AG_META + g * 0x1000)}")
                emit(f"  s_ldi s{5 + 2 * g}, {hex(_AG_VMETA + g * PAGE_BYTES)}")
            for g in range(groups):
                emit(f"  dma_issue {g}, hbm>vmem, s{4 + 2 * g}, s{5 + 2 * g}, s2")
            for g in range(groups):
                emit(f"  dma_wait {g}")
            for g in range(groups):
                emit(f"  v_load v{g}, [s{5 + 2 * g}]")
            for g in range(groups):
                for j in range(deps_per_group):
                    k = g * deps_per_group + j
                    emit(f"  s_mov s{10 + k}, v{g}, {j}")
                    emit(f"  s_ldi s{16 + k}, {hex(_AG_VDEP + k * PAGE_BYTES)}")
            for k in range(nxfer):
                emit(f"  dma_issue {k}, hbm>vmem, s{10 + k}, s{16 + k}, s2")
            for k in range(nxfer):
                emit(f"  dma_wait {k}")

    emit(";; hlo: ag.data")
    emit(f"  s_ldi s2, {payload_bytes}")
    emit("  s_ldi s12, 64")
    emit(f"  s_ldi s13, {hex(_AG_LOCAL)}")
    emit("  v_load v3, [s13]")
    pages = payload_bytes // PAGE_BYTES
    for k in range(nxfer):
        emit(f"  s_ldi s5, {hex(_AG_VDEP + k * PAGE_BYTES)}")
        emit("  v_load v1, [s5]")
        emit("  s_mov s6, v1, 0")
        emit(f"  s_ldi s7, {hex(_AG_LOCAL)}")
        emit(f"  s_ldi s8, {hex(_AG_SEND + k * payload_bytes)}")
        for _ in range(pages):
            emit("  v_load v2, [s7]")
            for c in range(_AG_COMPUTE):
                emit("  v_add v2, v2, v3" if c % 2 == 0 else "  v_mul v2, v2, v3")
            emit("  v_store [s8], v2")
            emit("  s_add s7, s7, s12")
            emit("  s_add s8, s8, s12")
        emit(f"  s_ldi s9, {hex(_AG_SEND + k * payload_bytes)}")
        emit(f"  dma_issue {k}, vmem>hbm, s9, s6, s2")
    for k in range(nxfer):
        emit(f"  dma_wait {k}")
    emit("  halt")
    return "\n".join(L) + "\n"


# --------------------------------------------------------------- starvation

_MM_ACC1 = 0x0000
_MM_ACC2 = 0x0400
_MM_B1 = 0x0800
_MM_B2 = 0x0C00
_MM_A = 0x1000
_MM_A_HBM = 0x40000
_MM_B_HBM = 0x80000


def gen_starvation_kernel(tiles: int = 32, prefetch_depth: int = 1) -> str:
    """Matmul chain fed by per-tile DMAs.

    Every tile gets its own VMEM buffer and a round-robin slot, so issuing
    earlier is always legal up to the 8-way address-register rotation;
    prefetch_depth=1 waits on each transfer immediately (the starved
    baseline), larger depths software-pipeline by hand.
    """
    assert tiles >= 1 and 1 <= prefetch_depth <= 8
    L = []
    emit = L.append
    emit(f"; starvation analog: tiles={tiles} depth={prefetch_depth}")
    for i in range(tiles):
        vals = " ".join(f"{(i + 1) * 0.25 + j}" for j in range(16))
        emit(f".dataf {hex(_MM_A_HBM + i * 1024)}: {vals}")
    emit(f".dataf {hex(_MM_B_HBM)}: " + " ".join(f"{1.0 + j * 0.5}" for j in range(16)))
    emit(f".dataf {hex(_MM_B_HBM + 1024)}: " + " ".join(f"{2.0 - j * 0.25}" for j in range(16)))

    emit(";; hlo: mm.init")
    emit("  s_ldi s16, 1024")
    emit(f"  s_ldi s17, {hex(_MM_ACC1)}")
    emit(f"  s_ldi s20, {hex(_MM_ACC2)}")
    emit(f"  s_ldi s18, {hex(_MM_B1)}")
    emit(f"  s_ldi s19, {hex(_MM_B2)}")
    emit(f"  s_ldi s21, {hex(_MM_B_HBM)}")
    emit("  dma_issue 14, hbm>vmem, s21, s18, s16")
    emit(f"  s_ldi s22, {hex(_MM_B_HBM + 1024)}")
    emit("  dma_issue 15, hbm>vmem, s22, s19, s16")
    emit("  dma_wait 14")
    emit("  dma_wait 15")

    emit(";; hlo: mm.pipe")

    def addr_pair(i):
        emit(f"  s_ldi s{i % 8}, {hex(_MM_A_HBM + i * 1024)}")
        emit(f"  s_ldi s{8 + i % 8}, {hex(_MM_A + i * 1024)}")

    def issue(i):
        emit(f"  dma_issue {i % 14}, hbm>vmem, s{i % 8}, s{8 + i % 8}, s16")

    depth = min(prefetch_depth, tiles)
    for i in range(depth):
        addr_pair(i)
        issue(i)
    for i in range(tiles):
        emit(f"  dma_wait {i % 14}")
        emit(f"  mxu_mm s17, s{8 + i % 8}, s18")
        emit(f"  mxu_mm s20, s{8 + i % 8}, s19")
        nxt = i + depth
        if nxt < tiles:
            addr_pair(nxt)
            issue(nxt)
    emit("  halt")
    return "\n".join(L) + "\n"


# -------------------------------------------------------------- checkerboard

def gen_checkerboard_kernel() -> str:
    """Writes every other VMEM page: total free stays at exactly 50% while
    the largest contiguous free run is a single page."""
    L = ["; checkerboard allocation: every other page written",
         "  s_ldi s0, 0",
         "  s_ldi s1, 128",
         f"  s_ldi s2, {DEFAULT_VMEM_CAPACITY}",
         "top:",
         "  v_store [s0], v0",
         "  s_add s0, s0, s1",
         "  s_cmp p0, s0, s2, ge",
         "  brz p0, top",
         "  halt"]
    return "\n".join(L) + "\n"


# -------------------------------------------------------------- random fuzz

@dataclass
class GeneratedKernel:
    text: str
    estimated_max_cycles: int


_RK_VPAGES = 0x0000      # 64-aligned vector load/store pool
_RK_TILES = 0x10000      # MXU tile pool
_RK_DMADST = 0x20000     # DMA destination pool (VMEM)
_RK_META = 0x30000       # metadata pages for the DMA-address pattern
_RK_HBM_DATA = 0x1000    # initialized HBM blob
_RK_HBM_POOL = 0x200000  # DMA src/dst pool (HBM)
_RK_DMA_DENSITY = 0.08   # share of steps that issue a DMA


def gen_random_kernel(seed: int, size: int = 200) -> GeneratedKernel:
    """Seeded random kernel: always terminates, never faults, and across
    seeds exercises every opcode, addressing form and DMA direction."""
    rng = random.Random(seed)
    L = []
    emit = L.append
    emit(f"; random kernel seed={seed} size={size}")
    emit(f".data32 {hex(_RK_HBM_DATA)}: " +
         " ".join(hex(rng.getrandbits(32)) for _ in range(32)))
    emit(f".dataf {hex(_RK_HBM_DATA + 128)}: " +
         " ".join(f"{rng.uniform(-4, 4):.3f}" for _ in range(16)))
    meta_vmem = _RK_META
    emit(f".vdata32 {hex(meta_vmem)}: " +
         " ".join(hex(_RK_HBM_POOL + 0x1000 * j) for j in range(8)))

    count = 0
    executed = 0

    def op(text, cost=1):
        nonlocal count, executed
        emit("  " + text)
        count += 1
        executed += cost

    # constants
    op("s_ldi s28, 0")
    op("s_ldi s29, -1")
    op("s_ldi s27, 64")

    slots_busy: dict = {}        # slot -> countdown to WAIT
    n_dmas = 0

    def rand_sreg():
        return f"s{rng.randrange(0, 24)}"

    def rand_vreg():
        return f"v{rng.randrange(0, 14)}"

    def guard():
        if rng.random() < 0.25:
            p = rng.randrange(0, 6)
            op(f"s_cmp p{p}, {rand_sreg()}, {rand_sreg()}, "
               f"{rng.choice(['eq', 'ne', 'lt', 'le', 'gt', 'ge'])}")
            return f"@p{p} "
        return ""

    def tick_waits():
        done = []
        for slot in list(slots_busy):
            slots_busy[slot] -= 1
            if slots_busy[slot] <= 0:
                op(f"dma_wait {slot}")
                done.append(slot)
        for slot in done:
            del slots_busy[slot]

    def flush_waits():
        for slot in sorted(slots_busy):
            op(f"dma_wait {slot}")
        slots_busy.clear()

    def emit_dma():
        nonlocal n_dmas
        free = [s for s in range(12) if s not in slots_busy]
        if not free:
            return
        slot = rng.choice(free)
        direction = rng.choice(["hbm>vmem", "hbm>vmem", "vmem>hbm",
                                "vmem>vmem", "hbm>hbm"])
        length = rng.choice([16, 64, 100, 256, 321, 512])
        if direction == "hbm>vmem" and rng.random() < 0.3:
            # metadata pattern: address loaded from VMEM, transformed, used
            lane = rng.randrange(0, 8)
            op(f"s_ldi s24, {hex(meta_vmem)}")
            op("v_load v15, [s24]", 3)
            op(f"s_mov s25, v15, {lane}")
            op("s_add s25, s25, s28")
            src = "s25"
        else:
            if direction.startswith("hbm"):
                src_addr = rng.choice([_RK_HBM_DATA, _RK_HBM_POOL + rng.randrange(0, 0x8000)])
            else:
                src_addr = _RK_DMADST + rng.randrange(0, 0x4000)
            op(f"s_ldi s25, {src_addr}")
            src = "s25"
        if direction.endswith("vmem"):
            dst_addr = _RK_DMADST + rng.randrange(0, 0x4000)
        else:
            dst_addr = _RK_HBM_POOL + 0x10000 + rng.randrange(0, 0x8000)
        op(f"s_ldi s26, {dst_addr}")
        op(f"s_ldi s23, {length}")
        op(f"dma_issue {slot}, {direction}, {src}, s26, s23", 2)
        slots_busy[slot] = rng.randrange(1, 6)
        n_dmas += 1
        if direction == "hbm>vmem" and dst_addr % 64 == 0 and length >= 64 \
                and rng.random() < 0.5:
            slots_busy[slot] = 1   # wait soon, then read what landed
            tick_waits()
            op(f"s_ldi s24, {dst_addr}")
            op(f"v_load {rand_vreg()}, [s24]", 3)

    def emit_loop():
        nonlocal executed
        trips = rng.randrange(2, 5)
        label = f"loop{count}"
        op(f"s_ldi s30, {trips}")
        emit(f"{label}:")
        body = rng.randrange(3, 9)
        before = executed
        for _ in range(body):
            emit_simple()
        op("s_add s30, s30, s29")
        op("s_cmp p6, s30, s28, le")
        op(f"brz p6, {label}", 2)
        executed += (executed - before + 4) * (trips - 1)

    def emit_simple():
        kind = rng.random()
        g = guard()
        if kind < 0.30:
            a, b = rand_sreg(), rand_sreg()
            mn = rng.choice(["s_add", "s_mul"])
            op(f"{g}{mn} {rand_sreg()}, {a}, {b}")
        elif kind < 0.40:
            if rng.random() < 0.5:
                op(f"{g}s_mov {rand_sreg()}, {rand_sreg()}")
            else:
                op(f"{g}s_mov {rand_sreg()}, {rand_vreg()}, {rng.randrange(0, 16)}")
        elif kind < 0.50:
            op(f"{g}s_ldi {rand_sreg()}, {rng.randrange(-1000, 100000)}")
        elif kind < 0.68:
            mn = rng.choice(["v_add", "v_mul"])
            op(f"{g}{mn} {rand_vreg()}, {rand_vreg()}, {rand_vreg()}", 2)
        elif kind < 0.80:
            addr = _RK_VPAGES + 64 * rng.randrange(0, 128)
            op(f"s_ldi s24, {addr}")
            op(f"{g}v_load {rand_vreg()}, [s24]", 3)
        elif kind < 0.90:
            addr = _RK_VPAGES + 64 * rng.randrange(0, 128)
            op(f"s_ldi s24, {addr}")
            op(f"{g}v_store [s24], {rand_vreg()}", 3)
        elif kind < 0.96:
            op(f"s_cmp p{rng.randrange(0, 6)}, {rand_sreg()}, {rand_sreg()}, "
               f"{rng.choice(['eq', 'ne', 'lt', 'le', 'gt', 'ge'])}")
        else:
            d, a, b = (rng.randrange(0, 8) for _ in range(3))
            op(f"s_ldi s24, {hex(_RK_TILES + d * 1024)}")
            op(f"s_ldi s25, {hex(_RK_TILES + a * 1024)}")
            op(f"s_ldi s26, {hex(_RK_TILES + b * 1024)}")
            op("mxu_mm s24, s25, s26", 32)

    while count < size - 16:
        r = rng.random()
        if r < _RK_DMA_DENSITY:
            emit_dma()
        elif r < _RK_DMA_DENSITY + 0.05 and not slots_busy:
            emit_loop()
        elif r < _RK_DMA_DENSITY + 0.08:
            skip = rng.randrange(1, 3)
            tgt = f"skip{count}"
            op(f"br {tgt}", 1)
            for _ in range(skip):
                op(f"s_ldi {rand_sreg()}, 0", 0)   # dead code, never executed
            emit(f"{tgt}:")
        else:
            emit_simple()
        tick_waits()
    flush_waits()
    op("halt")

    est_cycles = executed * 40 + n_dmas * 500 + 2000
    return GeneratedKernel("\n".join(L) + "\n", est_cycles)
