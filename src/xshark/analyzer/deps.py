"""Dynamic dependency tracking over replay event logs.

Conservative model: an instruction depends on the last writer of each
register/byte it reads. Relaxed model (DMA issues only): register inputs are
chased backwards through lightweight transform instructions until the value's
origin in memory; the dependency then lands on the instruction that
materialized those bytes (a DMA or a store). The traversed transforms form
the DMA's "chain" - the instructions that would move with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..intervals import IntervalMap
from ..isa import MemRegion, MemSpace, Opcode
from ..sim import (DMA_COMPLETE, INSTR_ISSUE, INSTR_RETIRE, MEM_READ,
                   MEM_WRITE, REG_READ, REG_WRITE, PerfEvent)
from . import AnalysisError

RELAXED_CHAIN_CAP = 8

# register-transform opcodes: cheap to reorder along with a DMA issue;
# V_LOAD bridges a chain back into memory.
_TRANSFORMS = {"S_LDI", "S_ADD", "S_MUL", "S_MOV", "S_CMP", "V_ADD", "V_MUL",
               "V_LOAD"}


@dataclass
class InstrInfo:
    idx: int
    pc: int = -1
    opcode: str = ""
    unit: str = ""
    slot: Optional[int] = None
    dma_id: Optional[int] = None
    annulled: bool = False
    issue: int = 0
    retire: int = 0


@dataclass
class LogTables:
    """Per-instruction access tables reconstructed from an event log."""

    n: int
    instrs: List[InstrInfo]
    reads_reg: List[List[str]]
    writes_reg: List[List[str]]
    reads_mem: List[List[MemRegion]]
    writes_mem: List[List[MemRegion]]
    reg_access: Dict[str, List[Tuple[int, str]]]          # reg -> [(idx, r/w)]
    mem_access: Dict[MemSpace, List[Tuple[int, int, int, str]]]
    slot_access: Dict[int, List[int]]                     # slot -> [idx]
    dma_complete: Dict[int, int]                          # dma_id -> cycle
    window_start: int = 0
    window_end: int = 0


def build_tables(events: List[PerfEvent]) -> LogTables:
    n = 0
    for ev in events:
        if ev.idx is not None:
            n = max(n, ev.idx + 1)
    t = LogTables(n, [InstrInfo(i) for i in range(n)],
                  [[] for _ in range(n)], [[] for _ in range(n)],
                  [[] for _ in range(n)], [[] for _ in range(n)],
                  {}, {MemSpace.VMEM: [], MemSpace.HBM: []}, {}, {})
    start, end = None, 0
    for ev in events:
        end = max(end, ev.cycle)
        k = ev.kind
        if k == INSTR_ISSUE:
            info = t.instrs[ev.idx]
            info.pc, info.opcode, info.unit = ev.pc, ev.opcode, ev.unit
            info.issue = ev.cycle
            info.annulled = bool(ev.annulled)
            if ev.slot is not None:
                info.slot = ev.slot
                info.dma_id = ev.dma_id
                t.slot_access.setdefault(ev.slot, []).append(ev.idx)
            if start is None:
                start = ev.cycle
        elif k == INSTR_RETIRE:
            t.instrs[ev.idx].retire = ev.cycle
        elif k == REG_READ:
            t.reads_reg[ev.idx].append(ev.reg)
        elif k == REG_WRITE:
            t.writes_reg[ev.idx].append(ev.reg)
        elif k == MEM_READ:
            t.reads_mem[ev.idx].append(ev.region)
        elif k == MEM_WRITE:
            t.writes_mem[ev.idx].append(ev.region)
        elif k == DMA_COMPLETE:
            t.dma_complete[ev.dma_id] = ev.cycle
    for i in range(n):
        for r in t.reads_reg[i]:
            t.reg_access.setdefault(r, []).append((i, "r"))
        for m in t.reads_mem[i]:
            t.mem_access[m.space].append((i, m.offset, m.end, "r"))
        for r in t.writes_reg[i]:
            t.reg_access.setdefault(r, []).append((i, "w"))
        for m in t.writes_mem[i]:
            t.mem_access[m.space].append((i, m.offset, m.end, "w"))
    t.window_start = start or 0
    t.window_end = end
    return t


@dataclass(frozen=True)
class Edge:
    dependent: int
    producer: int
    label: str          # register | vmem | hbm
    resource: str

    def to_json(self):
        return {"from": self.dependent, "to": self.producer,
                "label": self.label, "resource": self.resource}


@dataclass
class DependencyGraph:
    n: int
    conservative: List[Edge]
    relaxed: List[Edge]
    chains: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    relaxed_fallback: Set[int] = field(default_factory=set)
    # per-instruction register producer map (None = outside window)
    reg_producer: List[Dict[str, Optional[int]]] = field(default_factory=list)
    mem_producers: List[List[Edge]] = field(default_factory=list)
    tables: Optional[LogTables] = None

    def edges_of(self, idx: int, relaxed: bool = False) -> List[Edge]:
        src = self.relaxed if relaxed else self.conservative
        return [e for e in src if e.dependent == idx]

    def earliest_position(self, idx: int, relaxed: bool = False) -> int:
        """Dependency-only earliest stream position (no hazard clamps);
        chain members do not bound their own DMA in the relaxed model."""
        chain = set(self.chains.get(idx, ())) if relaxed else set()
        deps = [e.producer for e in self.edges_of(idx, relaxed)
                if e.producer not in chain]
        return 1 + max(deps) if deps else 0


def build_dependency_graph(events: List[PerfEvent],
                           chain_cap: int = RELAXED_CHAIN_CAP) -> DependencyGraph:
    t = build_tables(events)
    n = t.n
    last_reg: Dict[str, int] = {}
    last_mem = {MemSpace.VMEM: IntervalMap(), MemSpace.HBM: IntervalMap()}
    conservative: List[Edge] = []
    reg_producer: List[Dict[str, Optional[int]]] = [dict() for _ in range(n)]
    mem_producers: List[List[Edge]] = [[] for _ in range(n)]

    for i in range(n):
        for r in t.reads_reg[i]:
            p = last_reg.get(r)
            reg_producer[i][r] = p
            if p is not None:
                conservative.append(Edge(i, p, "register", r))
        for m in t.reads_mem[i]:
            for s, e, w in last_mem[m.space].lookup(m.offset, m.end):
                edge = Edge(i, w, m.space.value, f"{m.space.value}[{s:#x}:{e:#x}]")
                mem_producers[i].append(edge)
                conservative.append(edge)
        for r in t.writes_reg[i]:
            last_reg[r] = i
        for m in t.writes_mem[i]:
            last_mem[m.space].store(m.offset, m.end, i)

    conservative = sorted(set(conservative),
                          key=lambda e: (e.dependent, e.producer, e.resource))

    relaxed: List[Edge] = []
    chains: Dict[int, Tuple[int, ...]] = {}
    fallback: Set[int] = set()
    for i in range(n):
        if t.instrs[i].opcode != Opcode.DMA_ISSUE.name:
            relaxed.extend(e for e in conservative if e.dependent == i)
            continue
        chain: Set[int] = set()
        edges: Set[Edge] = set(mem_producers[i])   # the src-region RAW edges
        ok = _walk_chain(i, i, t, reg_producer, mem_producers, chain, edges,
                         chain_cap)
        if not ok:
            fallback.add(i)
            relaxed.extend(e for e in conservative if e.dependent == i)
            continue
        chains[i] = tuple(sorted(chain))
        relaxed.extend(Edge(i, e.producer, e.label, e.resource)
                       for e in sorted(edges, key=lambda e: (e.producer, e.resource)))

    relaxed = sorted(set(relaxed), key=lambda e: (e.dependent, e.producer, e.resource))
    return DependencyGraph(n, conservative, relaxed, chains, fallback,
                           reg_producer, mem_producers, t)


def _walk_chain(root: int, at: int, t: LogTables, reg_producer, mem_producers,
                chain: Set[int], edges: Set[Edge], cap: int) -> bool:
    """Chase register producers of `at` back through transforms; collect
    memory-materializer edges for `root`. False when the chain blows the cap."""
    for r in t.reads_reg[at]:
        p = reg_producer[at].get(r)
        if p is None:
            continue                   # value from before the window
        if p in chain:
            continue
        if t.instrs[p].opcode not in _TRANSFORMS:
            # not reorderable: keep a direct edge on the producer
            edges.add(Edge(root, p, "register", r))
            continue
        chain.add(p)
        if len(chain) > cap:
            return False
        if t.instrs[p].opcode == "V_LOAD":
            for e in mem_producers[p]:
                edges.add(Edge(root, e.producer, e.label, e.resource))
        if not _walk_chain(root, p, t, reg_producer, mem_producers, chain,
                           edges, cap):
            return False
    return True


@dataclass
class Backtail:
    dma_id: int
    issue_index: int
    issue_cycle: int
    earliest_index: int
    earliest_cycle: int
    backtail_cycles: int
    block: Tuple[int, ...]            # chain members + the issue, stream order

    def to_json(self):
        return {"dma_id": self.dma_id, "issue_index": self.issue_index,
                "issue_cycle": self.issue_cycle,
                "earliest_index": self.earliest_index,
                "earliest_cycle": self.earliest_cycle,
                "backtail_cycles": self.backtail_cycles,
                "block": list(self.block)}


def _data_ready(t: LogTables, i: int) -> int:
    info = t.instrs[i]
    if info.opcode == Opcode.DMA_ISSUE.name and info.dma_id in t.dma_complete:
        return t.dma_complete[info.dma_id]
    return info.retire


def _block_constraints(block: Set[int], d: int, t: LogTables, graph) -> List[int]:
    """Stream indices that must stay before the moved block: RAW producers,
    WAR/WAW reg and memory hazards, and slot reuse order."""
    cands: List[int] = []
    for m in block:
        for r in t.reads_reg[m]:
            p = graph.reg_producer[m].get(r)
            if p is not None and p not in block:
                cands.append(p)
        for e in graph.mem_producers[m]:
            if e.producer not in block:
                cands.append(e.producer)
        for r in t.writes_reg[m]:
            for j, _kind in t.reg_access.get(r, ()):
                if j < m and j not in block:
                    cands.append(j)
        for w in t.writes_mem[m]:
            for j, s, e, _kind in t.mem_access[w.space]:
                if j < m and j not in block and s < w.end and w.offset < e:
                    cands.append(j)
    slot = t.instrs[d].slot
    if slot is not None:
        for j in t.slot_access.get(slot, ()):
            if j < d and j not in block:
                cands.append(j)
    return cands


def compute_backtails(graph: DependencyGraph,
                      tables: Optional[LogTables] = None) -> Dict[int, Backtail]:
    """Earliest feasible issue position/cycle per DMA under the relaxed model,
    clamped by every hazard that would change architectural results (register
    and memory anti/output dependencies of the moved block, slot reuse)."""
    t = tables or graph.tables
    if t is None:
        raise AnalysisError("compute_backtails needs log tables")
    out: Dict[int, Backtail] = {}
    for d, info in enumerate(t.instrs):
        if info.opcode != Opcode.DMA_ISSUE.name or info.annulled:
            continue
        chain = set() if d in graph.relaxed_fallback else set(graph.chains.get(d, ()))
        block, cands, target = _minimize_block(d, chain, t, graph)
        if any(m != d and m < target for m in block):
            # could not keep every moved member ahead of its hazards: fall
            # back to the no-chain conservative placement
            block = {d}
            cands = _block_constraints(block, d, t, graph)
            target = max(cands) + 1 if cands else 0
        earliest_cycle = max((_data_ready(t, c) for c in cands),
                             default=t.window_start)
        issue_cycle = info.issue
        out[info.dma_id] = Backtail(info.dma_id, d, issue_cycle, target,
                                    earliest_cycle,
                                    max(0, issue_cycle - earliest_cycle),
                                    tuple(sorted(block)))
    return out


def _minimize_block(d: int, chain: Set[int], t: LogTables, graph):
    """Trim the moved block down to the chain members that actually need to
    travel: members whose position already precedes the insertion point stay
    behind (becoming plain RAW constraints), including shared producers that
    happen to sit right at the target."""
    block: Set[int] = {d} | chain

    def measure(b):
        cands = _block_constraints(b, d, t, graph)
        return cands, (max(cands) + 1 if cands else 0)

    cands, target = measure(block)
    for _ in range(len(chain) + 2):
        drop = {m for m in block if m != d and m < target}
        if not drop:
            break
        block = block - drop
        cands, target = measure(block)
    # peel shared leading producers that sit at the insertion point, but only
    # while the remaining block still moves up (otherwise the chain itself is
    # the earliest-possible schedule and stays whole)
    while True:
        lead = min(block)
        if lead == d or lead > target:
            break
        trial = block - {lead}
        t_cands, t_target = measure(trial)
        if t_target < min(trial):
            block, cands, target = trial, t_cands, t_target
        else:
            break
    return block, cands, target
