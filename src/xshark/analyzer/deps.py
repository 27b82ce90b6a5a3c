"""Dynamic dependency tracking over replay event logs.

Conservative model: an instruction depends on the last writer of each
register/byte it reads. Relaxed model (DMA issues only): register inputs are
chased backwards through lightweight transform instructions until the value's
origin in memory; the dependency then lands on the instruction that
materialized those bytes (a DMA or a store). The traversed transforms form
the DMA's "chain" - the instructions that would move with it.

Both edge lists are built in dependent order, each instruction's edges
sorted by (producer, resource), and indexed by dependent as they are built:
`DependencyGraph.conservative_at`/`relaxed_at` hold where each instruction's
edges start, so the relaxed pass, the chain walk and `edges_of` slice one
instruction's edges instead of scanning all of them. The edges are also the
only record of each read's producer.

Backtails clamp the moved block by hazards through the tables' access lists,
which are in stream order: per register and DMA slot, a bisect finds the
part before a block member and prefix maxima of the data-ready cycle stand
for everything before the first block member; memory accesses are bucketed
by page, so a clamp visits only the earlier accesses that share a page with
the region.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..intervals import IntervalMap
from ..isa import MemRegion, MemSpace, Opcode
from ..sim import (DMA_COMPLETE, INSTR_ISSUE, INSTR_RETIRE, MEM_READ,
                   MEM_WRITE, REG_READ, REG_WRITE, PerfEvent)

RELAXED_CHAIN_CAP = 8
_DMA_ISSUE = Opcode.DMA_ISSUE.name

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
    """Per-instruction access tables reconstructed from an event log. An
    instruction without accesses of a kind shares the empty tuple. The access
    lists (`reg_access`, `mem_access`, `slot_access`) are in stream order."""

    n: int
    instrs: List[InstrInfo]
    reads_reg: List[Sequence[str]]
    writes_reg: List[Sequence[str]]
    reads_mem: List[Sequence[MemRegion]]
    writes_mem: List[Sequence[MemRegion]]
    reg_access: Dict[str, List[int]]                      # reg -> [idx]
    mem_access: Dict[MemSpace, List[Tuple[int, int, int]]]  # [(idx, start, end)]
    slot_access: Dict[int, List[int]]                     # slot -> [idx]
    dma_complete: Dict[int, int]                          # dma_id -> cycle
    window_start: int = 0
    window_end: int = 0


def build_tables(events: List[PerfEvent]) -> LogTables:
    n = 1 + max((ev.idx for ev in events if ev.idx is not None), default=-1)
    t = LogTables(n, [InstrInfo(i) for i in range(n)],
                  [()] * n, [()] * n, [()] * n, [()] * n,
                  {}, {MemSpace.VMEM: [], MemSpace.HBM: []}, {}, {})
    instrs, slot_access = t.instrs, t.slot_access
    start, end = None, 0
    for ev in events:
        if ev.cycle > end:
            end = ev.cycle
        k = ev.kind
        if k == INSTR_ISSUE:
            info = instrs[ev.idx]
            info.pc, info.opcode, info.unit = ev.pc, ev.opcode, ev.unit
            info.issue = ev.cycle
            info.annulled = bool(ev.annulled)
            if ev.slot is not None:
                info.slot = ev.slot
                info.dma_id = ev.dma_id
                slot_access.setdefault(ev.slot, []).append(ev.idx)
            if start is None:
                start = ev.cycle
        elif k == INSTR_RETIRE:
            instrs[ev.idx].retire = ev.cycle
        elif k == REG_READ:
            _push(t.reads_reg, ev.idx, ev.reg)
        elif k == REG_WRITE:
            _push(t.writes_reg, ev.idx, ev.reg)
        elif k == MEM_READ:
            _push(t.reads_mem, ev.idx, ev.region)
        elif k == MEM_WRITE:
            _push(t.writes_mem, ev.idx, ev.region)
        elif k == DMA_COMPLETE:
            t.dma_complete[ev.dma_id] = ev.cycle
    reg_access, mem_access = t.reg_access, t.mem_access
    for i in range(n):
        for r in (*t.reads_reg[i], *t.writes_reg[i]):
            reg_access.setdefault(r, []).append(i)
        for m in (*t.reads_mem[i], *t.writes_mem[i]):
            mem_access[m.space].append((i, m.offset, m.end))
    t.window_start = start or 0
    t.window_end = end
    return t


def _push(table: list, i: int, item):
    """Appends to table[i], which starts as the shared empty tuple."""
    if table[i]:
        table[i].append(item)
    else:
        table[i] = [item]


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
    tables: Optional[LogTables] = None
    # per-dependent index of each edge list: the edges of instruction i are
    # conservative[conservative_at[i]:conservative_at[i + 1]] (same for relaxed)
    conservative_at: List[int] = field(default_factory=list, repr=False)
    relaxed_at: List[int] = field(default_factory=list, repr=False)

    def edges_of(self, idx: int, relaxed: bool = False) -> List[Edge]:
        edges, at = ((self.relaxed, self.relaxed_at) if relaxed
                     else (self.conservative, self.conservative_at))
        return edges[at[idx]:at[idx + 1]] if 0 <= idx < len(at) - 1 else []

    def earliest_position(self, idx: int, relaxed: bool = False) -> int:
        """Dependency-only earliest stream position (no hazard clamps);
        chain members do not bound their own DMA in the relaxed model."""
        chain = set(self.chains.get(idx, ())) if relaxed else set()
        deps = [e.producer for e in self.edges_of(idx, relaxed)
                if e.producer not in chain]
        return 1 + max(deps) if deps else 0


def build_dependency_graph(events: List[PerfEvent]) -> DependencyGraph:
    t = build_tables(events)
    n = t.n
    last_reg: Dict[str, int] = {}
    last_mem = {MemSpace.VMEM: IntervalMap(), MemSpace.HBM: IntervalMap()}
    conservative: List[Edge] = []
    conservative_at = [0] * (n + 1)

    for i in range(n):
        own: List[Edge] = []
        for r in t.reads_reg[i]:
            p = last_reg.get(r)
            if p is not None:
                own.append(Edge(i, p, "register", r))
        for m in t.reads_mem[i]:
            label = m.space.value
            for s, e, w in last_mem[m.space].lookup(m.offset, m.end):
                own.append(Edge(i, w, label, f"{label}[{s:#x}:{e:#x}]"))
        conservative.extend(_sorted_unique(own))
        conservative_at[i + 1] = len(conservative)
        for r in t.writes_reg[i]:
            last_reg[r] = i
        for m in t.writes_mem[i]:
            last_mem[m.space].store(m.offset, m.end, i)

    def producers(i: int) -> List[Edge]:
        return conservative[conservative_at[i]:conservative_at[i + 1]]

    relaxed: List[Edge] = []
    relaxed_at = [0] * (n + 1)
    chains: Dict[int, Tuple[int, ...]] = {}
    fallback: Set[int] = set()
    for i in range(n):
        own = producers(i)
        if t.instrs[i].opcode == _DMA_ISSUE:
            chain: Set[int] = set()
            # the src-region RAW edges
            edges: Set[Edge] = {e for e in own if e.label != "register"}
            if _walk_chain(i, i, t, producers, chain, edges):
                chains[i] = tuple(sorted(chain))
                own = _sorted_unique([Edge(i, e.producer, e.label, e.resource)
                                      for e in edges])
            else:
                fallback.add(i)
        relaxed.extend(own)
        relaxed_at[i + 1] = len(relaxed)

    return DependencyGraph(n, conservative, relaxed, chains, fallback, t,
                           conservative_at, relaxed_at)


def _sorted_unique(edges: List[Edge]) -> List[Edge]:
    """One dependent's distinct edges sorted by (producer, resource); the
    resource names the label, so the key identifies the edge."""
    if len(edges) < 2:
        return edges
    by_key = {(e.producer, e.resource): e for e in edges}
    return [by_key[k] for k in sorted(by_key)]


def _walk_chain(root: int, at: int, t: LogTables,
                producers: Callable[[int], List[Edge]], chain: Set[int],
                edges: Set[Edge]) -> bool:
    """Chase register producers of `at` back through transforms; collect
    memory-materializer edges for `root`. False when the chain grows past
    RELAXED_CHAIN_CAP. A register read without an edge has its value from
    before the window."""
    for e in producers(at):
        p = e.producer
        if e.label != "register" or p in chain:
            continue
        if t.instrs[p].opcode not in _TRANSFORMS:
            # not reorderable: keep a direct edge on the producer
            edges.add(Edge(root, p, "register", e.resource))
            continue
        chain.add(p)
        if len(chain) > RELAXED_CHAIN_CAP:
            return False
        if t.instrs[p].opcode == "V_LOAD":
            edges.update(Edge(root, m.producer, m.label, m.resource)
                         for m in producers(p) if m.label != "register")
        if not _walk_chain(root, p, t, producers, chain, edges):
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


# bytes per bucket of the memory-hazard index
_HAZARD_PAGE = 256


class _Hazards:
    """What the hazard clamps of one backtail pass read: each instruction's
    data-ready cycle (a DMA issue's is its completion); per register and per
    DMA slot, the accessing stream indices beside the running maximum of their
    data-ready cycles; per page of each space, the memory accesses that touch
    it. All in stream order."""

    def __init__(self, t: LogTables):
        self.ready = [t.dma_complete.get(info.dma_id, info.retire)
                      if info.opcode == _DMA_ISSUE else info.retire
                      for info in t.instrs]
        self.reg = {r: self._with_peaks(acc) for r, acc in t.reg_access.items()}
        self.slot = {s: self._with_peaks(acc) for s, acc in t.slot_access.items()}
        self.mem_pages: Dict[MemSpace, Dict[int, List[Tuple[int, int, int]]]] = {}
        for space, acc in t.mem_access.items():
            pages = self.mem_pages[space] = {}
            for a in acc:
                for page in range(a[1] // _HAZARD_PAGE, (a[2] - 1) // _HAZARD_PAGE + 1):
                    pages.setdefault(page, []).append(a)

    def _with_peaks(self, idx: List[int]) -> Tuple[List[int], List[int]]:
        return idx, list(accumulate(map(self.ready.__getitem__, idx), max))

    def before(self, access: Tuple[List[int], List[int]], m: int,
               block: Set[int]) -> Tuple[int, int]:
        """Latest index and latest data-ready cycle among the accesses before
        stream index m that are not block members; -1 for none. Only the
        part from the first block member on is walked."""
        idx, peaks = access
        p = bisect_left(idx, m)
        lo = p
        for b in block:
            if b < m:
                q = bisect_left(idx, b)
                if q < lo and idx[q] == b:
                    lo = q
        last, ready = (idx[lo - 1], peaks[lo - 1]) if lo else (-1, -1)
        for j in idx[lo:p]:
            if j not in block:
                last = j
                ready = max(ready, self.ready[j])
        return last, ready

    def mem_before(self, w: MemRegion, m: int, block: Set[int]) -> Tuple[int, int]:
        """`before` for the memory accesses that overlap region w, read from
        the pages w touches (an access on several pages is seen on each)."""
        start, end = w.offset, w.end
        pages = self.mem_pages[w.space]
        last = ready = -1
        for page in range(start // _HAZARD_PAGE, (end - 1) // _HAZARD_PAGE + 1):
            for j, s, e in pages.get(page, ()):
                if j >= m:
                    break
                if s < end and start < e and j not in block:
                    last, ready = max(last, j), max(ready, self.ready[j])
        return last, ready


def _block_constraints(block: Set[int], d: int, t: LogTables, graph,
                       hz: _Hazards) -> Tuple[int, Optional[int]]:
    """Insertion point of the moved block - one past the latest stream index
    that must stay before it: RAW producers, WAR/WAW reg and memory hazards,
    and slot reuse order - and the latest data-ready cycle among those
    indices (None when nothing constrains the block)."""
    last = ready = -1
    for m in block:
        for e in graph.edges_of(m):
            p = e.producer
            if p not in block:
                last, ready = max(last, p), max(ready, hz.ready[p])
        for r in t.writes_reg[m]:
            j, c = hz.before(hz.reg[r], m, block)
            last, ready = max(last, j), max(ready, c)
        for w in t.writes_mem[m]:
            j, c = hz.mem_before(w, m, block)
            last, ready = max(last, j), max(ready, c)
    slot = t.instrs[d].slot
    if slot is not None:
        j, c = hz.before(hz.slot[slot], d, block)
        last, ready = max(last, j), max(ready, c)
    return last + 1, (ready if last >= 0 else None)


def compute_backtails(graph: DependencyGraph) -> Dict[int, Backtail]:
    """Earliest feasible issue position/cycle per DMA under the relaxed model,
    clamped by every hazard that would change architectural results (register
    and memory anti/output dependencies of the moved block, slot reuse)."""
    t = graph.tables
    hz = _Hazards(t)
    out: Dict[int, Backtail] = {}
    for d, info in enumerate(t.instrs):
        if info.opcode != _DMA_ISSUE or info.annulled:
            continue
        chain = set() if d in graph.relaxed_fallback else set(graph.chains.get(d, ()))
        block, target, ready = _minimize_block(d, chain, t, graph, hz)
        if any(m != d and m < target for m in block):
            # could not keep every moved member ahead of its hazards: fall
            # back to the no-chain conservative placement
            block = {d}
            target, ready = _block_constraints(block, d, t, graph, hz)
        earliest_cycle = t.window_start if ready is None else ready
        issue_cycle = info.issue
        out[info.dma_id] = Backtail(info.dma_id, d, issue_cycle, target,
                                    earliest_cycle,
                                    max(0, issue_cycle - earliest_cycle),
                                    tuple(sorted(block)))
    return out


def _minimize_block(d: int, chain: Set[int], t: LogTables, graph, hz: _Hazards):
    """Trim the moved block down to the chain members that actually need to
    travel: members whose position already precedes the insertion point stay
    behind (becoming plain RAW constraints), including shared producers that
    happen to sit right at the target."""
    block: Set[int] = {d} | chain

    def measure(b):
        return _block_constraints(b, d, t, graph, hz)

    target, ready = measure(block)
    for _ in range(len(chain) + 2):
        drop = {m for m in block if m != d and m < target}
        if not drop:
            break
        block = block - drop
        target, ready = measure(block)
    # peel shared leading producers that sit at the insertion point, but only
    # while the remaining block still moves up (otherwise the chain itself is
    # the earliest-possible schedule and stays whole)
    while True:
        lead = min(block)
        if lead == d or lead > target:
            break
        trial = block - {lead}
        t_target, t_ready = measure(trial)
        if t_target < min(trial):
            block, target, ready = trial, t_target, t_ready
        else:
            break
    return block, target, ready
