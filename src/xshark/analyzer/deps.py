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

Backtails clamp the moved block by hazards through the hazard indices that
`build_tables` fills, which are in stream order: per register and DMA slot,
a bisect finds the part before a block member and prefix maxima of the
data-ready cycle stand for everything before the first block member; memory
accesses are bucketed by page, so a clamp visits only the earlier accesses
that share a page with the region.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .. import gc_paused
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
    opcode: str = ""
    slot: Optional[int] = None
    dma_id: Optional[int] = None
    annulled: bool = False
    issue: int = 0
    retire: int = 0


# bytes per page of the memory-hazard index
_HAZARD_PAGE = 256

# stream indices in order, beside the running maximum of their ready cycles
Accesses = Tuple[List[int], List[int]]


@dataclass
class LogTables:
    """Per-instruction access tables reconstructed from an event log, and the
    hazard indices the backtail clamps read. An instruction without accesses
    of a kind shares the empty tuple. `ready` is each instruction's
    data-ready cycle (a DMA issue's is its completion); `reg` and `slot` hold
    the accesses of each register and DMA slot; `mem_pages` holds, per
    256-byte page of each space, the memory accesses (idx, start, end) that
    touch it. All in stream order."""

    n: int
    instrs: List[InstrInfo]
    reads_reg: List[Sequence[str]]
    writes_reg: List[Sequence[str]]
    reads_mem: List[Sequence[MemRegion]]
    writes_mem: List[Sequence[MemRegion]]
    dma_complete: Dict[int, int]                          # dma_id -> cycle
    window_start: int
    ready: List[int]
    reg: Dict[str, Accesses]
    slot: Dict[int, Accesses]
    mem_pages: Dict[MemSpace, Dict[int, List[Tuple[int, int, int]]]]


def build_tables(events: List[PerfEvent]) -> LogTables:
    n = 1 + max((ev.idx for ev in events if ev.idx is not None), default=-1)
    instrs = [InstrInfo() for _ in range(n)]
    reads_reg, writes_reg, reads_mem, writes_mem = ([()] * n for _ in range(4))
    by_slot: Dict[int, List[int]] = {}
    dma_complete: Dict[int, int] = {}
    start = None
    for ev in events:
        k = ev.kind
        if k == INSTR_ISSUE:
            info = instrs[ev.idx]
            info.opcode = ev.opcode
            info.issue = ev.cycle
            info.annulled = bool(ev.annulled)
            if ev.slot is not None:
                info.slot = ev.slot
                info.dma_id = ev.dma_id
                by_slot.setdefault(ev.slot, []).append(ev.idx)
            if start is None:
                start = ev.cycle
        elif k == INSTR_RETIRE:
            instrs[ev.idx].retire = ev.cycle
        elif k == REG_READ:
            _push(reads_reg, ev.idx, ev.reg)
        elif k == REG_WRITE:
            _push(writes_reg, ev.idx, ev.reg)
        elif k == MEM_READ:
            _push(reads_mem, ev.idx, ev.region)
        elif k == MEM_WRITE:
            _push(writes_mem, ev.idx, ev.region)
        elif k == DMA_COMPLETE:
            dma_complete[ev.dma_id] = ev.cycle
    ready = [dma_complete.get(info.dma_id, info.retire)
             if info.opcode == _DMA_ISSUE else info.retire for info in instrs]
    by_reg: Dict[str, List[int]] = {}
    mem_pages = {MemSpace.VMEM: {}, MemSpace.HBM: {}}
    for i in range(n):
        for r in (*reads_reg[i], *writes_reg[i]):
            by_reg.setdefault(r, []).append(i)
        for m in (*reads_mem[i], *writes_mem[i]):
            pages, a = mem_pages[m.space], (i, m.offset, m.end)
            for page in range(m.offset // _HAZARD_PAGE, (m.end - 1) // _HAZARD_PAGE + 1):
                pages.setdefault(page, []).append(a)

    def with_peaks(idx: List[int]) -> Accesses:
        return idx, list(accumulate(map(ready.__getitem__, idx), max))

    return LogTables(n, instrs, reads_reg, writes_reg, reads_mem, writes_mem,
                     dma_complete, start or 0, ready,
                     {r: with_peaks(a) for r, a in by_reg.items()},
                     {s: with_peaks(a) for s, a in by_slot.items()},
                     mem_pages)


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


@gc_paused
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
        return {**vars(self), "block": list(self.block)}


def _before(access: Accesses, m: int, block: Set[int],
            ready: List[int]) -> Tuple[int, int]:
    """Latest index and latest data-ready cycle among the accesses before
    stream index m that are not block members; -1 for none. Only the part
    from the first block member on is walked."""
    idx, peaks = access
    p = bisect_left(idx, m)
    lo = p
    for b in block:
        if b < m:
            q = bisect_left(idx, b)
            if q < lo and idx[q] == b:
                lo = q
    last, latest = (idx[lo - 1], peaks[lo - 1]) if lo else (-1, -1)
    for j in idx[lo:p]:
        if j not in block:
            last = j
            latest = max(latest, ready[j])
    return last, latest


def _mem_before(t: LogTables, w: MemRegion, m: int,
                block: Set[int]) -> Tuple[int, int]:
    """`_before` for the memory accesses that overlap region w, read from
    the pages w touches (an access on several pages is seen on each)."""
    start, end = w.offset, w.end
    pages = t.mem_pages[w.space]
    last = latest = -1
    for page in range(start // _HAZARD_PAGE, (end - 1) // _HAZARD_PAGE + 1):
        for j, s, e in pages.get(page, ()):
            if j >= m:
                break
            if s < end and start < e and j not in block:
                last, latest = max(last, j), max(latest, t.ready[j])
    return last, latest


def _block_constraints(block: Set[int], d: int, t: LogTables,
                       graph) -> Tuple[int, Optional[int]]:
    """Insertion point of the moved block - one past the latest stream index
    that must stay before it: RAW producers, WAR/WAW reg and memory hazards,
    and slot reuse order - and the latest data-ready cycle among those
    indices (None when nothing constrains the block)."""
    last = ready = -1
    for m in block:
        for e in graph.edges_of(m):
            p = e.producer
            if p not in block:
                last, ready = max(last, p), max(ready, t.ready[p])
        for r in t.writes_reg[m]:
            j, c = _before(t.reg[r], m, block, t.ready)
            last, ready = max(last, j), max(ready, c)
        for w in t.writes_mem[m]:
            j, c = _mem_before(t, w, m, block)
            last, ready = max(last, j), max(ready, c)
    slot = t.instrs[d].slot
    if slot is not None:
        j, c = _before(t.slot[slot], d, block, t.ready)
        last, ready = max(last, j), max(ready, c)
    return last + 1, (ready if last >= 0 else None)


@gc_paused
def compute_backtails(graph: DependencyGraph) -> Dict[int, Backtail]:
    """Earliest feasible issue position/cycle per DMA under the relaxed model,
    clamped by every hazard that would change architectural results (register
    and memory anti/output dependencies of the moved block, slot reuse)."""
    t = graph.tables
    out: Dict[int, Backtail] = {}
    for d, info in enumerate(t.instrs):
        if info.opcode != _DMA_ISSUE or info.annulled:
            continue
        chain = set(graph.chains.get(d, ()))   # none for a relaxed_fallback DMA
        block, target, ready = _minimize_block(d, chain, t, graph)
        earliest_cycle = t.window_start if ready is None else ready
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
    happen to sit right at the target. Every returned member other than d is
    at or after the returned target."""
    block: Set[int] = {d} | chain

    def measure(b):
        return _block_constraints(b, d, t, graph)

    target, ready = measure(block)
    while drop := {m for m in block if m != d and m < target}:
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
