"""DMA stall classification.

Each DMA falls into exactly one of three scenarios relative to its first
WAIT: (1) the wait lands before the base latency is fulfilled - stall charged
first to base latency, then to the transfer; (2) the wait lands during the
transfer - stall charged to the transfer only; (3) the wait lands after
completion - the difference is slack. DMAs without a wait or completion in
the window are flagged instead of classified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa import MemRegion, Opcode
from ..sim import (DMA_BASE_DONE, DMA_COMPLETE, DMA_ISSUE_EV,
                   DMA_TRANSFER_START, INSTR_ISSUE, PerfEvent)
from . import AnalysisError


@dataclass
class DmaRecord:
    dma_id: int
    index: int                      # stream index of the issue
    pc: int
    slot: int
    link: str
    size: int
    src: MemRegion
    dst: MemRegion
    issue_cycle: int
    base_done_cycle: Optional[int] = None
    transfer_start_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    wait_cycle: Optional[int] = None
    wait_index: Optional[int] = None
    stall_base: int = 0
    stall_transfer: int = 0
    slack: int = 0
    scenario: str = "incomplete"    # base_then_transfer|transfer_only|slack|unwaited|incomplete

    @property
    def stall_total(self) -> int:
        return self.stall_base + self.stall_transfer

    def to_json(self):
        return {**vars(self), "src": self.src.to_json(), "dst": self.dst.to_json()}


def classify(rec: DmaRecord):
    """Apply the stall-partition identity for a waited, completed DMA."""
    w, bd, c = rec.wait_cycle, rec.base_done_cycle, rec.complete_cycle
    rec.stall_base = rec.stall_transfer = rec.slack = 0
    if w is None:
        rec.scenario = "unwaited" if c is not None else "incomplete"
        return
    if c is None or bd is None:
        rec.scenario = "incomplete"
        return
    if w < bd:
        rec.stall_base = bd - w
        rec.stall_transfer = c - bd
        rec.scenario = "base_then_transfer"
    elif w < c:
        rec.stall_transfer = c - w
        rec.scenario = "transfer_only"
    else:
        rec.slack = w - c
        rec.scenario = "slack"


def analyze_dma(events: List[PerfEvent]) -> List[DmaRecord]:
    by_id = {}
    for ev in events:
        k = ev.kind
        if k == DMA_ISSUE_EV:
            by_id[ev.dma_id] = DmaRecord(ev.dma_id, ev.idx, ev.pc, ev.slot,
                                         ev.link, ev.size, ev.src_region,
                                         ev.dst_region, ev.cycle)
        elif k == DMA_BASE_DONE:
            by_id[ev.dma_id].base_done_cycle = ev.cycle
        elif k == DMA_TRANSFER_START:
            by_id[ev.dma_id].transfer_start_cycle = ev.cycle
        elif k == DMA_COMPLETE:
            by_id[ev.dma_id].complete_cycle = ev.cycle
        elif k == INSTR_ISSUE and ev.opcode == Opcode.DMA_WAIT.name \
                and not ev.annulled:
            if ev.dma_id not in by_id:
                raise AnalysisError(
                    f"DMA_WAIT at cycle {ev.cycle} references dma {ev.dma_id} "
                    "with no matching issue in the log")
            rec = by_id[ev.dma_id]
            if rec.wait_cycle is None:    # later waits are slack-only repeats
                rec.wait_cycle = ev.cycle
                rec.wait_index = ev.idx
    records = sorted(by_id.values(), key=lambda r: r.dma_id)
    for rec in records:
        classify(rec)
    return records
