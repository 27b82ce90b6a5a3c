"""Automatic reorder suggestions for stalled DMAs and their verification.

For every DMA: skip it unless it stalled; measure how far its issue (plus
the transform chain feeding it) can move up under the relaxed dependency
model and all hazard clamps; check the scratchpad has a contiguous free
region big enough for the transfer at the target; suggest when the headroom
exceeds the stall. A suggestion only reaches `verified_*` status after a
re-simulation of the permuted stream proves the final state bit-identical
AND total stall cycles strictly lower; anything else is downgraded with a
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..isa import MemSpace
from ..recorder import ExecutionTrace
from ..replayer import ReplayDivergence, ReplayResult, replay, replay_with_schedule
from ..sim import SimConfig
from . import AnalysisError
from .deps import Backtail, DependencyGraph, compute_backtails
from .dma import DmaRecord
from .vmem import VmemPageStats

_REQUIRED_FIELDS = ("dma_id", "issue_index", "proposed_position", "push_limit",
                    "stall_duration", "required_vmem")

UNVERIFIED = "unverified"
VERIFIED_EQUAL_STATE = "verified_equal_state"
VERIFIED_SPEEDUP = "verified_speedup"


@dataclass
class Suggestion:
    dma_id: int
    issue_index: int                  # current position in the stream
    proposed_position: int            # earliest feasible stream index
    push_limit: int                   # cycles of available headroom
    stall_duration: int
    required_vmem: int
    largest_contiguous_at_target: Optional[int]
    block: List[int] = field(default_factory=list)
    verified: str = UNVERIFIED
    speedup_cycles: int = 0
    stall_reduction: int = 0
    diagnostic: Optional[str] = None

    def to_json(self):
        return {"dma_id": self.dma_id, "issue_index": self.issue_index,
                "proposed_position": self.proposed_position,
                "push_limit": self.push_limit,
                "stall_duration": self.stall_duration,
                "required_vmem": self.required_vmem,
                "largest_contiguous_at_target": self.largest_contiguous_at_target,
                "block": self.block, "verified": self.verified,
                "speedup_cycles": self.speedup_cycles,
                "stall_reduction": self.stall_reduction,
                "diagnostic": self.diagnostic}

    @staticmethod
    def from_json(d) -> "Suggestion":
        """Inverse of to_json; anything else raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"a suggestion must be an object, got {type(d).__name__}")
        missing = [k for k in _REQUIRED_FIELDS if k not in d]
        if missing:
            raise ValueError(f"suggestion lacks {', '.join(missing)}")
        contiguous = d.get("largest_contiguous_at_target")
        block = d.get("block", [])
        ints = [d[k] for k in _REQUIRED_FIELDS] + [
            d.get("speedup_cycles", 0), d.get("stall_reduction", 0)]
        if contiguous is not None:
            ints.append(contiguous)
        if not (isinstance(block, list)
                and all(type(v) is int for v in ints + block)):
            raise ValueError("suggestion fields and block entries must be integers")
        return Suggestion(*(d[k] for k in _REQUIRED_FIELDS), contiguous,
                          list(block), d.get("verified", UNVERIFIED),
                          d.get("speedup_cycles", 0), d.get("stall_reduction", 0),
                          d.get("diagnostic"))


def suggest(dma_records: List[DmaRecord], graph: DependencyGraph,
            vmem_stats: VmemPageStats,
            backtails: Optional[Dict[int, Backtail]] = None) -> List[Suggestion]:
    """All inputs must derive from the same event log."""
    if backtails is None:
        backtails = compute_backtails(graph)
    out: List[Suggestion] = []
    for rec in dma_records:
        if rec.stall_total <= 0:
            continue
        bt = backtails.get(rec.dma_id)
        if bt is None:
            continue
        if rec.dst.space is MemSpace.VMEM:
            contiguous = vmem_stats.largest_contiguous_at(bt.earliest_cycle)
            memory_available = contiguous >= rec.size
        else:
            contiguous = None          # transfer does not land in the scratchpad
            memory_available = True
        moves = bt.earliest_index < min(bt.block)   # a real reorder, not identity
        if bt.backtail_cycles > rec.stall_total and memory_available and moves:
            out.append(Suggestion(rec.dma_id, bt.issue_index, bt.earliest_index,
                                  bt.backtail_cycles, rec.stall_total,
                                  rec.size, contiguous, list(bt.block)))
    return out


def build_schedule(n: int, suggestions: Sequence[Suggestion]) -> List[int]:
    """Permutation realizing the suggested hoists: each block is inserted
    just before its proposed position, relative order otherwise preserved.
    An instruction claimed by several blocks moves to the earliest target."""
    target: Dict[int, int] = {}
    for s in suggestions:
        for m in s.block:
            if not 0 <= m < n:
                raise AnalysisError(f"suggestion block index {m} out of range")
            t = s.proposed_position
            target[m] = min(target.get(m, t), t)
    keyed = sorted(range(n), key=lambda i: (target.get(i, i) - 0.5
                                            if i in target else i, i))
    return keyed


def apply_and_verify(trace: ExecutionTrace,
                     suggestion: Union[Suggestion, Sequence[Suggestion]],
                     config: SimConfig,
                     baseline: Optional[ReplayResult] = None,
                     tracker=None):
    """Re-simulate with the hoists applied and set verification status.

    Returns (suggestions, applied ReplayResult or None). Divergence or any
    regression downgrades the suggestion - a reorder is never reported
    verified unless the final state matches bit-exactly and total stall
    cycles strictly drop.
    """
    suggestions = [suggestion] if isinstance(suggestion, Suggestion) else list(suggestion)
    if baseline is None:
        baseline = replay(trace, config)
    n = len(trace.instr_stream)
    order = build_schedule(n, suggestions)

    def mark(status, diagnostic=None, speedup=0, stall_red=0):
        for s in suggestions:
            s.verified = status
            s.diagnostic = diagnostic
            s.speedup_cycles = speedup
            s.stall_reduction = stall_red

    try:
        applied = replay_with_schedule(trace, order, config, tracker=tracker)
    except ReplayDivergence as e:
        mark(UNVERIFIED, f"divergence: {e}")
        return suggestions, None

    state_equal = (applied.digest == baseline.digest
                   and applied.footprint == baseline.footprint)
    if not state_equal:
        mark(UNVERIFIED, "state mismatch after reorder")
        return suggestions, applied
    stall_red = baseline.total_stall - applied.total_stall
    if stall_red <= 0:
        mark(UNVERIFIED, f"no stall reduction (delta {stall_red})")
        return suggestions, applied
    speedup = baseline.cycles - applied.cycles
    if speedup > 0:
        mark(VERIFIED_SPEEDUP, None, speedup, stall_red)
    else:
        mark(VERIFIED_EQUAL_STATE, None, 0, stall_red)
    return suggestions, applied
