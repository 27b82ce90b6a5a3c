"""The bookkeeping of one execution window, shared by the recorder and the
replayer: docs/trace-format.md, "Window footprint and the `window:` digest".
"""

from __future__ import annotations

from dataclasses import dataclass

from .intervals import IntervalSet
from .isa import MemRegion, MemSpace


@dataclass(frozen=True)
class Footprint:
    """What a window wrote: its registers, and (space, merged [start, end)
    spans) for VMEM, then HBM."""

    regs: frozenset
    mem: tuple


class WindowLedger:
    """The locations a window has defined (by a snapshot or an in-window
    write) and the ones it wrote."""

    def __init__(self):
        self.regs = set()
        self._mem = {MemSpace.VMEM: IntervalSet(), MemSpace.HBM: IntervalSet()}
        self._written_regs = set()
        self._written = {MemSpace.VMEM: IntervalSet(), MemSpace.HBM: IntervalSet()}

    def define(self, region) -> bool:
        """Mark a snapshot's bytes defined; False if some already were."""
        spans = self._mem[region.space]
        fresh = spans.uncovered(region.offset, region.end) == [(region.offset, region.end)]
        spans.add(region.offset, region.end)
        return fresh

    def first_uses(self, ios):
        """The first uses of `ios`: its input registers, and the pieces of
        its input regions as MemRegions, that neither a snapshot nor an
        earlier in-window write defined. Marks them defined (a location read
        twice comes once)."""
        regs, pieces = [], []
        for r in ios.input_regs:
            if r not in self.regs:
                self.regs.add(r)
                regs.append(r)
        for m in ios.input_mem:
            spans = self._mem[m.space]
            if not spans.covers(m.offset, m.end):
                pieces += [MemRegion(m.space, s, e - s)
                           for s, e in spans.uncovered(m.offset, m.end)]
                spans.add(m.offset, m.end)
        return regs, pieces

    def wrote(self, ios):
        """Record the outputs of an instruction whose step succeeded."""
        for r in ios.output_regs:
            self.regs.add(r)
            self._written_regs.add(r)
        for m in ios.output_mem:
            self._mem[m.space].add(m.offset, m.end)
            self._written[m.space].add(m.offset, m.end)

    def close(self, dma_slots) -> Footprint:
        """The footprint, less the destinations of DMAs that have not
        landed (call after the simulator's sync)."""
        for slot in dma_slots:
            if slot.active and not slot.applied:
                self._written[slot.dst.space].remove(slot.dst.offset, slot.dst.end)
        return Footprint(frozenset(self._written_regs),
                         tuple((sp, tuple(iv)) for sp, iv in self._written.items()))
