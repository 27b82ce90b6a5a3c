"""Cycle-granular execution-unit utilization (bucket width 1 reproduces the
single-cycle view; DMA completion cycles are annotated onto the MXU series
so starvation lines up visually with transfer arrivals)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..sim import DMA_COMPLETE, UNIT_BUSY, PerfEvent
from ..isa import Unit
from . import MAX_SAMPLES, AnalysisError


@dataclass
class UtilizationSeries:
    unit: str
    bucket_width: int
    samples: List[Tuple[int, float]]            # (bucket start cycle, busy fraction)
    annotations: List[Tuple[int, int]] = field(default_factory=list)  # (cycle, dma_id)

    def to_json(self):
        # a series holds few distinct fractions (two at bucket width 1), so
        # each is rounded once
        rounded = {f: round(f, 6) for f in {f for _, f in self.samples}}
        return {"unit": self.unit, "bucket_width": self.bucket_width,
                "samples": [[c, rounded[f]] for c, f in self.samples],
                "annotations": self.annotations}


def analyze_utilization(events: List[PerfEvent],
                        bucket_width: int = 1) -> Dict[str, UtilizationSeries]:
    if bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    busy: Dict[str, List[Tuple[int, int]]] = {u.value: [] for u in Unit}
    completions: List[Tuple[int, int]] = []
    end = 0
    for ev in events:
        end = max(end, ev.cycle)
        if ev.kind == UNIT_BUSY:
            busy[ev.unit].append((ev.cycle, ev.until))
            end = max(end, ev.until)
        elif ev.kind == DMA_COMPLETE:
            completions.append((ev.cycle, ev.dma_id))

    n_buckets = max(1, -(-end // bucket_width)) if end else 0
    if n_buckets > MAX_SAMPLES:
        raise AnalysisError(
            f"utilization to cycle {end} at bucket width {bucket_width} is "
            f"{n_buckets} samples per unit, over the limit of {MAX_SAMPLES}; "
            f"the smallest bucket width that fits is {-(-end // MAX_SAMPLES)} "
            "(--bucket-width)")
    out = {}
    for unit, intervals in busy.items():
        frac = [0.0] * n_buckets
        for s, e in intervals:
            b = s // bucket_width
            while b < n_buckets and b * bucket_width < e:
                lo = max(s, b * bucket_width)
                hi = min(e, (b + 1) * bucket_width)
                frac[b] += (hi - lo) / bucket_width
                b += 1
        series = UtilizationSeries(unit, bucket_width,
                                   [(b * bucket_width, frac[b]) for b in range(n_buckets)])
        if unit == Unit.MXU.value:
            series.annotations = completions
        out[unit] = series
    return out
