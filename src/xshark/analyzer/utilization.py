"""Cycle-granular execution-unit utilization (bucket width 1 reproduces the
single-cycle view; DMA completion cycles are annotated onto the MXU series
so starvation lines up visually with transfer arrivals).

A series is stored as runs of buckets of equal busy fraction, found from the
busy intervals' change points, sorted once: its cost grows with the events,
not with the cycles they span (docs/reports.md, "Utilization")."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim import DMA_COMPLETE, UNIT_BUSY, PerfEvent
from ..isa import Unit
from . import MAX_SAMPLES, AnalysisError, sample_scale


@dataclass
class UtilizationSeries:
    unit: str
    bucket_width: int
    # (first bucket's start cycle, last bucket's end cycle, busy fraction);
    # the runs tile the series, and neighbours differ in fraction
    runs: List[Tuple[int, int, float]]
    annotations: List[Tuple[int, int]] = field(default_factory=list)  # (cycle, dma_id)


def analyze_utilization(events: List[PerfEvent], bucket_width: Optional[int] = None
                        ) -> Dict[str, UtilizationSeries]:
    """Each unit's series, in buckets of `bucket_width` cycles or, without
    one, of sample_scale(end) cycles, `end` being the log's last cycle."""
    if bucket_width is not None and bucket_width < 1:
        raise ValueError("bucket_width must be >= 1")
    busy: Dict[str, List[Tuple[int, int]]] = {u.value: [] for u in Unit}
    completions: List[Tuple[int, int]] = []
    end = 0
    for ev in events:
        if ev.cycle > end:
            end = ev.cycle
        if ev.kind == UNIT_BUSY:
            busy[ev.unit].append((ev.cycle, ev.until))
            if ev.until > end:
                end = ev.until
        elif ev.kind == DMA_COMPLETE:
            completions.append((ev.cycle, ev.dma_id))

    if bucket_width is None:
        bucket_width = sample_scale(end)
    n_buckets = -(-end // bucket_width)
    if n_buckets > MAX_SAMPLES:
        raise AnalysisError(
            f"utilization to cycle {end} at bucket width {bucket_width} is "
            f"{n_buckets} samples per unit, over the limit of {MAX_SAMPLES}; "
            f"the smallest bucket width that fits is {-(-end // MAX_SAMPLES)} "
            "(--bucket-width)")
    out = {}
    for unit, intervals in busy.items():
        series = UtilizationSeries(unit, bucket_width,
                                   _runs(intervals, bucket_width, n_buckets))
        if unit == Unit.MXU.value:
            series.annotations = completions
        out[unit] = series
    return out


def _runs(intervals: List[Tuple[int, int]], w: int,
          n_buckets: int) -> List[Tuple[int, int, float]]:
    """The runs of the per-bucket busy fraction of `intervals` over
    `n_buckets` buckets of width `w`. Interval [s, e) adds (hi - lo) / w to
    each bucket [lo, hi) it meets, in interval order; that is 1.0 for a
    bucket it covers whole, so a bucket no interval covers in part holds
    the count of those that cover it whole. A bucket some interval covers
    in part (one holding an endpoint) sums its shares one by one in
    interval order, as a per-bucket loop would."""
    opens: Dict[int, List[int]] = {}     # bucket -> intervals covering it whole from there
    closes: Dict[int, List[int]] = {}    # bucket -> intervals no longer covering it
    parts: Dict[int, List[Tuple[int, float]]] = {}  # bucket -> (interval, share)
    for i, (s, e) in enumerate(intervals):
        lo, hi = -(-s // w), e // w      # the buckets inside [s, e)
        if lo < hi:
            opens.setdefault(lo, []).append(i)
            closes.setdefault(hi, []).append(i)
        if s % w or e % w:
            first, stop = s // w, -(-e // w)    # the buckets [s, e) meets
            for b in {first, stop - 1}:
                if first <= b < stop and not lo <= b < hi:
                    share = (min(e, (b + 1) * w) - max(s, b * w)) / w
                    parts.setdefault(b, []).append((i, share))

    runs: List[Tuple[int, int, float]] = []

    def add(a: int, b: int, f: float) -> None:       # buckets [a, b) at f
        if a < b:
            if runs and runs[-1][2] == f:
                runs[-1] = (runs[-1][0], b * w, f)
            else:
                runs.append((a * w, b * w, f))

    active, at = set(), 0
    for p in sorted(opens.keys() | closes.keys() | parts.keys()):
        add(at, p, float(len(active)))
        active.difference_update(closes.get(p, ()))
        active.update(opens.get(p, ()))
        at = p
        if p in parts:
            f = 0.0
            for _, share in sorted(parts[p] + [(i, 1.0) for i in active]):
                f += share
            add(p, p + 1, f)
            at = p + 1
    add(at, n_buckets, float(len(active)))
    return runs
