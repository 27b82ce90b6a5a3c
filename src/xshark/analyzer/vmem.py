"""VMEM page usage and fragmentation (docs/reports.md, "VMEM pages").

Pages are 64 bytes; the scratchpad is viewed as 128 equal buckets of whole
pages (256 pages each at the default 2 MiB; SimConfig rejects a capacity
that does not split this way). A page is "used" once something reads it
after a write; written-but-never-read pages are "unused". For the free-space
series a page is live from the first of its first write and first read to
its last read inside the window (written-never-read pages stay live to the
window end) - the conservative choice for suggesting where a transfer could
land.

The sweep visits only the pages the log touches, and only when one opens or
closes: its cost grows with the touched pages and events, not with the
32,768 pages or the samples (the 64-tile starvation replay touches 1,088
pages, the checkerboard kernel 16,384).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional

from .. import gc_paused
from ..isa import DEFAULT_VMEM_CAPACITY, MemSpace, PAGE_BYTES, VMEM_BUCKETS
from ..sim import MEM_READ, MEM_WRITE, PerfEvent
from . import MAX_SAMPLES, AnalysisError, sample_scale


@dataclass
class VmemPageStats:
    capacity: int
    sample_interval: int
    samples: List[int]
    total_free: List[int]                 # bytes, per sample
    largest_contiguous_free: List[int]    # bytes, per sample
    bucket_used: List[List[int]]          # per sample: used pages per bucket
    bucket_written: List[List[int]]       # per sample: written pages per bucket
    page_states: Dict[str, int] = field(default_factory=dict)

    @property
    def n_pages(self) -> int:
        return self.capacity // PAGE_BYTES

    @property
    def bucket_pages(self) -> int:
        return self.n_pages // VMEM_BUCKETS

    def largest_contiguous_at(self, cycle: int) -> int:
        i = min(max(cycle, 0) // self.sample_interval, len(self.samples) - 1)
        return self.largest_contiguous_free[i]

    def to_json(self):
        return {"capacity": self.capacity, "page_bytes": PAGE_BYTES,
                "buckets": VMEM_BUCKETS, "bucket_pages": self.bucket_pages,
                "sample_interval": self.sample_interval,
                "samples": self.samples, "total_free": self.total_free,
                "largest_contiguous_free": self.largest_contiguous_free,
                "page_states": self.page_states,
                "bucket_used": self.bucket_used,
                "bucket_written": self.bucket_written}


@gc_paused
def analyze_vmem(events: List[PerfEvent], sample_interval: Optional[int] = None,
                 capacity: int = DEFAULT_VMEM_CAPACITY) -> VmemPageStats:
    """The page statistics of VMEM, sampled every `sample_interval` cycles
    or, without one, every 64 * sample_scale(end) cycles, `end` being the
    log's last cycle."""
    if sample_interval is not None and sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    n_pages = capacity // PAGE_BYTES
    # page -> cycle, for the pages touched; used_since is the first read (in
    # log order) at or after a write already seen
    first_write, first_read, last_read, used_since = {}, {}, {}, {}
    end = 0

    for ev in events:
        cycle = ev.cycle
        end = max(end, cycle)
        if ev.kind != MEM_READ and ev.kind != MEM_WRITE:
            continue
        m = ev.region
        if m is None or m.space is not MemSpace.VMEM:
            continue
        pages = range(m.offset // PAGE_BYTES,
                      min((m.end + PAGE_BYTES - 1) // PAGE_BYTES, n_pages))
        if ev.kind == MEM_WRITE:
            for p in pages:
                if first_write.get(p, cycle) >= cycle:
                    first_write[p] = cycle
            continue
        for p in pages:
            if first_read.get(p, cycle) >= cycle:
                first_read[p] = cycle
            if last_read.get(p, cycle) <= cycle:
                last_read[p] = cycle
            if p not in used_since and first_write.get(p, cycle + 1) <= cycle:
                used_since[p] = cycle

    if sample_interval is None:
        sample_interval = 64 * sample_scale(end)
    if end // sample_interval >= MAX_SAMPLES:
        raise AnalysisError(
            f"VMEM samples to cycle {end} at interval {sample_interval} are "
            f"{end // sample_interval + 1}, over the limit of {MAX_SAMPLES}; "
            f"the smallest sample interval that fits is {end // MAX_SAMPLES + 1} "
            "(--sample-interval)")

    # liveness interval per touched page (conservative on partial
    # information); no cycle in the log is past `end`
    opens, closes = [], []
    touched = first_write.keys() | first_read.keys()
    for p in touched:
        start = min(first_write.get(p, end), first_read.get(p, end))
        stop = (end if p in first_write and p not in used_since
                else last_read[p])
        if start <= stop:
            opens.append((start, p))
            closes.append((stop, p))
    opens.sort()
    closes.sort()

    samples = list(range(0, end + 1, sample_interval)) if end else [0]
    total_free, largest = [], []
    runs = _FreeRuns(n_pages)
    i = j = 0
    for t in samples:
        while i < len(opens) and opens[i][0] <= t:
            runs.occupy(opens[i][1])
            i += 1
        while j < len(closes) and closes[j][0] < t:
            runs.release(closes[j][1])
            j += 1
        total_free.append((n_pages - len(runs.live)) * PAGE_BYTES)
        largest.append(runs.longest() * PAGE_BYTES)

    bucket_pages = n_pages // VMEM_BUCKETS
    states = {
        "never_touched": n_pages - len(touched),
        "used": len(used_since),
        "unused": len(first_write.keys() - used_since.keys()),
        "read_only": len(first_read.keys() - first_write.keys()),
    }
    return VmemPageStats(capacity, sample_interval, samples, total_free, largest,
                         _bucket_counts(used_since, samples, bucket_pages),
                         _bucket_counts(first_write, samples, bucket_pages),
                         states)


def _bucket_counts(since: Dict[int, int], samples: List[int],
                   bucket_pages: int) -> List[List[int]]:
    """Per sample t, the pages of each bucket whose `since` cycle is <= t.
    A sample that adds no page repeats the previous sample's list."""
    order = sorted((cycle, p // bucket_pages) for p, cycle in since.items())
    counts, rows, k = [0] * VMEM_BUCKETS, [], 0
    for t in samples:
        k0 = k
        while k < len(order) and order[k][0] <= t:
            counts[order[k][1]] += 1
            k += 1
        rows.append(list(counts) if k > k0 or not rows else rows[-1])
    return rows


class _FreeRuns:
    """The free runs between the live pages of [0, n_pages): a sorted live
    list, a count of the runs of each length and a max-heap of lengths. A
    page that opens or closes changes only the runs next to it, so neither
    costs a scan of the live list; a heap entry whose count fell to zero is
    dropped when it reaches the top."""

    def __init__(self, n_pages: int):
        self.n_pages = n_pages
        self.live: List[int] = []
        self.count = {n_pages: 1}
        self.heap = [-n_pages]

    def _neighbours(self, k: int):
        live = self.live
        return (live[k - 1] if k else -1,
                live[k] if k < len(live) else self.n_pages)

    def _add(self, run: int, n: int) -> None:
        c = self.count.get(run, 0) + n
        self.count[run] = c
        if n > 0 and c == n:
            heappush(self.heap, -run)

    def occupy(self, p: int) -> None:
        k = bisect_left(self.live, p)
        a, b = self._neighbours(k)
        self.live.insert(k, p)
        self._add(b - a - 1, -1)
        self._add(p - a - 1, 1)
        self._add(b - p - 1, 1)

    def release(self, p: int) -> None:
        k = bisect_left(self.live, p)
        del self.live[k]
        a, b = self._neighbours(k)
        self._add(p - a - 1, -1)
        self._add(b - p - 1, -1)
        self._add(b - a - 1, 1)

    def longest(self) -> int:
        heap = self.heap
        while not self.count[-heap[0]]:
            heappop(heap)
        return -heap[0]
