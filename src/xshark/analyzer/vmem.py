"""VMEM page usage and fragmentation.

Pages are 64 bytes; the scratchpad is viewed as 128 equal buckets of whole
pages (256 pages each at the default 2 MiB; SimConfig rejects a capacity
that does not split this way). A page is "used" once something reads it
after a write; written-but-never-read pages are "unused". For the free-space
series a page is live from its first write to its last read inside the
window (written-never-read pages stay live to the window end; read-only
pages are live from the window start to their last read - the conservative
choices for suggesting where a transfer could land).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..isa import DEFAULT_VMEM_CAPACITY, MemSpace, PAGE_BYTES, VMEM_BUCKETS
from ..sim import MEM_READ, MEM_WRITE, PerfEvent


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
        if not self.samples:
            return self.capacity
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


def _longest_run(free: np.ndarray) -> int:
    if not free.any():
        return 0
    # boundaries of runs of True
    padded = np.concatenate(([False], free, [False]))
    diff = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diff == 1)
    ends = np.flatnonzero(diff == -1)
    return int((ends - starts).max())


def analyze_vmem(events: List[PerfEvent], sample_interval: int = 64,
                 capacity: int = DEFAULT_VMEM_CAPACITY) -> VmemPageStats:
    if sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    n_pages = capacity // PAGE_BYTES
    big = np.iinfo(np.int64).max
    first_write = np.full(n_pages, big, dtype=np.int64)
    first_read = np.full(n_pages, big, dtype=np.int64)
    used_since = np.full(n_pages, big, dtype=np.int64)   # first read-after-write
    last_read = np.full(n_pages, -1, dtype=np.int64)
    end = 0

    for ev in events:
        end = max(end, ev.cycle)
        if ev.kind != MEM_READ and ev.kind != MEM_WRITE:
            continue
        m = ev.region
        if m is None or m.space is not MemSpace.VMEM:
            continue
        lo = m.offset // PAGE_BYTES
        hi = (m.end + PAGE_BYTES - 1) // PAGE_BYTES
        if ev.kind == MEM_WRITE:
            first_write[lo:hi] = np.minimum(first_write[lo:hi], ev.cycle)
        else:
            first_read[lo:hi] = np.minimum(first_read[lo:hi], ev.cycle)
            last_read[lo:hi] = np.maximum(last_read[lo:hi], ev.cycle)
            seg = used_since[lo:hi]
            seg[(first_write[lo:hi] <= ev.cycle) & (seg == big)] = ev.cycle

    written_pages = first_write < big
    any_read = first_read < big
    used_pages = used_since < big
    touched = written_pages | any_read
    # liveness interval per page (conservative on partial information)
    live_start = np.minimum(first_write, first_read)
    live_end = np.where(written_pages & ~used_pages, end, last_read)

    samples = list(range(0, end + 1, sample_interval)) if end else [0]
    total_free, largest, bucket_used, bucket_written = [], [], [], []
    for t in samples:
        live = touched & (live_start <= t) & (t <= live_end)
        free = ~live
        total_free.append(int(free.sum()) * PAGE_BYTES)
        largest.append(_longest_run(free) * PAGE_BYTES)
        used_now = (used_since <= t).reshape(VMEM_BUCKETS, -1).sum(axis=1)
        written_now = (first_write <= t).reshape(VMEM_BUCKETS, -1).sum(axis=1)
        bucket_used.append(used_now.astype(int).tolist())
        bucket_written.append(written_now.astype(int).tolist())

    states = {
        "never_touched": int((~touched).sum()),
        "used": int(used_pages.sum()),
        "unused": int((written_pages & ~used_pages).sum()),
        "read_only": int((any_read & ~written_pages).sum()),
    }
    return VmemPageStats(capacity, sample_interval, samples, total_free,
                         largest, bucket_used, bucket_written, states)
