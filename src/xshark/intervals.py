"""Byte-granular interval sets and last-writer interval maps.

Intervals are half-open [start, end) over a single address space. Both
classes keep a sorted list of disjoint spans; every operation bisects to the
first span it overlaps and visits only the spans it overlaps, and an update
splices its pieces into the list in place. `IntervalSet` merges touching
spans. `IntervalMap` keeps touching spans apart (each span is one store's
value).
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple


class IntervalSet:
    def __init__(self):
        self._spans: List[Tuple[int, int]] = []

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._spans)

    def add(self, start: int, end: int):
        if start >= end:
            return
        spans = self._spans
        i = bisect.bisect_left(spans, (start, start))
        # merge any neighbor that touches [start, end)
        if i > 0 and spans[i - 1][1] >= start:
            i -= 1
        j = i
        while j < len(spans) and spans[j][0] <= end:
            start = min(start, spans[j][0])
            end = max(end, spans[j][1])
            j += 1
        spans[i:j] = [(start, end)]

    def covers(self, start: int, end: int) -> bool:
        if start >= end:
            return True
        i = bisect.bisect_right(self._spans, (start, float("inf"))) - 1
        return i >= 0 and self._spans[i][0] <= start and self._spans[i][1] >= end

    def remove(self, start: int, end: int):
        if start >= end:
            return
        spans = self._spans
        i = _first_overlap(spans, start)
        j = bisect.bisect_left(spans, (end,), i)     # first span at/after end
        pieces = []
        if i < j:
            s, _ = spans[i]
            if s < start:
                pieces.append((s, start))
            _, e = spans[j - 1]
            if e > end:
                pieces.append((end, e))
        spans[i:j] = pieces

    def uncovered(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-spans of [start, end) not present in the set."""
        out = []
        pos = start
        spans = self._spans
        for k in range(_first_overlap(spans, start), len(spans)):
            s, e = spans[k]
            if s >= end:
                break
            if s > pos:
                out.append((pos, s))
            pos = e
        if pos < end:
            out.append((pos, end))
        return out


class IntervalMap:
    """Maps byte spans to an integer value (e.g. last-writer stream index).

    Later stores overwrite overlapping parts of earlier ones.
    """

    def __init__(self):
        self._spans: List[Tuple[int, int, int]] = []  # (start, end, value)

    def store(self, start: int, end: int, value: int):
        if start >= end:
            return
        spans = self._spans
        i = _first_overlap(spans, start)
        j = bisect.bisect_left(spans, (end,), i)     # first span at/after end
        pieces = [(start, end, value)]
        if i < j:
            s, _, v = spans[i]
            if s < start:
                pieces.insert(0, (s, start, v))
            _, e, v = spans[j - 1]
            if e > end:
                pieces.append((end, e, v))
        spans[i:j] = pieces

    def lookup(self, start: int, end: int) -> List[Tuple[int, int, int]]:
        """Spans of [start, end) that have a value, with their values; none
        for an empty range."""
        out = []
        if start >= end:
            return out
        spans = self._spans
        for k in range(_first_overlap(spans, start), len(spans)):
            s, e, v = spans[k]
            if s >= end:
                break
            out.append((max(s, start), min(e, end), v))
        return out


def _first_overlap(spans, start: int) -> int:
    """Index of the first of the sorted disjoint `spans` that ends after
    `start`."""
    i = bisect.bisect_left(spans, (start,))
    if i and spans[i - 1][1] > start:
        i -= 1
    return i
