"""Byte-granular interval sets and last-writer interval maps.

Intervals are half-open [start, end) over a single address space. Both
classes keep a sorted list of disjoint spans. `IntervalSet` merges touching
spans; its add/covers/overlaps bisect, remove/uncovered walk the list.
`IntervalMap` keeps touching spans apart (each span is one store's value);
store and lookup bisect to the first span they overlap and visit only the
spans they overlap, and store splices its pieces into the list in place.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Tuple


class IntervalSet:
    def __init__(self):
        self._spans: List[Tuple[int, int]] = []

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._spans)

    @property
    def total(self) -> int:
        return sum(e - s for s, e in self._spans)

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

    def overlaps(self, start: int, end: int) -> bool:
        if start >= end:
            return False
        i = bisect.bisect_left(self._spans, (start, start))
        if i > 0 and self._spans[i - 1][1] > start:
            return True
        return i < len(self._spans) and self._spans[i][0] < end

    def remove(self, start: int, end: int):
        if start >= end:
            return
        out = []
        for s, e in self._spans:
            if e <= start or s >= end:
                out.append((s, e))
                continue
            if s < start:
                out.append((s, start))
            if e > end:
                out.append((end, e))
        self._spans = out

    def uncovered(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-spans of [start, end) not present in the set."""
        out = []
        pos = start
        for s, e in self._spans:
            if e <= start:
                continue
            if s >= end:
                break
            if s > pos:
                out.append((pos, s))
            pos = max(pos, e)
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
        i = self._first_overlap(start)
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
        for k in range(self._first_overlap(start), len(spans)):
            s, e, v = spans[k]
            if s >= end:
                break
            out.append((max(s, start), min(e, end), v))
        return out

    def _first_overlap(self, start: int) -> int:
        """Index of the first span that ends after `start`."""
        i = bisect.bisect_left(self._spans, (start,))
        if i and self._spans[i - 1][1] > start:
            i -= 1
        return i
