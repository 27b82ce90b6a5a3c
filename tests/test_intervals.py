"""IntervalSet/IntervalMap vs the per-byte oracle."""

import random

import pytest

from xshark.intervals import IntervalMap, IntervalSet

from oracles import ByteSetOracle


@pytest.mark.parametrize("seed", range(25))
def test_interval_set_matches_byte_oracle(seed):
    r = random.Random(seed)
    ivs, oracle = IntervalSet(), ByteSetOracle()
    for _ in range(200):
        a = r.randrange(0, 300)
        b = a + r.randrange(0, 40)
        op = r.random()
        if op < 0.55:
            ivs.add(a, b)
            oracle.add(a, b)
        elif op < 0.70:
            ivs.remove(a, b)
            oracle.remove(a, b)
        else:
            assert ivs.covers(a, b) == oracle.covers(a, b)
            assert ivs.overlaps(a, b) == oracle.overlaps(a, b)
            assert ivs.uncovered(a, b) == oracle.uncovered(a, b)
        assert list(ivs) == oracle.spans()
        assert ivs.total == len(oracle.bytes)


def test_adjacent_spans_merge():
    ivs = IntervalSet()
    ivs.add(0, 10)
    ivs.add(10, 20)
    assert list(ivs) == [(0, 20)]


def test_interval_map_last_writer():
    m = IntervalMap()
    m.store(0, 100, 1)
    m.store(50, 60, 2)
    m.store(90, 150, 3)
    assert m.lookup(0, 100) == [(0, 50, 1), (50, 60, 2), (60, 90, 1), (90, 100, 3)]
