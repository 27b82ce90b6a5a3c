"""IntervalSet/IntervalMap vs the per-byte oracle."""

import random

import pytest

from xshark.intervals import IntervalMap, IntervalSet

from oracles import ByteMapOracle, ByteSetOracle


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


@pytest.mark.parametrize("seed", range(25))
def test_interval_map_matches_byte_oracle(seed):
    r = random.Random(seed)
    m, oracle = IntervalMap(), ByteMapOracle()
    prev = (0, 0)
    for _ in range(200):
        shape = r.random()
        if shape < 0.2:                       # touch the previous store
            if r.random() < 0.5:
                a, b = prev[1], prev[1] + r.randrange(0, 20)
            else:
                a, b = max(0, prev[0] - r.randrange(0, 20)), prev[0]
        elif shape < 0.35:                    # nest inside the previous store
            a = r.randrange(prev[0], prev[1] + 1)
            b = r.randrange(a, prev[1] + 1)
        else:
            a = r.randrange(0, 300)
            b = a + r.randrange(0, 40)
        value = r.randrange(0, 6)             # repeats: touching equal values
        if r.random() < 0.6:
            m.store(a, b, value)
            oracle.store(a, b, value)
            prev = (a, b)
        assert m.lookup(a, b) == oracle.lookup(a, b)    # empty when a == b
        assert m.lookup(b, a) == oracle.lookup(b, a)
        assert m.lookup(0, 400) == oracle.lookup(0, 400)


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


def test_interval_map_empty_range_has_no_spans():
    m = IntervalMap()
    m.store(100, 200, 1)
    assert [m.lookup(a, a) for a in (50, 100, 150, 199, 200)] == [[]] * 5
    assert m.lookup(150, 120) == []
