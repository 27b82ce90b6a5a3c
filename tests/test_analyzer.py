"""Analyzer passes against spec examples and the independent oracles."""

import dataclasses
import gc
import json
import os
import re
import tempfile
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xshark.isa import PAGE_BYTES, VMEM_BUCKETS, MemRegion, MemSpace, Unit
from xshark.recorder import record
from xshark.replayer import replay
from xshark.sim import (DMA_COMPLETE, INSTR_RETIRE, MEM_READ, MEM_WRITE,
                        UNIT_BUSY, Breakpoint, PerfEvent, RecordingTracker,
                        SimConfig)
from xshark.analyzer import (AnalysisError, analyze_dma, analyze_utilization,
                             analyze_vmem, apply_and_verify,
                             build_dependency_graph, compute_backtails,
                             suggest, write_report)
from xshark.analyzer import utilization as utilization_module
from xshark.analyzer import vmem as vmem_module
from xshark.analyzer.deps import RELAXED_CHAIN_CAP
from xshark.analyzer.suggest import Suggestion, build_schedule
from xshark.analyzer.svg import render_dma_timeline, render_vmem_heatmap
from xshark.workloads import (gen_allgather_kernel, gen_checkerboard_kernel,
                              gen_random_kernel, gen_starvation_kernel)

from helpers import asm_run, asm_session, bucket_samples, earliest_position
from oracles import analyze_utilization as util_oracle
from oracles import analyze_vmem as vmem_oracle
from oracles import bruteforce_dep_oracle, dma_oracle


def _record_and_replay(src, config=None, n=100_000):
    config = config or SimConfig()
    _, session = asm_session(src, config)
    res = record(session, Breakpoint(0), n)
    tracker = RecordingTracker()
    rep = replay(res.trace, config, tracker)
    return res, rep, tracker.events, config


# ----------------------------------------------------------------- DMA pass

DMA_KERNEL = """
  s_ldi s0, 0x1000
  s_ldi s1, 0x200
  s_ldi s2, 256
  dma_issue 0, hbm>vmem, s0, s1, s2
  s_ldi s3, 1
  dma_wait 0
  halt
"""


def test_analyze_dma_stall_partition_98_8():
    _, _, events, _ = _record_and_replay(DMA_KERNEL)
    (rec,) = analyze_dma(events)
    assert rec.wait_cycle == rec.issue_cycle + 2
    assert rec.stall_base == 98 and rec.stall_transfer == 8
    assert rec.scenario == "base_then_transfer"
    (o,) = dma_oracle([{"issue_cycle": rec.issue_cycle, "link": rec.link,
                        "size": rec.size, "wait_cycle": rec.wait_cycle}],
                      t_base=100, bandwidth=32)
    assert (rec.stall_base, rec.stall_transfer, rec.complete_cycle) == \
        (o.stall_base, o.stall_transfer, o.complete)


def test_analyze_dma_slack_scenario():
    filler = "\n".join("  s_add s3, s3, s3" for _ in range(160))
    src = f"""
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      s_ldi s3, 1
{filler}
      dma_wait 0
      halt
    """
    _, _, events, _ = _record_and_replay(src)
    (rec,) = analyze_dma(events)
    assert rec.scenario == "slack"
    assert rec.slack == rec.wait_cycle - rec.complete_cycle > 0
    assert rec.stall_total == 0


def test_analyze_dma_wait_without_issue_errors():
    from xshark.sim import PerfEvent
    events = [PerfEvent(5, "instr_issue", pc=0, idx=0, opcode="DMA_WAIT",
                        unit="DMA", slot=3, dma_id=17)]
    with pytest.raises(AnalysisError):
        analyze_dma(events)


def test_allgather_baseline_first_nine_dmas_base_dominated():
    src = gen_allgather_kernel()
    _, _, events, _ = _record_and_replay(src)
    records = analyze_dma(events)
    setup = records[:9]
    assert all(r.scenario == "base_then_transfer" for r in setup)
    assert all(r.stall_base > r.stall_transfer for r in setup)


def test_fig3_trichotomy_over_random_corpus():
    for seed in range(12):
        g = gen_random_kernel(seed, size=150)
        _, _, events, _ = _record_and_replay(g.text)
        for rec in analyze_dma(events):
            flags = [rec.scenario == "base_then_transfer" and rec.stall_base > 0
                     and rec.wait_cycle < rec.base_done_cycle,
                     rec.scenario == "transfer_only" and rec.stall_base == 0
                     and rec.stall_transfer > 0
                     and rec.base_done_cycle <= rec.wait_cycle < rec.complete_cycle,
                     rec.scenario == "slack" and rec.stall_total == 0
                     and rec.slack >= 0 and rec.wait_cycle >= rec.complete_cycle,
                     rec.scenario in ("unwaited", "incomplete")]
            assert sum(bool(f) for f in flags) == 1, rec.to_json()


# ------------------------------------------------------------- utilization

def test_back_to_back_mxu_fully_busy():
    src = """
      s_ldi s0, 0
      s_ldi s1, 0x400
      s_ldi s2, 0x800
      mxu_mm s0, s1, s2
      mxu_mm s0, s1, s2
      mxu_mm s0, s1, s2
      halt
    """
    _, _, tracker = asm_run(src)
    series = analyze_utilization(tracker.events, bucket_width=1)["MXU"]
    busy = [f for c, f in bucket_samples(series) if 3 <= c < 99]
    assert busy and all(f == 1.0 for f in busy)


def test_empty_program_all_zero_series():
    _, _, tracker = asm_run("halt\n")
    series = analyze_utilization(tracker.events, bucket_width=1)
    assert all(f == 0.0 for c, f in bucket_samples(series["MXU"]))


def test_starvation_mxu_rises_coincide_with_dma_completions():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=8, prefetch_depth=1))
    series = analyze_utilization(tracker.events, bucket_width=1)["MXU"]
    samples = dict(bucket_samples(series))
    assert series.annotations, "MXU series carries DMA completion annotations"
    for cycle, _dma in series.annotations[2:]:      # skip the B-tile preloads
        before = samples.get(cycle - 2, 0.0)
        after = max(samples.get(cycle + k, 0.0) for k in range(1, 8))
        assert before == 0.0 and after == 1.0


def test_busy_fraction_bucketized():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    for width in (1, 16, 64):
        for unit, series in analyze_utilization(tracker.events, width).items():
            assert all(0.0 <= f <= 1.0 for _, f in bucket_samples(series))
            starts = [c for c, _ in bucket_samples(series)]
            assert starts == list(range(0, starts[-1] + 1, width))


def _busy(cycle, until, unit="MXU"):
    return PerfEvent(cycle, UNIT_BUSY, pc=0, idx=0, unit=unit, until=until)


@st.composite
def _busy_logs(draw):
    """unit_busy events, mostly MXU, that overlap, touch the previous one,
    have zero length or end before they start, some running past the last
    event, shuffled among dma_complete events; and a bucket width."""
    busy, until = [], 0
    for _ in range(draw(st.integers(0, 24))):
        unit = draw(st.sampled_from(["MXU"] * 4 + [u.value for u in Unit]))
        start = draw(st.one_of(st.just(until), st.integers(0, 300)))
        length = draw(st.one_of(st.just(0), st.integers(1, 40),
                                st.integers(150, 600), st.integers(-30, -1)))
        until = max(0, start + length)
        busy.append(_busy(start, until, unit))
    done = draw(st.lists(st.builds(PerfEvent, st.integers(0, 400),
                                   st.just(DMA_COMPLETE), dma_id=st.integers(0, 9)),
                         max_size=6))
    return draw(st.permutations(busy + done)), draw(st.integers(1, 100))


@settings(max_examples=300, deadline=None)
@given(_busy_logs())
@example(([], 1))
@example(([_busy(2, 5), _busy(0, 3), _busy(0, 3), _busy(1, 3)], 3))
@example(([_busy(3, 2600), _busy(10, 20), _busy(2599, 2601, "DMA")], 1))
@example(([_busy(3, 6200), _busy(7, 11), _busy(2599, 2601, "DMA")], 3))
def test_utilization_matches_the_per_bucket_oracle(case):
    """The runs expand to the oracle's samples bit for bit, neighbouring
    runs differ in fraction, and the report's utilization section and CSVs
    are the oracle writer's bytes. In the first example below the empty
    log, bucket 0 sums 1/3 + 1 + 1 + 2/3 in log order, which is not 3.0;
    the last two hold runs longer than the writer's batch."""
    events, width = case
    series, want = analyze_utilization(events, width), util_oracle(events, width)
    assert series.keys() == want.keys()
    for unit, s in series.items():
        assert ([(c, f.hex()) for c, f in bucket_samples(s)]
                == [(c, f.hex()) for c, f in want[unit].samples]), unit
        assert s.annotations == want[unit].annotations
        assert all(a[1] == b[0] and a[2] != b[2]       # neighbours differ
                   for a, b in zip(s.runs, s.runs[1:])), unit
    with tempfile.TemporaryDirectory() as out:
        write_report(out, utilization=series)
        files = {"report.json": json.dumps(
            {"utilization": {u: o.to_json() for u, o in want.items()}},
            indent=1, sort_keys=True)}
        files.update((f"util_{u.lower()}.csv", o.to_csv()) for u, o in want.items())
        for name, text in files.items():
            with open(os.path.join(out, name), newline="") as fh:
                difference = _first_difference(fh.read(), text)
            assert difference is None, (name, difference)


def test_write_report_leaves_no_cyclic_garbage(tmp_path):
    """Everything write_report makes is freed by reference counting: with
    the collector off, a collection right after it finds nothing
    unreachable."""
    _, _, tracker = asm_run(gen_random_kernel(3, size=300).text)
    events = tracker.events
    graph = build_dependency_graph(events)
    sections = dict(dma_records=analyze_dma(events),
                    utilization=analyze_utilization(events),
                    vmem=analyze_vmem(events), graph=graph,
                    backtails=compute_backtails(graph), regions={"all": [0, 9]})
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        write_report(str(tmp_path), **sections)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _first_difference(got: str, want: str):
    """None when the texts are equal, else the first line (number, got,
    want) where they differ: a short failure message where pytest's diff
    of two long texts would take minutes."""
    if got == want:
        return None
    pairs = enumerate(zip_longest(got.splitlines(True), want.splitlines(True)))
    return next((n, a, b) for n, (a, b) in pairs if a != b)


def test_utilization_runs_follow_the_events_not_the_cycles():
    """One unit_busy stretched to cycle 240,000 makes a 240,000-sample
    series, yet each unit's series holds at most two runs per busy interval
    and one more."""
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    events = list(tracker.events)
    i = next(i for i, ev in enumerate(events) if ev.kind == UNIT_BUSY)
    events[i] = dataclasses.replace(events[i], until=240_000)
    series = analyze_utilization(events)
    for unit, s in series.items():
        intervals = sum(ev.kind == UNIT_BUSY and ev.unit == unit for ev in events)
        assert len(s.runs) <= 2 * intervals + 1, unit
    assert len(bucket_samples(series[events[i].unit])) == 240_000


# ------------------------------------------------------------------- VMEM

def test_page_used_after_write_then_read():
    src = """
      s_ldi s0, 0
      v_store [s0], v0
      v_load v1, [s0]
      halt
    """
    _, _, tracker = asm_run(src)
    stats = analyze_vmem(tracker.events)
    assert stats.page_states["used"] == 1
    assert stats.page_states["unused"] == 0


def test_dma_landing_unread_pages_unused():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 256
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      halt
    """
    _, _, tracker = asm_run(src)
    stats = analyze_vmem(tracker.events)
    assert stats.page_states["unused"] == 4        # 256 B = 4 pages, never read
    assert stats.page_states["used"] == 0


def test_checkerboard_exact_fifty_percent_one_page_runs():
    _, result, tracker = asm_run(gen_checkerboard_kernel(), max_cycles=2_000_000)
    stats = analyze_vmem(tracker.events, sample_interval=4096)
    # at peak occupancy: exactly half the space free, max run one page
    peak = min(stats.total_free)
    assert peak == stats.capacity // 2
    i = stats.total_free.index(peak)
    assert stats.largest_contiguous_free[i] == 64
    assert all(l <= t for l, t in zip(stats.largest_contiguous_free,
                                      stats.total_free))
    assert len(stats.bucket_used[0]) == 128
    # half the pages touched: the sweep's worst case, checked against numpy
    assert stats.to_json() == vmem_oracle(tracker.events, 4096).to_json()


def test_heatmap_geometry_128_buckets():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=4))
    stats = analyze_vmem(tracker.events)
    assert all(len(row) == 128 for row in stats.bucket_used)
    assert sum(stats.page_states.values()) == 32768
    svg = render_vmem_heatmap(stats)
    assert svg.startswith("<svg") and "xshark" in svg


def _vmem_events(capacity):
    """Generated VMEM and HBM memory events and other events, in any cycle
    order: reads before writes, regions across or past `capacity`. Most
    regions start in the first pages or near `capacity`, and cycles are
    few, so that pages see several events, some in the same cycle."""
    offset = st.one_of(st.integers(0, 8 * PAGE_BYTES),
                       st.integers(capacity - 4 * PAGE_BYTES,
                                   capacity + 2 * PAGE_BYTES),
                       st.integers(0, capacity))
    region = st.builds(MemRegion, st.sampled_from([MemSpace.VMEM] * 3 + [MemSpace.HBM]),
                       offset, st.integers(1, 6 * PAGE_BYTES))
    mem = st.builds(PerfEvent, st.integers(0, 120),
                    st.sampled_from([MEM_READ, MEM_WRITE]), pc=st.just(0),
                    idx=st.just(0), region=region)
    other = st.builds(PerfEvent, st.integers(0, 160), st.just(INSTR_RETIRE),
                      pc=st.just(0), idx=st.just(0))
    return st.integers(0, 80).flatmap(lambda n: st.lists(
        st.one_of(mem, mem, mem, other), min_size=n, max_size=n))


@st.composite
def _vmem_cases(draw):
    capacity = draw(st.sampled_from([1, 2, 5]).map(
        lambda k: k * VMEM_BUCKETS * PAGE_BYTES))
    return draw(_vmem_events(capacity)), draw(st.integers(1, 100)), capacity


@pytest.mark.parametrize("module,analysis", [
    (utilization_module, analyze_utilization), (vmem_module, analyze_vmem)],
    ids=["utilization", "vmem"])
@pytest.mark.parametrize("end", [99, 100, 101, 1000, 12_345])
def test_series_over_the_sample_limit_names_the_smallest_width_that_fits(
        monkeypatch, module, analysis, end):
    """A series longer than MAX_SAMPLES (here 100) is an AnalysisError
    before any sample is built; the width or interval it names fits, and
    one less does not."""
    monkeypatch.setattr(module, "MAX_SAMPLES", 100)
    events = [PerfEvent(0, INSTR_RETIRE, pc=0, idx=0),
              PerfEvent(end, INSTR_RETIRE, pc=0, idx=0)]
    try:
        analysis(events, 1)
        return                                  # fits at width 1
    except AnalysisError as e:
        smallest = int(re.search(r"fits is (\d+)", str(e))[1])
    assert smallest > 1
    analysis(events, smallest)
    with pytest.raises(AnalysisError):
        analysis(events, smallest - 1)


@settings(max_examples=150, deadline=None)
@given(_vmem_cases())
@example(([], 64, VMEM_BUCKETS * PAGE_BYTES))
def test_vmem_matches_numpy_oracle_on_generated_logs(case):
    events, interval, capacity = case
    assert (analyze_vmem(events, interval, capacity).to_json()
            == vmem_oracle(events, interval, capacity).to_json())


def test_vmem_matches_numpy_oracle_on_corpus_replays():
    """The first ten kernels of the acceptance corpus, at its program sizes
    and window lengths."""
    config = SimConfig()
    for seed in range(10):
        src = gen_random_kernel(seed, size=50 + (seed * 991) % 4951).text
        _, _, events, _ = _record_and_replay(src, config,
                                             n=80 + (seed * 37) % 520)
        assert any(ev.kind == MEM_WRITE for ev in events)
        for interval in (1, 7, 64):
            assert (analyze_vmem(events, interval).to_json()
                    == vmem_oracle(events, interval).to_json()), (seed, interval)


# ------------------------------------------------------------ dependencies

def test_simple_register_edge():
    src = "s_ldi s0, 1\ns_add s1, s0, s0\nhalt\n"
    _, _, events, _ = _record_and_replay(src)
    g = build_dependency_graph(events)
    regs = [(e.dependent, e.producer) for e in g.conservative
            if e.label == "register"]
    assert (1, 0) in regs


def test_dma_metadata_pattern_relaxed_edge_lands_on_materializer():
    src = """
      .data32 0x1000: 0x9000
      s_ldi s0, 0x1000
      s_ldi s1, 0x400
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      v_load v0, [s1]
      s_mov s4, v0, 0
      s_add s4, s4, s3
      s_ldi s5, 0x600
      dma_issue 1, hbm>vmem, s4, s5, s2
      dma_wait 1
      halt
    """
    _, _, events, _ = _record_and_replay(src)
    g = build_dependency_graph(events)
    second_issue = 9
    cons = {e.producer for e in g.edges_of(second_issue)
            if e.label == "register"}
    assert 7 in cons                      # conservative: the s_add transform
    relaxed = {(e.producer, e.label) for e in g.edges_of(second_issue, relaxed=True)}
    assert (3, "vmem") in relaxed         # relaxed: the DMA that landed the metadata
    assert all(p not in {6, 7} for p, _ in relaxed)
    assert set(g.chains[second_issue]) >= {5, 6, 7}    # v_load + s_mov + s_add


# A guarded DMA_WAIT that executes reads its guard: edge (7, 6, 'register').
GUARDED_WAIT_KERNEL = """
  s_ldi s0, 0x1000
  s_ldi s1, 0x200
  s_ldi s2, 64
  s_ldi s3, 1
  s_ldi s4, 1
  dma_issue 0, hbm>vmem, s0, s1, s2
  s_cmp p1, s3, s4, eq
  @p1 dma_wait 0
  halt
"""


def test_conservative_graph_equals_bruteforce_oracle():
    sources = {f"seed {seed}": gen_random_kernel(seed, size=120).text
               for seed in (3, 11, 21, 33)}
    sources["guarded dma_wait"] = GUARDED_WAIT_KERNEL
    for name, src in sources.items():
        res, rep, events, config = _record_and_replay(src)
        graph = build_dependency_graph(events)
        got = {(e.dependent, e.producer, e.label) for e in graph.conservative}
        want = bruteforce_dep_oracle(res.trace, config)
        assert got == want, name


def test_graph_edges_point_backward():
    _, _, events, _ = _record_and_replay(gen_random_kernel(5, size=150).text)
    g = build_dependency_graph(events)
    assert all(e.producer < e.dependent for e in g.conservative)
    assert all(e.producer < e.dependent for e in g.relaxed)


def test_relaxed_no_worse_than_conservative():
    _, _, events, _ = _record_and_replay(gen_starvation_kernel(tiles=12))
    g = build_dependency_graph(events)
    for i, info in enumerate(g.tables.instrs):
        if info.opcode == "DMA_ISSUE":
            assert earliest_position(g, i, relaxed=True) <= earliest_position(g, i)


# ------------------------------------------------------------- backtails

def test_backtail_of_independent_dma_reaches_window_start():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      halt
    """
    _, _, events, _ = _record_and_replay(src)
    g = build_dependency_graph(events)
    bt = compute_backtails(g)[0]
    assert bt.earliest_index == 0
    assert bt.earliest_cycle == g.tables.window_start
    assert set(bt.block) == {0, 1, 2, 3}


def test_dma_past_the_chain_cap_keeps_its_conservative_edges_and_moves_alone():
    # RELAXED_CHAIN_CAP + 1 chained s_adds compute the source address, so the
    # chain walk gives up: the DMA has no chain and its backtail stops right
    # after the last s_add
    adds = "\n".join("  s_add s0, s0, s3" for _ in range(RELAXED_CHAIN_CAP + 1))
    src = f"""
      s_ldi s0, 0x1000
      s_ldi s3, 0
      s_ldi s1, 0x200
      s_ldi s2, 64
    {adds}
      s_ldi s5, 7
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      halt
    """
    _, _, events, _ = _record_and_replay(src)
    g = build_dependency_graph(events)
    d = 4 + RELAXED_CHAIN_CAP + 2          # after 4 s_ldi, the s_adds and s_ldi s5
    assert g.relaxed_fallback == {d} and g.chains == {}
    assert g.edges_of(d, relaxed=True) == g.edges_of(d)
    bt = compute_backtails(g)[0]
    assert (bt.issue_index, bt.earliest_index, bt.block) == (d, d - 1, (d,))
    last_add_retire = next(e.cycle for e in events if e.kind == INSTR_RETIRE
                           and e.idx == d - 2)
    assert bt.earliest_cycle == last_add_retire
    assert bt.backtail_cycles == bt.issue_cycle - bt.earliest_cycle > 0


def test_backtail_bounded_by_immediate_dependency():
    # the address register is produced right before the issue by a V_LOAD,
    # whose own input is materialized by the first DMA: backtail stops there
    src = """
      .data32 0x1000: 0x9000
      s_ldi s0, 0x1000
      s_ldi s1, 0x400
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      v_load v0, [s1]
      s_mov s4, v0 , 0
      s_ldi s5, 0x600
      dma_issue 1, hbm>vmem, s4, s5, s2
      dma_wait 1
      halt
    """
    _, _, events, _ = _record_and_replay(src.replace(" , ", ", "))
    g = build_dependency_graph(events)
    bts = compute_backtails(g)
    # insertion right after the materializing DMA issue; the interlock covers
    # the data arrival, so the earliest useful cycle is its completion
    assert bts[1].earliest_index == 4
    finish = g.tables.dma_complete[0]
    assert bts[1].earliest_cycle == finish


def test_starvation_backtails_exceed_stalls():
    _, _, events, _ = _record_and_replay(gen_starvation_kernel(tiles=24))
    g = build_dependency_graph(events)
    bts = compute_backtails(g)
    records = analyze_dma(events)
    eligible = [r for r in records[2:] if r.stall_total > 0][1:]
    assert len(eligible) >= 20
    assert all(bts[r.dma_id].backtail_cycles > r.stall_total for r in eligible)


# s5 is a chain register of the DMA: index 1 writes it and index 7 reads and
# rewrites it. Index 2 reads it between the two and is not in the chain, so
# hoisting index 7 above it would change what it reads.
WAR_READER_KERNEL = """
  s_ldi s10, 0x2000
  s_ldi s5, 0x800
  s_add s9, s5, s5
  mxu_mm s10, s10, s10
  mxu_mm s10, s10, s10
  mxu_mm s10, s10, s10
  mxu_mm s10, s10, s10
  s_add s5, s5, s5
  s_ldi s1, 0x400
  s_ldi s2, 256
  dma_issue 0, hbm>vmem, s5, s1, s2
  dma_wait 0
  v_load v0, [s1]
  halt
"""


def test_backtail_keeps_a_chain_register_reader_before_the_block():
    res, rep, events, config = _record_and_replay(WAR_READER_KERNEL)
    graph = build_dependency_graph(events)
    assert {1, 7} <= set(graph.chains[10]) and 2 not in graph.chains[10]
    bt = compute_backtails(graph)[0]
    assert bt.earliest_index == 3 and bt.block == (7, 8, 9, 10)
    (sug,) = suggest(analyze_dma(events), graph,
                     analyze_vmem(events, capacity=config.vmem_capacity))
    assert sug.proposed_position == 3
    (out,), applied = apply_and_verify(res.trace, sug, config, baseline=rep)
    assert out.verified == "verified_speedup"
    assert applied.digest == rep.digest and applied.total_stall < rep.total_stall
    # the same block hoisted above the reader changes state: never verified
    early = Suggestion(0, 10, 2, 9999, 1, 256, None, [7, 8, 9, 10])
    (out,), applied = apply_and_verify(res.trace, early, config, baseline=rep)
    assert out.verified == "unverified"
    assert applied is None or applied.digest != rep.digest


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(40, 400))
def test_backtail_block_members_are_at_or_after_the_insertion_point(seed, size):
    _, _, events, _ = _record_and_replay(gen_random_kernel(seed, size=size).text)
    for bt in compute_backtails(build_dependency_graph(events)).values():
        assert all(m >= bt.earliest_index for m in bt.block if m != bt.issue_index)


# ------------------------------------------------------------- suggestions

def _starvation_pipeline(tiles=16):
    config = SimConfig()
    _, session = asm_session(gen_starvation_kernel(tiles=tiles), config)
    res = record(session, Breakpoint(0), 100_000)
    tracker = RecordingTracker()
    rep = replay(res.trace, config, tracker)
    records = analyze_dma(tracker.events)
    graph = build_dependency_graph(tracker.events)
    vmem = analyze_vmem(tracker.events, capacity=config.vmem_capacity)
    return config, res, rep, records, graph, vmem


def test_unstalled_dma_gets_no_suggestion():
    src = gen_starvation_kernel(tiles=8, prefetch_depth=4)
    _, _, events, config = _record_and_replay(src)
    records = analyze_dma(events)
    graph = build_dependency_graph(events)
    vmem = analyze_vmem(events, capacity=config.vmem_capacity)
    sugs = suggest(records, graph, vmem)
    unstalled = {r.dma_id for r in records if r.stall_total == 0}
    assert unstalled
    assert all(s.dma_id not in unstalled for s in sugs)


def test_suggestion_suppressed_when_vmem_full():
    config, res, rep, records, graph, vmem = _starvation_pipeline()
    # pretend the scratchpad never has room
    starved = type(vmem)(vmem.capacity, vmem.sample_interval, vmem.samples,
                         vmem.total_free, [0] * len(vmem.largest_contiguous_free),
                         vmem.bucket_used, vmem.bucket_written, vmem.page_states)
    assert suggest(records, graph, starved) == []
    assert suggest(records, graph, vmem) != []


def test_apply_identity_suggestion_is_unverified():
    # a list that moves nothing replays like any other: equal state, but no
    # fewer stall cycles, so it is not verified
    config, res, rep, records, graph, vmem = _starvation_pipeline(tiles=6)
    rec = records[3]                       # a tile DMA: contiguous block
    bt = compute_backtails(graph)[rec.dma_id]
    assert list(bt.block) == list(range(min(bt.block), max(bt.block) + 1))
    identity = Suggestion(rec.dma_id, bt.issue_index, min(bt.block),
                          0, rec.stall_total, rec.size, None,
                          list(bt.block))
    tracker = RecordingTracker()
    (out,), applied = apply_and_verify(res.trace, identity, config, baseline=rep,
                                       tracker=tracker)
    assert out.verified == "unverified"
    assert out.diagnostic == "no stall reduction (delta 0)"
    assert out.speedup_cycles == 0 and out.stall_reduction == 0
    assert applied.digest == rep.digest and applied.cycles == rep.cycles
    assert len(tracker.events) > 0


def test_apply_adversarial_suggestion_past_true_dependency():
    config, res, rep, records, graph, vmem = _starvation_pipeline(tiles=6)
    # hoist a tile DMA above its own address producers: divergence diagnosed
    rec = records[3]
    bad = Suggestion(rec.dma_id, rec.index, 0, 9999, rec.stall_total,
                     rec.size, None, [rec.index])
    (out,), applied = apply_and_verify(res.trace, bad, config, baseline=rep)
    assert out.verified == "unverified"
    assert "divergence" in out.diagnostic or "state mismatch" in out.diagnostic


def test_verified_suggestions_reduce_stalls_and_preserve_state():
    config, res, rep, records, graph, vmem = _starvation_pipeline()
    sugs = suggest(records, graph, vmem)
    assert sugs
    updated, applied = apply_and_verify(res.trace, sugs, config, baseline=rep)
    assert all(s.verified == "verified_speedup" for s in updated)
    assert applied.total_stall < rep.total_stall
    assert applied.digest == rep.digest


def test_build_schedule_is_permutation():
    config, res, rep, records, graph, vmem = _starvation_pipeline()
    sugs = suggest(records, graph, vmem)
    order = build_schedule(len(res.trace.instr_stream), sugs)
    assert sorted(order) == list(range(len(res.trace.instr_stream)))


def test_timeline_svg_renders_segments():
    config, res, rep, records, graph, vmem = _starvation_pipeline(tiles=6)
    bts = compute_backtails(graph)
    svg = render_dma_timeline(records, bts)
    assert "#2e8b57" in svg and "#7d3c98" in svg   # green + purple segments
    assert svg.count("<line") >= len(bts)           # backtail whiskers
