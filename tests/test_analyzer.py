"""Analyzer passes against spec examples and the independent oracles."""

import pytest

from xshark.debugger import Breakpoint
from xshark.recorder import record
from xshark.replayer import replay
from xshark.sim import RecordingTracker, SimConfig
from xshark.analyzer import (AnalysisError, analyze_dma, analyze_utilization,
                             analyze_vmem, apply_and_verify,
                             build_dependency_graph, compute_backtails,
                             suggest)
from xshark.analyzer.suggest import Suggestion, build_schedule
from xshark.analyzer.svg import render_dma_timeline, render_vmem_heatmap
from xshark.workloads import (gen_allgather_kernel, gen_checkerboard_kernel,
                              gen_random_kernel, gen_starvation_kernel)

from helpers import asm_run, asm_session
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
    busy = [f for c, f in series.samples if 3 <= c < 99]
    assert busy and all(f == 1.0 for f in busy)


def test_empty_program_all_zero_series():
    _, _, tracker = asm_run("halt\n")
    series = analyze_utilization(tracker.events, bucket_width=1)
    assert all(f == 0.0 for c, f in series["MXU"].samples)


def test_starvation_mxu_rises_coincide_with_dma_completions():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=8, prefetch_depth=1))
    series = analyze_utilization(tracker.events, bucket_width=1)["MXU"]
    samples = dict(series.samples)
    assert series.annotations, "MXU series carries DMA completion annotations"
    for cycle, _dma in series.annotations[2:]:      # skip the B-tile preloads
        before = samples.get(cycle - 2, 0.0)
        after = max(samples.get(cycle + k, 0.0) for k in range(1, 8))
        assert before == 0.0 and after == 1.0


def test_busy_fraction_bucketized():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    for width in (1, 16, 64):
        for unit, series in analyze_utilization(tracker.events, width).items():
            assert all(0.0 <= f <= 1.0 for _, f in series.samples)
            starts = [c for c, _ in series.samples]
            assert starts == list(range(0, starts[-1] + 1, width))


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


def test_heatmap_geometry_128_buckets():
    _, _, tracker = asm_run(gen_starvation_kernel(tiles=4))
    stats = analyze_vmem(tracker.events)
    assert all(len(row) == 128 for row in stats.bucket_used)
    assert sum(stats.page_states.values()) == 32768
    svg = render_vmem_heatmap(stats)
    assert svg.startswith("<svg") and "xshark" in svg


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
            assert g.earliest_position(i, relaxed=True) <= g.earliest_position(i)


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
