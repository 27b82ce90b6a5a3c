"""Acceptance suite: ten criteria, one test each, one PASS line each.

The random corpus (seeds 0..499, program sizes 50..5000) is built once per
session; every per-kernel artifact the criteria aggregate over is computed
in that single pass. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from xshark.debugger import DebugSession
from xshark.recorder import ExecutionTrace, record
from xshark.replayer import compare_window, replay
from xshark.sim import (Breakpoint, NullTracker, RecordingTracker, SimConfig,
                        events_to_jsonl, run_program, state_digest)
from xshark.analyzer import (analyze_dma, analyze_utilization, analyze_vmem,
                             apply_and_verify, build_dependency_graph,
                             compute_backtails, suggest)
from xshark.workloads import (assemble, gen_allgather_kernel,
                              gen_checkerboard_kernel, gen_random_kernel,
                              gen_starvation_kernel, initial_state)

from helpers import asm_session, backed_bytes, earliest_position, region_of
from oracles import bruteforce_dep_oracle, dma_oracle, naive_record

N_KERNELS = 500
MINIMALITY_KERNELS = 50
NAIVE_REPLAY_KERNELS = 12
DEP_ORACLE_KERNELS = 120
DETERMINISM_KERNELS = 40


def _kernel_params(seed):
    size = 50 + (seed * 991) % 4951          # spans [50, 5000]
    count = 80 + (seed * 37) % 520           # window length target
    skip = (seed * 13) % 97 if seed % 5 == 1 else 0
    return size, count, skip


class KernelRun:
    __slots__ = ("seed", "trace", "rec", "fidelity", "live_digest",
                 "replay_digest", "cycles", "total_stall", "dma_records",
                 "oracle_ok", "trichotomy_ok", "vmem_ok", "dep_ok",
                 "relaxed_superset_ok", "suggestion_results", "naive_ok",
                 "naive_bytes", "window", "rr_seconds", "determinism_ok",
                 "transparency_ok")


def _naive_state_bytes(state):
    return (32 * 4 + 32 * 64 + 8 + state.vmem_capacity
            + backed_bytes(state.hbm))


@pytest.fixture(scope="session")
def corpus():
    config = SimConfig()
    runs = []
    rr_total = 0.0
    for seed in range(N_KERNELS):
        size, count, skip = _kernel_params(seed)
        gen = gen_random_kernel(seed, size=size)
        kernel = assemble(gen.text)
        session = DebugSession(kernel.program, config,
                               initial_state(kernel, config))
        for _ in range(skip):
            if session.peek() is None:
                break
            session.step()

        run = KernelRun()
        run.seed = seed
        t0 = time.perf_counter()
        rec = record(session, None, count, fast_forward_dma=True)
        assert rec.fault is None, f"seed {seed} faulted: {rec.fault}"
        tracker = RecordingTracker()
        rep = replay(rec.trace, config, tracker)
        run.rr_seconds = time.perf_counter() - t0
        rr_total += run.rr_seconds

        run.trace = rec.trace
        run.rec = rec
        run.window = rec.recorded
        verdict = compare_window(session.state, rec, rep)
        run.fidelity = verdict["equal"]
        run.live_digest = verdict["live_digest"]
        run.replay_digest = rep.digest
        run.cycles = rep.cycles
        run.total_stall = rep.total_stall
        run.naive_bytes = _naive_state_bytes(session.state)

        events = tracker.events
        run.dma_records = analyze_dma(events)
        run.oracle_ok, run.trichotomy_ok = _check_dma_oracle(run.dma_records,
                                                             config)
        stats = analyze_vmem(events, sample_interval=64,
                             capacity=config.vmem_capacity)
        run.vmem_ok = all(l <= t for l, t in zip(stats.largest_contiguous_free,
                                                 stats.total_free))

        run.dep_ok = run.relaxed_superset_ok = None
        if rec.recorded <= 200 and seed % 2 == 0 \
                and sum(1 for r in runs if r.dep_ok is not None) < DEP_ORACLE_KERNELS:
            graph = build_dependency_graph(events)
            got = {(e.dependent, e.producer, e.label) for e in graph.conservative}
            want = bruteforce_dep_oracle(rec.trace, config)
            run.dep_ok = got == want
            run.relaxed_superset_ok = all(
                earliest_position(graph, i, relaxed=True)
                <= earliest_position(graph, i)
                for i, info in enumerate(graph.tables.instrs)
                if info.opcode == "DMA_ISSUE")

        run.suggestion_results = []
        if any(r.stall_total > 0 for r in run.dma_records):
            graph = build_dependency_graph(events)
            bts = compute_backtails(graph)
            sugs = suggest(run.dma_records, graph, stats, bts)
            for s in sugs:
                (out,), applied = apply_and_verify(rec.trace, s, config,
                                                   baseline=rep)
                ok = None
                if out.verified != "unverified":
                    ok = (applied is not None
                          and applied.digest == rep.digest
                          and applied.total_stall < rep.total_stall)
                run.suggestion_results.append((out.verified, ok, out.diagnostic))

        run.determinism_ok = run.transparency_ok = None
        if seed % (N_KERNELS // DETERMINISM_KERNELS) == 0:
            t2 = RecordingTracker()
            rep2 = replay(rec.trace, config, t2)
            run.determinism_ok = (events_to_jsonl(t2.events)
                                  == events_to_jsonl(events)
                                  and rep2.digest == rep.digest)
            ra = run_program(kernel.program, config,
                             initial_state(kernel, config), RecordingTracker(),
                             max_cycles=gen.estimated_max_cycles)
            rb = run_program(kernel.program, config,
                             initial_state(kernel, config), NullTracker(),
                             max_cycles=gen.estimated_max_cycles)
            run.transparency_ok = (state_digest(ra.state)
                                   == state_digest(rb.state))

        run.naive_ok = None
        if seed < NAIVE_REPLAY_KERNELS:
            s2 = DebugSession(kernel.program, config,
                              initial_state(kernel, config))
            for _ in range(skip):
                if s2.peek() is None:
                    break
                s2.step()
            if any(sl.active for sl in s2.state.dma_slots):
                while any(sl.active for sl in s2.state.dma_slots):
                    s2.step()
            naive_trace, nbytes = naive_record(s2, count)
            nrep = replay(naive_trace, config)
            run.naive_ok = (nrep.digest.split(":")[1] != "" and
                            nbytes >= rec.trace.snapshot_bytes)
            nv = compare_window(s2.state, rec, nrep)
            run.naive_ok = run.naive_ok and nv["digest_equal"]

        runs.append(run)
    return {"runs": runs, "config": config, "rr_seconds": rr_total}


def _check_dma_oracle(records, config):
    """Re-derive every DMA's timeline and stall split with the independent
    calculator; check the Fig.-3 trichotomy on classified records."""
    per_link_inputs = [{"issue_cycle": r.issue_cycle, "link": r.link,
                        "size": r.size, "wait_cycle": r.wait_cycle}
                       for r in records]
    oracle = dma_oracle(per_link_inputs, config.t_base, config.link_bandwidth)
    oracle_ok = trichotomy_ok = True
    for r, o in zip(records, oracle):
        if r.complete_cycle is None:
            continue                       # cut off by the window end
        if (r.base_done_cycle, r.transfer_start_cycle, r.complete_cycle) != \
                (o.base_done, o.transfer_start, o.complete):
            oracle_ok = False
        if r.wait_cycle is not None:
            if (r.stall_base, r.stall_transfer, r.slack) != \
                    (o.stall_base, o.stall_transfer, o.slack):
                oracle_ok = False
            total = max(0, r.complete_cycle - r.wait_cycle)
            if r.stall_base + r.stall_transfer != total:
                oracle_ok = False
            cases = [r.stall_base > 0 and r.wait_cycle < r.base_done_cycle,
                     r.stall_base == 0 and r.stall_transfer > 0
                     and r.base_done_cycle <= r.wait_cycle < r.complete_cycle,
                     r.stall_total == 0 and r.slack >= 0
                     and r.wait_cycle >= r.complete_cycle]
            if sum(bool(c) for c in cases) != 1:
                trichotomy_ok = False
    return oracle_ok, trichotomy_ok


def _report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:2d} {name}: {status} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def test_criterion_01_replay_fidelity(corpus):
    runs = corpus["runs"]
    bad = [r.seed for r in runs if not r.fidelity]
    windows = sum(r.window for r in runs)
    _report(1, "replay fidelity", not bad and len(runs) == N_KERNELS
            and corpus["rr_seconds"] < 300.0,
            f"({len(runs)} kernels, {windows} instructions, "
            f"record+replay {corpus['rr_seconds']:.1f}s, divergent={bad[:5]})")


def test_criterion_02_recorder_minimality(corpus):
    runs = corpus["runs"]
    config = corpus["config"]
    # (a) structural minimality on every trace
    for r in runs:
        r.trace.validate()
    # (c) never larger than the naive full-state snapshot
    oversized = [r.seed for r in runs
                 if r.trace.snapshot_bytes > r.naive_bytes]
    # naive-recorder replay equivalence spot checks ran during corpus build
    naive_bad = [r.seed for r in runs if r.naive_ok is False]
    # (b) dropping any single snapshot breaks fidelity, on the 50 smallest
    small = sorted((r for r in runs), key=lambda r: r.trace.snapshot_bytes)
    small = [r for r in small if r.trace.reg_snapshots or r.trace.mem_snapshots]
    checked = dropped_ok = 0
    for r in small[:MINIMALITY_KERNELS]:
        t = r.trace
        n_snaps = len(t.reg_snapshots) + len(t.mem_snapshots)
        for k in range(n_snaps):
            if k < len(t.reg_snapshots):
                mut = ExecutionTrace(t.header,
                                     t.reg_snapshots[:k] + t.reg_snapshots[k + 1:],
                                     t.mem_snapshots, t.instr_stream)
            else:
                j = k - len(t.reg_snapshots)
                mut = ExecutionTrace(t.header, t.reg_snapshots,
                                     t.mem_snapshots[:j] + t.mem_snapshots[j + 1:],
                                     t.instr_stream)
            checked += 1
            try:
                out = replay(mut, config)
                if out.digest != r.replay_digest:
                    dropped_ok += 1
            except Exception:
                dropped_ok += 1
    _report(2, "recorder minimality",
            not oversized and not naive_bad and checked == dropped_ok,
            f"({checked} snapshot drops all detected, naive-size holds on "
            f"{len(runs)} kernels)")


def test_criterion_03_dma_trichotomy(corpus):
    runs = corpus["runs"]
    bad_oracle = [r.seed for r in runs if not r.oracle_ok]
    bad_tri = [r.seed for r in runs if not r.trichotomy_ok]
    n_dmas = sum(len(r.dma_records) for r in runs)
    _report(3, "DMA trichotomy vs oracle", not bad_oracle and not bad_tri,
            f"({n_dmas} DMAs, oracle mismatches={bad_oracle[:5]}, "
            f"trichotomy violations={bad_tri[:5]})")


def test_criterion_04_allgather_pinning():
    config = SimConfig()
    kb, sb, tb = _run_kernel(gen_allgather_kernel(), config)
    kp, sp, tp = _run_kernel(gen_allgather_kernel(pinned=True), config)
    setup_b = [x for x in analyze_dma(tb.events)
               if region_of(kb, x.pc) == "ag.setup"]
    setup_p = [x for x in analyze_dma(tp.events)
               if region_of(kp, x.pc) == "ag.setup"]
    ok = (len(setup_b) == 9 and len(setup_p) == 0
          and sp.cycles <= 0.9 * sb.cycles)
    _report(4, "all-gather pinning", ok,
            f"(setup DMAs {len(setup_b)}->{len(setup_p)}, cycles "
            f"{sb.cycles}->{sp.cycles}, -{100 * (1 - sp.cycles / sb.cycles):.0f}%)")


def test_criterion_05_allgather_parallel_issue():
    config = SimConfig()
    kb, sb, tb = _run_kernel(gen_allgather_kernel(), config)
    kp, sp, tp = _run_kernel(gen_allgather_kernel(parallel_setup=True), config)

    def setup_base_stall(kernel, tracker):
        total, opens = 0, {}
        for e in tracker.events:
            if e.reason == "dma_base" and region_of(kernel, e.pc) == "ag.setup":
                if e.kind == "stall_begin":
                    opens[e.idx] = e.cycle
                elif e.idx in opens:
                    total += e.cycle - opens.pop(e.idx)
        return total

    b, p = setup_base_stall(kb, tb), setup_base_stall(kp, tp)
    _report(5, "all-gather parallel issue", b > 0 and p <= 0.40 * b,
            f"(setup base stall {b} -> {p}, ratio {p / b:.2f})")


def test_criterion_06_starvation_suggestions_end_to_end():
    config = SimConfig()
    _, session = asm_session(gen_starvation_kernel(tiles=32, prefetch_depth=1),
                             config)
    rec = record(session, Breakpoint(0), 100_000)
    tracker = RecordingTracker()
    base = replay(rec.trace, config, tracker)
    records = analyze_dma(tracker.events)
    graph = build_dependency_graph(tracker.events)
    bts = compute_backtails(graph)
    stats = analyze_vmem(tracker.events, capacity=config.vmem_capacity)
    sugs = suggest(records, graph, stats, bts)
    eligible = [r for r in records if r.stall_total > 0
                and bts[r.dma_id].backtail_cycles > r.stall_total]
    covered = all(any(s.dma_id == r.dma_id for s in sugs) for r in eligible)
    updated, applied = apply_and_verify(rec.trace, sugs, config, baseline=base)
    verified = applied is not None and all(
        s.verified in ("verified_equal_state", "verified_speedup")
        for s in updated)
    state_equal = applied is not None and applied.digest == base.digest
    halved = applied is not None and applied.cycles <= 0.5 * base.cycles

    _, s4 = asm_session(gen_starvation_kernel(tiles=32, prefetch_depth=4), config)
    rec4 = record(s4, Breakpoint(0), 100_000)
    ref4 = replay(rec4.trace, config)
    close = applied is not None and applied.cycles <= 1.10 * ref4.cycles
    _report(6, "starvation auto-suggestion", covered and verified
            and state_equal and halved and close,
            f"({len(sugs)} suggestions / {len(eligible)} eligible, cycles "
            f"{base.cycles}->{applied.cycles if applied else '?'}, depth4 {ref4.cycles})")


def test_criterion_07_suggestion_soundness(corpus):
    runs = corpus["runs"]
    n = bad = 0
    verified_n = 0
    for r in runs:
        for status, independent_ok, diag in r.suggestion_results:
            n += 1
            if status in ("verified_equal_state", "verified_speedup"):
                verified_n += 1
                if independent_ok is not True:
                    bad += 1
    _report(7, "suggestion soundness", bad == 0,
            f"({n} suggestions across corpus, {verified_n} verified, "
            f"{bad} unsound)")


def test_criterion_08_dependency_oracle(corpus):
    runs = [r for r in corpus["runs"] if r.dep_ok is not None]
    bad = [r.seed for r in runs if not r.dep_ok]
    bad_relaxed = [r.seed for r in runs if not r.relaxed_superset_ok]
    _report(8, "dependency-graph oracle", len(runs) >= 50 and not bad
            and not bad_relaxed,
            f"({len(runs)} kernels <=200 instrs, conservative mismatches="
            f"{bad[:5]}, relaxed regressions={bad_relaxed[:5]})")


def test_criterion_09_vmem_invariants(corpus):
    runs = corpus["runs"]
    bad = [r.seed for r in runs if not r.vmem_ok]
    _, result, tracker = _run_src(gen_checkerboard_kernel())
    stats = analyze_vmem(tracker.events, sample_interval=4096)
    peak = min(stats.total_free)
    idx = stats.total_free.index(peak)
    checker_ok = (peak == stats.capacity // 2
                  and stats.largest_contiguous_free[idx] == 64
                  and all(len(row) == 128 for row in stats.bucket_used)
                  and stats.n_pages == 128 * 256)
    _report(9, "VMEM analysis invariants", not bad and checker_ok,
            f"(corpus violations={bad[:5]}, checkerboard free={peak} "
            f"contig={stats.largest_contiguous_free[idx]}, 128x256 grid)")


def test_criterion_10_transparency_and_determinism(corpus):
    runs = [r for r in corpus["runs"] if r.determinism_ok is not None]
    bad_det = [r.seed for r in runs if not r.determinism_ok]
    bad_tra = [r.seed for r in runs if not r.transparency_ok]
    _report(10, "tracker transparency & determinism",
            len(runs) >= 20 and not bad_det and not bad_tra,
            f"({len(runs)} kernels, log mismatches={bad_det[:5]}, "
            f"transparency={bad_tra[:5]})")


# ---------------------------------------------------------------- helpers

def _run_kernel(src, config):
    kernel = assemble(src)
    tracker = RecordingTracker()
    result = run_program(kernel.program, config, initial_state(kernel, config),
                         tracker)
    assert result.outcome == "halted"
    return kernel, result, tracker


def _run_src(src):
    config = SimConfig()
    kernel = assemble(src)
    tracker = RecordingTracker()
    result = run_program(kernel.program, config, initial_state(kernel, config),
                         tracker, max_cycles=2_000_000)
    assert result.outcome == "halted"
    return kernel, result, tracker
