"""Spans and counts for the traced run, and the per-layer metrics they give.

A span is (name, layer, start, end, parent, pass) plus the counts recorded
at the same boundary: instructions, events, bytes, edges, suggestions.
Spans stay in memory and are written out when the run ends. Spans are
recorded only from this directory's files, around the calls into each
layer: the CLI workloads run `xshark.cli.main` in-process with the public
functions it calls wrapped for the length of the pass; the corpus pass
opens its spans itself.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import traceback

import workloads

PIPELINE_LAYERS = ("cli", "pipeline")      # layers of the per-step spans


class Span:
    __slots__ = ("id", "name", "layer", "parent", "pass_index", "start",
                 "end", "counts", "_tracer")

    def __init__(self, tracer, sid, name, layer, parent):
        self._tracer = tracer
        self.id, self.name, self.layer, self.parent = sid, name, layer, parent
        self.pass_index = tracer.pass_index
        self.start = self.end = None
        self.counts = {}

    def count(self, **counts):
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def __enter__(self):
        self._tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self._tracer._stack.pop()
        return False

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_index = 0
        self.t0 = time.perf_counter()

    def span(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(self, len(self.spans), name, layer, parent)
        self.spans.append(sp)
        return sp

    def to_json(self):
        return [{"id": s.id, "name": s.name, "layer": s.layer,
                 "parent": s.parent, "pass": s.pass_index,
                 "start": s.start - self.t0, "end": s.end - self.t0,
                 "counts": s.counts} for s in self.spans if s.end is not None]

    def self_seconds(self, scales):
        """Self time per layer: each span's duration minus the time its
        child spans cover (children of one span never overlap), times the
        scale of its pass."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        out = {}
        for s in self.spans:
            out[s.layer] = (out.get(s.layer, 0.0)
                            + (s.seconds - child[s.id]) * scales[s.pass_index])
        return out


# -------------------------------------------- wrapping the CLI's callees

def _size(path):
    return os.path.getsize(path)


# name in xshark.cli -> (span name, layer, counts(args, result))
CLI_CALLEES = {
    "assemble": ("assemble", "workloads.asm",
                 lambda a, r: {"instructions": len(r.program)}),
    "save_bundle": ("save_bundle", "workloads.asm", None),
    "load_bundle": ("load_bundle", "workloads.asm", None),
    "run_program": ("run_program", "sim",
                    lambda a, r: {"instructions": r.executed}),
    "record": ("record", "recorder",
               lambda a, r: {"instructions": r.recorded,
                             "snapshot_bytes": r.trace.snapshot_bytes}),
    "write_trace": ("write_trace", "recorder",
                    lambda a, r: {"bytes": _size(a[1])}),
    "read_trace": ("read_trace", "recorder",
                   lambda a, r: {"bytes": _size(a[0])}),
    "replay": ("replay", "replayer",
               lambda a, r: {"instructions": r.executed,
                             "events": len(a[2].events)}),
    "events_to_jsonl": ("events_to_jsonl", "sim.eventlog",
                        lambda a, r: {"events": len(a[0]), "bytes": len(r)}),
    "events_from_jsonl": ("events_from_jsonl", "sim.eventlog",
                          lambda a, r: {"events": len(r[0]), "bytes": len(a[0])}),
    "analyze_dma": ("analyze_dma", "analyzer.dma", None),
    "analyze_utilization": ("analyze_utilization", "analyzer.utilization", None),
    "analyze_vmem": ("analyze_vmem", "analyzer.vmem", None),
    "build_dependency_graph": ("build_dependency_graph", "analyzer.deps",
                               lambda a, r: {"edges": len(r.conservative)}),
    "compute_backtails": ("compute_backtails", "analyzer.deps", None),
    "make_suggestions": ("suggest", "analyzer.suggest",
                         lambda a, r: {"suggestions": len(r)}),
    "apply_and_verify": ("apply_and_verify", "analyzer.suggest",
                         lambda a, r: {"suggestions": len(r[0]),
                                       "verified": sum(s.verified != "unverified"
                                                       for s in r[0])}),
    "write_report": ("write_report", "analyzer.report",
                     lambda a, r: {"bytes": sum(_size(p) for p in r)}),
}


def _wrap(tracer, fn, name, layer, counter):
    def traced(*args, **kwargs):
        with tracer.span(name, layer) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                sp.count(**counter(args, result))
        return result
    return traced


@contextlib.contextmanager
def traced_cli(cli, tracer):
    """Wrap the public functions `xshark.cli` calls, for the duration."""
    saved = {attr: getattr(cli, attr) for attr in CLI_CALLEES}
    try:
        for attr, (name, layer, counter) in CLI_CALLEES.items():
            setattr(cli, attr, _wrap(tracer, saved[attr], name, layer, counter))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def inprocess_cli_pass(pass_dir, clock, tracer=None):
    """The eight CLI steps through `xshark.cli.main` in this process, each
    on its own clock lap.

    Returns (host seconds, nominal seconds, [(step, exit code, stdout,
    stderr)]) like workloads.cli_pass; traced when `tracer` is given."""
    from xshark import cli
    tr = tracer or workloads.NoTracer()
    steps = []
    host = nominal = 0.0
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        with (traced_cli(cli, tracer) if tracer else contextlib.nullcontext()):
            for name, args in workloads.CLI_STEPS:
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err), tr.span(name, "cli"):
                    try:
                        code = cli.main(args)
                    except Exception:
                        traceback.print_exc()
                        code = -1
                t = time.perf_counter() - t0
                host += t
                nominal += clock.lap(t)
                steps.append((name, code, out.getvalue(), err.getvalue()))
                if code != 0:
                    break
    finally:
        os.chdir(cwd)
    return host, nominal, steps


# ------------------------------------------------------------------ probes

def sim_sweeps(progs, config, seconds, tracker_cls, min_sweeps=3, clock=None):
    """Run every program to HALT, again and again for about `seconds`.

    Only `run_program` is timed, each run on its own clock lap; each
    program gets a fresh machine state. Returns ([seconds per sweep],
    instructions per sweep, events per sweep, [run_summary of each program
    in the first sweep]); the seconds are nominal if a SpeedClock is
    given."""
    from xshark.sim import run_program
    from xshark.workloads import apply_images
    times, summaries = [], None
    instrs = events = 0
    deadline = time.perf_counter() + seconds
    while len(times) < min_sweeps or time.perf_counter() < deadline:
        total, sweep = 0.0, []
        for kernel in progs:
            state = config.make_state()
            apply_images(kernel, state)
            tracker = tracker_cls()
            t0 = time.perf_counter()
            result = run_program(kernel.program, config, state, tracker)
            t = time.perf_counter() - t0
            total += clock.lap(t) if clock else t
            if summaries is None:
                sweep.append(workloads.run_summary(result))
                instrs += result.executed
                events += len(getattr(tracker, "events", ()))
        times.append(total)
        summaries = summaries or sweep
    return times, instrs, events, summaries


def sim_probe(progs, config, seconds, clock):
    """NullTracker against RecordingTracker on the same programs."""
    from xshark.sim import NullTracker, RecordingTracker
    null_t, instrs, _, _ = sim_sweeps(progs, config, seconds / 2, NullTracker,
                                      clock=clock)
    rec_t, _, events, _ = sim_sweeps(progs, config, seconds / 2,
                                     RecordingTracker, clock=clock)
    null_s, rec_s = statistics.median(null_t), statistics.median(rec_t)
    return {"instructions": instrs, "events": events,
            "null_s": null_s, "rec_s": rec_s}


SCALING_WINDOWS = (1000, 2000, 4000, None)     # None: the whole run


def scaling_points(text, config, clock, reps=3):
    """Replay, dependency graph and backtails of the long_window kernel at
    growing windows recorded from its first instruction. Medians of `reps`
    timings, one timing for the whole run."""
    from xshark.analyzer import build_dependency_graph, compute_backtails
    from xshark.debugger import DebugSession
    from xshark.recorder import record
    from xshark.replayer import replay
    from xshark.sim import RecordingTracker
    from xshark.workloads import apply_images, assemble
    kernel = assemble(text)
    points = []
    for window in SCALING_WINDOWS:
        state = config.make_state()
        apply_images(kernel, state)
        session = DebugSession(kernel.program, config, state)
        session.state.pc = kernel.program.entry_pc
        rec = record(session, None, window or workloads.RECORD_COUNT)
        timings = {"replay_s": [], "deps_s": [], "backtails_s": []}
        for _ in range(reps if window else 1):
            t0 = time.perf_counter()
            tracker = RecordingTracker()
            replay(rec.trace, config, tracker)
            t1 = time.perf_counter()
            graph = build_dependency_graph(tracker.events)
            t2 = time.perf_counter()
            compute_backtails(graph)
            t3 = time.perf_counter()
            scale = clock.lap(t3 - t0) / (t3 - t0)
            timings["replay_s"].append((t1 - t0) * scale)
            timings["deps_s"].append((t2 - t1) * scale)
            timings["backtails_s"].append((t3 - t2) * scale)
        point = {k: statistics.median(v) for k, v in timings.items()}
        point["window"] = rec.recorded
        points.append(point)
    return points


def growth_x(points, key):
    """Time at the 4,000-instruction window over time at 2,000."""
    by_window = dict(zip(SCALING_WINDOWS, points))
    return _ratio(by_window[4000][key], by_window[2000][key])


def corpus_io_probe(tracer, config, outdir):
    """A corpus_pass probe for the file and codec layers the corpus pass
    bypasses, run on each of its kernels: bundle save/load, trace
    write/read, event-log encode/decode, utilization and the report bundle.
    corpus_pass keeps its time out of the pass's wall time."""
    from xshark.analyzer import analyze_utilization, write_report
    from xshark.recorder import read_trace, write_trace
    from xshark.sim import events_from_jsonl, events_to_jsonl
    from xshark.workloads import load_bundle, save_bundle
    os.makedirs(outdir, exist_ok=True)
    bundle = os.path.join(outdir, "kernel.bundle")
    trace_path = os.path.join(outdir, "kernel.trace")

    def probe(kernel, trace, events, records, vmem, graph, backtails):
        with tracer.span("io_probe", "pipeline"):
            with tracer.span("save_bundle", "workloads.asm"):
                save_bundle(kernel, bundle)
            with tracer.span("load_bundle", "workloads.asm"):
                load_bundle(bundle)
            with tracer.span("write_trace", "recorder") as sp:
                write_trace(trace, trace_path)
                sp.count(bytes=_size(trace_path))
            with tracer.span("read_trace", "recorder"):
                read_trace(trace_path, expected_config_hash=config.config_hash())
            with tracer.span("events_to_jsonl", "sim.eventlog") as sp:
                text = events_to_jsonl(events)
                sp.count(events=len(events), bytes=len(text))
            with tracer.span("events_from_jsonl", "sim.eventlog") as sp:
                decoded, _ = events_from_jsonl(text)
                sp.count(events=len(decoded), bytes=len(text))
            with tracer.span("analyze_utilization", "analyzer.utilization"):
                util = analyze_utilization(events, 1)
            with tracer.span("write_report", "analyzer.report") as sp:
                written = write_report(os.path.join(outdir, "report"),
                                       dma_records=records, utilization=util,
                                       vmem=vmem, graph=graph,
                                       backtails=backtails)
                sp.count(bytes=sum(_size(p) for p in written))
    return probe


# ------------------------------------------------------- per-layer metrics

class PassView:
    """Totals of one traced pass's spans, by (layer, name); durations are
    multiplied by `scale`, the pass's nominal over host seconds."""

    def __init__(self, spans, scale=1.0):
        self.secs, self.counts = {}, {}
        for s in spans:
            key = (s.layer, s.name)
            self.secs[key] = self.secs.get(key, 0.0) + s.seconds * scale
            c = self.counts.setdefault(key, {})
            for k, v in s.counts.items():
                c[k] = c.get(k, 0) + v

    def s(self, layer, name):
        return self.secs.get((layer, name), 0.0)

    def n(self, layer, name, what):
        return self.counts.get((layer, name), {}).get(what, 0)

    def step_s(self, step):
        return sum(self.secs.get((layer, step), 0.0) for layer in PIPELINE_LAYERS)


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(v: PassView, sim: dict) -> dict:
    """The span-derived per-layer metrics of one traced pass."""
    rec_us = _ratio(sim["rec_s"], sim["instructions"]) * 1e6
    replay_us = _ratio(v.s("replayer", "replay"),
                       v.n("replayer", "replay", "instructions")) * 1e6
    m = {f"cli.{step}_s": v.step_s(step) for step in workloads.STEP_NAMES}
    m.update({
        "asm.kinstr_per_s": _ratio(v.n("workloads.asm", "assemble", "instructions"),
                                   v.s("workloads.asm", "assemble")) / 1e3,
        "bundle.load_s": v.s("workloads.asm", "load_bundle"),
        "eventlog.encode_events_per_s": _ratio(
            v.n("sim.eventlog", "events_to_jsonl", "events"),
            v.s("sim.eventlog", "events_to_jsonl")),
        "eventlog.decode_events_per_s": _ratio(
            v.n("sim.eventlog", "events_from_jsonl", "events"),
            v.s("sim.eventlog", "events_from_jsonl")),
        "eventlog.bytes_per_event": _ratio(
            v.n("sim.eventlog", "events_to_jsonl", "bytes"),
            v.n("sim.eventlog", "events_to_jsonl", "events")),
        "record.us_per_instr": _ratio(
            v.s("recorder", "record"),
            v.n("recorder", "record", "instructions")) * 1e6,
        "record.snapshot_bytes": v.n("recorder", "record", "snapshot_bytes"),
        "trace.bytes": v.n("recorder", "write_trace", "bytes"),
        "trace.read_s": v.s("recorder", "read_trace"),
        "replay.us_per_instr": replay_us,
        "replay.vs_run_x": _ratio(replay_us, rec_us),
        "analyzer.deps_s": v.s("analyzer.deps", "build_dependency_graph"),
        "analyzer.backtails_s": v.s("analyzer.deps", "compute_backtails"),
        "deps.edges": v.n("analyzer.deps", "build_dependency_graph", "edges"),
        "analyzer.dma_s": v.s("analyzer.dma", "analyze_dma"),
        "analyzer.util_s": v.s("analyzer.utilization", "analyze_utilization"),
        "analyzer.vmem_s": v.s("analyzer.vmem", "analyze_vmem"),
        "analyzer.suggest_s": v.s("analyzer.suggest", "suggest"),
        "analyzer.apply_s": v.s("analyzer.suggest", "apply_and_verify"),
        "suggest.count": v.n("analyzer.suggest", "suggest", "suggestions"),
        "suggest.verified_share": _ratio(
            v.n("analyzer.suggest", "apply_and_verify", "verified"),
            v.n("analyzer.suggest", "apply_and_verify", "suggestions")),
        "report.write_s": v.s("analyzer.report", "write_report"),
        "report.bytes": v.n("analyzer.report", "write_report", "bytes"),
    })
    return m


def probe_metrics(sim: dict, points: list, kernels: dict) -> dict:
    """Per-layer metrics that come from the probes, not from the pass."""
    fallback = kernels.get("fallback", kernels["active"])
    return {
        "sim.rec_kips": _ratio(sim["instructions"], sim["rec_s"]) / 1e3,
        "sim.tracker_x": _ratio(sim["rec_s"], sim["null_s"]),
        "sim.events_per_instr": _ratio(sim["events"], sim["instructions"]),
        "replay.growth_x": growth_x(points, "replay_s"),
        "analyzer.deps_growth_x": growth_x(points, "deps_s"),
        "analyzer.backtails_growth_x": growth_x(points, "backtails_s"),
        "kernels.mxu_mm_us": kernels["active"]["mxu_mm_us"],
        "kernels.v_add_us": kernels["active"]["v_add_us"],
        "kernels.fallback_mxu_mm_us": fallback["mxu_mm_us"],
        "kernels.fallback_v_add_us": fallback["v_add_us"],
    }


def median_metrics(per_pass):
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
