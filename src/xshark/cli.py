"""Command-line pipeline: asm -> run/record -> replay -> analyze -> suggest
-> apply -> compare.

Every subcommand exits 0 on success, 1 on unusable inputs and 2 on
faults/divergence; failures print one `code:<CODE> <message>` line on
stderr (docs/cli.md lists every code). Timing comes from one config file
(--config, or the XSHARK_CONFIG environment variable), whose hash is
embedded in traces so `replay` refuses a mismatched clock.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys

from . import __version__, gc_paused

# Where each library name the subcommands use lives, as (module, name). A
# step names each through `_lib` where it uses it (`_lib.assemble(...)`),
# which imports the module on first use, so that a step loads only the
# modules it calls (docs/cli.md lists them); the names become attributes of
# this module then, as if imported at the top, and tools that time a step
# may wrap them here.
_LIBRARY = {name: (module, name) for module, names in (
    ("workloads", "AsmError assemble initial_state load_bundle save_bundle"),
    ("sim", "Breakpoint RecordingTracker SimConfig Simulator events_from_jsonl "
            "events_to_jsonl run_program state_digest"),
    ("isa", "EncodingError Fault"),
    ("recorder", "TraceError read_trace record write_trace"),
    ("replayer", "ReplayDivergence replay"),
    ("analyzer", "AnalysisError Suggestion analyze_dma "
                 "analyze_utilization analyze_vmem apply_and_verify "
                 "build_dependency_graph compute_backtails write_report"),
) for name in names.split()}
_LIBRARY["make_suggestions"] = ("analyzer", "suggest")


def __getattr__(name):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LIBRARY[name]
    value = getattr(importlib.import_module("." + module, __package__), attr)
    globals()[name] = value
    return value


class _Library:
    """`_lib.<name>` is the library object `name` as this module's namespace
    holds it (the imported object, or a wrapper put in its place), imported
    through the module's `__getattr__` on first use. It reads `globals()`,
    the namespace this code runs in, which under
    `runpy.run_module(..., run_name="__main__")` is not the module an import
    registers."""

    def __getattr__(self, name):
        namespace = globals()
        return namespace[name] if name in namespace else __getattr__(name)


_lib = _Library()


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = 2):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _load_config(path):
    """The SimConfig in file `path`, or the default one when `path` is
    empty."""
    if not path:
        return _lib.SimConfig()
    try:
        with open(path) as fh:
            return _lib.SimConfig.from_json(json.load(fh))
    except FileNotFoundError:
        raise CliError("CONFIG_NOT_FOUND", f"config file {path!r} missing", 1)
    except (ValueError, RecursionError) as e:      # bad JSON is a ValueError
        raise CliError("CONFIG_INVALID", f"bad config {path!r}: {e}", 1)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise CliError("IO_ERROR", str(e), 1)


def _load_bundle(path):
    try:
        return _lib.load_bundle(path)
    except _lib.EncodingError as e:
        raise CliError("BUNDLE_INVALID", f"bad program bundle {e}", 1)


def _read_events(path):
    try:
        return _lib.events_from_jsonl(_read(path))
    except ValueError as e:
        raise CliError("EVENTS_INVALID", f"bad event log {path!r}: {e}", 1)


def _read_summary(path) -> dict:
    """The summary of an event log: its last non-empty line, the only line
    read (the event lines before it are not checked)."""
    try:
        last = _read(path).rstrip().rpartition("\n")[2]
        summary = json.loads(last) if last else None
    except (ValueError, RecursionError) as e:
        raise CliError("EVENTS_INVALID", f"bad event log {path!r}: {e}", 1)
    if not (isinstance(summary, dict) and summary.get("kind") == "summary"):
        raise CliError("NO_SUMMARY", f"event log {path!r} lacks a summary line", 1)
    for key, kind in (("cycles", int), ("total_stall", int), ("digest", str)):
        if type(summary.get(key)) is not kind:
            raise CliError("EVENTS_INVALID", f"summary of {path!r} lacks "
                           f"{kind.__name__} field {key!r}", 1)
    return summary


def _read_suggestions(path):
    try:
        doc = json.loads(_read(path))
        if not isinstance(doc, list):
            raise ValueError("expected a JSON list of suggestions")
        return [_lib.Suggestion.from_json(d) for d in doc]
    except (ValueError, RecursionError) as e:
        raise CliError("SUGGESTIONS_INVALID", f"bad suggestions {path!r}: {e}", 1)


def _write_suggestions(path, suggestions):
    """The suggestion file format (docs/reports.md), read by
    _read_suggestions."""
    with open(path, "w") as fh:
        json.dump([s.to_json() for s in suggestions], fh, indent=1)


def _summary(result, digest: str) -> dict:
    return {"cycles": result.cycles, "executed": result.executed,
            "outcome": result.outcome,
            "stall_cycles": dict(result.stall_cycles),
            "total_stall": result.total_stall, "digest": digest}


def _write_events(path, tracker, summary):
    with open(path, "w") as fh:
        fh.write(_lib.events_to_jsonl(tracker.events, summary))


def cmd_asm(args, config):
    kernel = _lib.assemble(_read(args.source))
    _lib.save_bundle(kernel, args.output)
    print(f"assembled {len(kernel.program)} instructions -> {args.output}")
    return 0


def cmd_run(args, config):
    bundle = _load_bundle(args.program)
    tracker = _lib.RecordingTracker() if args.output else None
    result = _lib.run_program(bundle.program, config,
                              _lib.initial_state(bundle, config), tracker,
                              max_cycles=args.max_cycles)
    digest = _lib.state_digest(result.state)
    if args.output:
        _write_events(args.output, tracker, _summary(result, digest))
    print(f"outcome={result.outcome} cycles={result.cycles} "
          f"executed={result.executed} stalls={result.total_stall}")
    if result.outcome == "fault":
        raise CliError(result.fault.kind.upper(), result.fault.describe())
    return 0


def _resolve_break(bundle, spec: str) -> int:
    if spec in bundle.labels:
        return bundle.labels[spec]
    try:
        return int(spec, 0)
    except ValueError:
        raise CliError("BAD_BREAKPOINT", f"unknown label or pc {spec!r}", 1)


def cmd_record(args, config):
    bundle = _load_bundle(args.program)
    sim = _lib.Simulator(bundle.program, config,
                         _lib.initial_state(bundle, config))
    bp = _lib.Breakpoint(_resolve_break(bundle, args.break_at), args.hit)
    result = _lib.record(sim, bp, args.count,
                         fast_forward_dma=args.fast_forward,
                         max_cycles=args.max_cycles)
    _lib.write_trace(result.trace, args.output, binary=args.binary)
    note = " (ended at HALT)" if result.ended_at_halt else ""
    if result.fault:
        note = f" (fault: {result.fault.kind})"
    print(f"recorded {result.recorded} instructions, "
          f"{result.trace.snapshot_bytes} snapshot bytes -> {args.output}{note}")
    return 0


def cmd_replay(args, config):
    trace = _lib.read_trace(args.trace, expected_config_hash=config.config_hash())
    tracker = _lib.RecordingTracker()
    result = _lib.replay(trace, config, tracker)
    _write_events(args.output, tracker, _summary(result, result.digest))
    print(f"replayed {result.executed} instructions, cycles={result.cycles} "
          f"stalls={result.total_stall} -> {args.output}")
    return 0


def cmd_analyze(args, config):
    events, _ = _read_events(args.events)
    want_all = not (args.dma or args.util or args.vmem or args.deps)
    regions = None
    if args.program:
        bundle = _load_bundle(args.program)
        regions = {name: [start, end] for name, start, end in bundle.regions}
    kw = {}
    if args.dma or want_all:
        kw["dma_records"] = _lib.analyze_dma(events)
    if args.util or want_all:
        kw["utilization"] = _lib.analyze_utilization(events, args.bucket_width)
    if args.vmem or want_all:
        kw["vmem"] = _lib.analyze_vmem(events, args.sample_interval,
                                       config.vmem_capacity)
    if args.deps or want_all:
        graph = _lib.build_dependency_graph(events)
        kw["graph"] = graph
        kw["backtails"] = _lib.compute_backtails(graph)
    written = _lib.write_report(args.output, regions=regions, **kw)
    print("wrote " + ", ".join(written))
    return 0


def cmd_suggest(args, config):
    trace = _lib.read_trace(args.trace, expected_config_hash=config.config_hash())
    events, _ = _read_events(args.events)
    records = _lib.analyze_dma(events)
    graph = _lib.build_dependency_graph(events)
    if graph.n != len(trace.instr_stream):
        raise CliError("EVENTS_TRACE_MISMATCH",
                       f"event log covers {graph.n} instructions, trace has "
                       f"{len(trace.instr_stream)}")
    vmem = _lib.analyze_vmem(events, capacity=config.vmem_capacity)
    suggestions = _lib.make_suggestions(records, graph, vmem)
    _write_suggestions(args.output, suggestions)
    stalled = sum(1 for r in records if r.stall_total > 0)
    print(f"{len(suggestions)} suggestions for {stalled} stalled DMAs "
          f"-> {args.output}")
    return 0


def cmd_apply(args, config):
    trace = _lib.read_trace(args.trace, expected_config_hash=config.config_hash())
    suggestions = _read_suggestions(args.suggestions)
    if not suggestions:
        raise CliError("NO_SUGGESTIONS", "suggestion list is empty", 1)
    tracker = _lib.RecordingTracker()
    updated, applied = _lib.apply_and_verify(trace, suggestions, config,
                                             tracker=tracker)
    _write_suggestions(args.output + ".suggestions.json", updated)
    if applied is None:
        raise CliError("REPLAY_DIVERGENCE",
                       f"reorder diverged: {updated[0].diagnostic}")
    _write_events(args.output, tracker, _summary(applied, applied.digest))
    for s in updated:
        extra = f" (+{s.speedup_cycles} cycles)" if s.speedup_cycles else ""
        diag = f" [{s.diagnostic}]" if s.diagnostic else ""
        print(f"dma {s.dma_id}: {s.verified}{extra}{diag}")
    if args.verify and any(s.verified == "unverified" for s in updated):
        raise CliError("VERIFY_FAILED", "some suggestions failed verification")
    return 0


def cmd_compare(args, config):
    a = _read_summary(args.before)
    b = _read_summary(args.after)
    dc = b["cycles"] - a["cycles"]
    ds = b["total_stall"] - a["total_stall"]
    basis_a = a["digest"].split(":")[0]
    basis_b = b["digest"].split(":")[0]
    if basis_a != basis_b:
        verdict = "incomparable"
    else:
        verdict = "equal" if a["digest"] == b["digest"] else "DIFFERENT"
    print(f"cycles: {a['cycles']} -> {b['cycles']} ({dc:+d})")
    print(f"stall cycles: {a['total_stall']} -> {b['total_stall']} ({ds:+d})")
    print(f"state: {verdict}")
    return 0 if verdict != "DIFFERENT" else 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# (name, help, handler, [(flags, kwargs)...])
COMMANDS = [
    ("asm", "assemble a kernel into a program bundle", cmd_asm, [
        (["source"], {"help": "kernel source (.xasm)"}),
        (["-o", "--output"], {"required": True, "help": "program bundle path"}),
    ]),
    ("run", "run a program bundle on the simulator", cmd_run, [
        (["program"], {"help": "program bundle"}),
        (["--max-cycles"], {"type": _positive_int, "default": 10_000_000}),
        (["-o", "--output"], {"help": "write the performance event log (JSONL)"}),
    ]),
    ("record", "record an execution window into a trace", cmd_record, [
        (["program"], {"help": "program bundle"}),
        (["--break"], {"dest": "break_at", "required": True,
                       "help": "breakpoint label or pc"}),
        (["--hit"], {"type": _positive_int, "default": 1,
                     "help": "break on Nth hit"}),
        (["--count"], {"type": _positive_int, "required": True,
                       "help": "instructions to record"}),
        (["--fast-forward"], {"action": "store_true",
                              "help": "step to DMA quiescence before recording"}),
        (["--binary"], {"action": "store_true", "help": "compact trace container"}),
        (["--max-cycles"], {"type": _positive_int, "default": 10_000_000}),
        (["-o", "--output"], {"required": True, "help": "trace path"}),
    ]),
    ("replay", "replay a trace and emit the event log", cmd_replay, [
        (["trace"], {"help": "trace container"}),
        (["-o", "--output"], {"required": True, "help": "event log (JSONL)"}),
    ]),
    ("analyze", "produce the report bundle from an event log", cmd_analyze, [
        (["events"], {"help": "event log (JSONL)"}),
        (["--dma"], {"action": "store_true"}),
        (["--util"], {"action": "store_true"}),
        (["--vmem"], {"action": "store_true"}),
        (["--deps"], {"action": "store_true"}),
        (["--bucket-width"], {"type": _positive_int, "help": "cycles per "
                              "utilization sample (default: 1, or the "
                              "smallest that fits the sample limit)"}),
        (["--sample-interval"], {"type": _positive_int, "help": "cycles between "
                                 "VMEM samples (default: 64 times the default "
                                 "bucket width)"}),
        (["--program"], {"help": "program bundle, for pseudo-HLO regions"}),
        (["-o", "--output"], {"required": True, "help": "report directory"}),
    ]),
    ("suggest", "emit reorder suggestions for stalled DMAs", cmd_suggest, [
        (["trace"], {"help": "trace container"}),
        (["events"], {"help": "event log from `replay`"}),
        (["-o", "--output"], {"required": True, "help": "suggestions.json"}),
    ]),
    ("apply", "apply suggestions to the trace and re-simulate", cmd_apply, [
        (["trace"], {"help": "trace container"}),
        (["suggestions"], {"help": "suggestions.json"}),
        (["--verify"], {"action": "store_true",
                        "help": "fail unless every suggestion verifies"}),
        (["-o", "--output"], {"required": True, "help": "event log of the reorder"}),
    ]),
    ("compare", "compare two event logs (cycles, stalls, state)", cmd_compare, [
        (["before"], {"help": "baseline event log"}),
        (["after"], {"help": "event log to compare"}),
    ]),
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"code:USAGE {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xshark", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"xshark {__version__}")
    parser.add_argument("--config", help="SimConfig JSON (default: $XSHARK_CONFIG)")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text, handler, arglist in COMMANDS:
        sub = subs.add_parser(name, help=help_text, description=help_text)
        for flags, kwargs in arglist:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


@gc_paused
def main(argv=None) -> int:
    """One step of the `xshark` command (`entry`), with the collector off
    (`gc_paused`; no step makes cyclic garbage); it never freezes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 1
    try:
        path = args.config or os.environ.get("XSHARK_CONFIG")
        # asm and compare read no config, and load the simulator only to
        # check one they are given
        config = (_load_config(path) if path or args.handler not in (cmd_asm, cmd_compare)
                  else None)
        return args.handler(args, config)
    except CliError as e:
        print(f"code:{e.code} {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"code:IO_ERROR {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("code:OUT_OF_MEMORY the host cannot allocate the memory this step "
              "needs", file=sys.stderr)
        return 1
    except Exception as e:
        if isinstance(e, _lib.AsmError):
            print(f"code:ASM_ERROR {e}", file=sys.stderr)
        elif isinstance(e, _lib.TraceError):
            print(f"code:{e.code} {e}", file=sys.stderr)
        elif isinstance(e, _lib.ReplayDivergence):
            print(f"code:REPLAY_DIVERGENCE {e}", file=sys.stderr)
        elif isinstance(e, _lib.Fault):
            print(f"code:{e.kind.upper()} {e}", file=sys.stderr)
        elif isinstance(e, _lib.AnalysisError):
            print(f"code:ANALYSIS_ERROR {e}", file=sys.stderr)
        else:
            raise
        return 2


def entry():
    """The process entry: `main`, then a frozen heap for shutdown to skip."""
    gc.disable()            # so `main` does not turn it on again
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
