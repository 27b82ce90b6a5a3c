"""The library's collector contract: each bulk call runs with the cyclic
garbage collector off (`xshark.gc_paused`), and leaves it on or off, and
the caller's frozen objects, as it found them, whether it returns or
raises; and what keeps the process entry's freeze before shutdown safe."""

import ast
import gc
import inspect
import sys
from pathlib import Path

import pytest

from xshark import gc_paused
from xshark.analyzer import analyze_vmem, build_dependency_graph, compute_backtails
from xshark.recorder import ExecutionTrace, record
from xshark.replayer import ReplayDivergence, replay, replay_with_schedule
from xshark.sim import RecordingTracker, SimConfig, Simulator, events_from_jsonl, \
    events_to_jsonl
from xshark.workloads import AsmError, assemble, gen_starvation_kernel, initial_state

_CONFIG = SimConfig()
_SOURCE = gen_starvation_kernel(tiles=2, prefetch_depth=1)


def _session():
    kernel = assemble(_SOURCE)
    return Simulator(kernel.program, _CONFIG, initial_state(kernel, _CONFIG))


def _inputs():
    trace = record(_session(), None, 10_000).trace
    tracker = RecordingTracker()
    replay(trace, _CONFIG, tracker)
    return trace, tracker.events


_TRACE, _EVENTS = _inputs()
_GRAPH = build_dependency_graph(_EVENTS)
_BARE = ExecutionTrace(_TRACE.header, [], [], _TRACE.instr_stream)   # no snapshots

# (paused call, a call of it that returns, one that raises inside it, what it raises)
_CALLS = [
    (assemble, lambda: assemble(_SOURCE), lambda: assemble("bogus s1\n"), AsmError),
    (record, lambda: record(_session(), None, 10_000),
     lambda: record(_session(), None, 0), ValueError),
    (replay, lambda: replay(_TRACE, _CONFIG), lambda: replay(_BARE, _CONFIG),
     ReplayDivergence),
    (replay_with_schedule,
     lambda: replay_with_schedule(_TRACE, range(len(_TRACE.instr_stream)), _CONFIG),
     lambda: replay_with_schedule(_BARE, range(len(_BARE.instr_stream)), _CONFIG),
     ReplayDivergence),
    (events_from_jsonl, lambda: events_from_jsonl(events_to_jsonl(_EVENTS)),
     lambda: events_from_jsonl("{}"), ValueError),
    (build_dependency_graph, lambda: build_dependency_graph(_EVENTS),
     lambda: build_dependency_graph([None]), AttributeError),
    (compute_backtails, lambda: compute_backtails(_GRAPH),
     lambda: compute_backtails(None), AttributeError),
    (analyze_vmem, lambda: analyze_vmem(_EVENTS),
     lambda: analyze_vmem(_EVENTS, sample_interval=0), ValueError),
]


def _enabled_inside(fn, call):
    """gc.isenabled() at each entry into the code that `fn` wraps (for the
    replayer, `_replay_stream`) while `call()` runs."""
    code = inspect.unwrap(fn).__code__
    if fn in (replay, replay_with_schedule):
        from xshark.replayer import _replay_stream
        code = inspect.unwrap(_replay_stream).__code__
    seen, previous = [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(gc.isenabled())

    sys.setprofile(profile)
    try:
        call()
    except Exception:
        pass
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("fn, returns, raises, error", _CALLS,
                         ids=[fn.__name__ for fn, *_ in _CALLS])
def test_a_bulk_call_pauses_the_collector_and_restores_it(fn, returns, raises,
                                                          error):
    """Inside the call the collector is off. Afterwards it is on or off as
    the caller had it, and the freeze count is unchanged, after a return
    and after a raise, with or without frozen objects; called inside
    another paused call, it leaves the collector off for the outer one."""
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for call in (returns, raises):
                assert _enabled_inside(fn, call) == [False]
            for freeze in (False, True):
                if freeze:      # a frozen object the call frees leaves the
                    gc.freeze()    # count, so the first call after it only warms up
                    returns()
                frozen = gc.get_freeze_count()
                returns()
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
                with pytest.raises(error):
                    raises()
                assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
                gc.unfreeze()
            outer = gc_paused(lambda: (returns(), gc.isenabled())[1])
            assert outer() is False and gc.isenabled() is enabled
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()


def test_no_file_or_finalizer_outlives_main():
    """`xshark.cli.entry` freezes the heap when `main` returns, so shutdown
    frees no object alive then. That loses nothing while no xshark file or
    finalizer outlives `main`: in `src/`, every `open(...)` is the context
    expression of a `with` item, and no class defines `__del__`."""
    for path in sorted((Path(__file__).parents[1] / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        managed = {id(item.context_expr) for node in ast.walk(tree)
                   if isinstance(node, (ast.With, ast.AsyncWith))
                   for item in node.items}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "id", getattr(node.func, "attr", None)) == "open":
                assert id(node) in managed, f"{path}:{node.lineno}: open() outside with"
            if isinstance(node, ast.ClassDef):
                assert "__del__" not in {f.name for f in node.body
                                         if isinstance(f, ast.FunctionDef)}, \
                    f"{path}:{node.lineno}: {node.name}.__del__"
