"""The byte formats of the event log (docs/events.md) and of report.json
(docs/reports.md): the writers match the reference encodings, and
malformed input only ever fails the documented way."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.analyzer.report import _write_json
from xshark.cli import main
from xshark.sim import (EVENT_KINDS, RecordingTracker, SimConfig,
                        events_from_jsonl, events_to_jsonl, run_program)
from xshark.workloads import gen_random_kernel, gen_starvation_kernel

from helpers import asm_state


def report_text(obj) -> str:
    fh = io.StringIO()
    _write_json(fh, obj, "\n")
    return fh.getvalue()


EDGE_VALUES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e16, 1.5, 2.0 ** 70,
    10 ** 30, -(10 ** 25), 0, -1, True, False, None,
    "", 'quote " and backslash \\', "tab\tnewline\ncr\rnul\x00bell\x07",
    "café   \U0001f600", "\x7f\x1f",
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {}],
    (1, 2.5, "x"), [(1, 2), (3, 4)], [[1, math.nan], [2, -math.inf]],
    [[1, 2, 3], [4, 5]], [[True, 1], [False, 0]], [[1, "a"], [2, "b"]],
    {"b": 1, "a": [1, {"z": None, "y": (math.inf,)}], "é": "é"},
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=range(len(EDGE_VALUES)))
def test_report_writer_matches_json_dump(value):
    for doc in (value, {"k": value}, [value, value], {"a": {"b": [value]}}):
        assert report_text(doc) == json.dumps(doc, indent=1, sort_keys=True)


class _Writes(list):
    write = list.append


def test_report_writer_streams_in_bounded_batches():
    # int-only batches, then batches with floats, then one with a NaN
    doc = {"rows": [[i, i / 7 if i > 1500 else i] for i in range(3000)]
                   + [[0, math.nan]],
           "dicts": [{"from": i, "label": "x"} for i in range(3000)],
           "ints": list(range(2000))}
    writes = _Writes()
    _write_json(writes, doc, "\n")
    # rows go out about 1,000 values at a time, not all 3,000 in one string
    assert max(map(len, writes)) < 50_000
    assert "".join(writes) == json.dumps(doc, indent=1, sort_keys=True)


@pytest.mark.parametrize("doc", [
    {1: "int key"}, {"a": {None: 1}}, {"a": {True: 1}}, {"s": {1, 2}},
    {"o": object()}, [b"bytes"], {"a": [1, 2, 3j]},
], ids=["int-key", "none-key", "bool-key", "set", "object", "bytes", "complex"])
def test_report_writer_rejects_what_a_report_never_holds(doc):
    with pytest.raises(TypeError):
        report_text(doc)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.text(max_size=8))
json_trees = st.recursive(
    json_scalars,
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.tuples(kids, kids),
                           st.dictionaries(st.text(max_size=5), kids, max_size=5)),
    max_leaves=30)


@given(json_trees)
@settings(max_examples=200, deadline=None)
def test_report_writer_matches_json_dump_on_any_tree(doc):
    assert report_text(doc) == json.dumps(doc, indent=1, sort_keys=True)


# scalars that the table path formats itself; strings that look like a
# format directive, a number or a quote
_cells = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 10 ** 30]),
    st.sampled_from(["%", "%s", "%%", "100%", '"', "nan", "-inf", "Infinity"]),
    st.text(alphabet='%s"\\nafi é', max_size=6))


@st.composite
def _tables(draw):
    """A list of equally shaped rows of scalars: list or tuple rows of one
    length, or dict rows with one key set (keys may hold "%")."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        row = st.builds(lambda kind, cells: kind(cells),
                        st.sampled_from([list, tuple]),
                        st.lists(_cells, min_size=n, max_size=n))
    else:
        keys = draw(st.lists(st.text(alphabet='%sk"é', max_size=4),
                             min_size=n, max_size=n, unique=True))
        row = st.fixed_dictionaries({k: _cells for k in keys})
    return draw(st.lists(row, min_size=1, max_size=6))


@given(_tables(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_report_writer_matches_json_dump_on_tables(rows, nested):
    doc = {"rows%s": rows, "n": 1} if nested else rows
    assert report_text(doc) == json.dumps(doc, indent=1, sort_keys=True)


# ------------------------------------------------------------- event log

_FIELD_NAMES = ["cycle", "kind", "pc", "idx", "opcode", "unit", "reg", "region",
                "src_region", "dst_region", "slot", "dma_id", "link", "size",
                "reason", "until", "annulled", "bogus"]
_json_values = st.recursive(json_scalars,
                            lambda kids: st.one_of(
                                st.lists(kids, max_size=3),
                                st.dictionaries(st.text(max_size=4), kids,
                                                max_size=3)),
                            max_leaves=6)
_regions = st.one_of(_json_values, st.fixed_dictionaries({
    "space": st.one_of(st.sampled_from(["hbm", "vmem"]), _json_values),
    "offset": st.one_of(st.integers(-2, 2 ** 40), _json_values),
    "len": st.one_of(st.integers(-2, 4096), _json_values)}))
_event_like = st.dictionaries(
    st.sampled_from(_FIELD_NAMES),
    st.one_of(_json_values, st.sampled_from(sorted(EVENT_KINDS) + ["summary"]),
              _regions),
    max_size=6)
_lines = st.one_of(st.text(max_size=40), _event_like.map(json.dumps),
                   st.integers(1, 3000).map(lambda n: "[" * n))


@given(st.lists(_lines, max_size=6).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_events_from_jsonl_only_raises_value_error(text):
    try:
        events_from_jsonl(text)
    except ValueError:
        pass


def _generated_log(seed: int, size: int) -> str:
    src = (gen_starvation_kernel(tiles=2 + seed % 4, prefetch_depth=1)
           if seed % 3 == 0 else gen_random_kernel(seed, size=size).text)
    config = SimConfig()
    kernel, state = asm_state(src, config)
    tracker = RecordingTracker()
    result = run_program(kernel.program, config, state, tracker)
    summary = {"cycles": result.cycles, "total_stall": result.total_stall,
               "stall_cycles": dict(result.stall_cycles), "digest": "x:0"}
    return events_to_jsonl(tracker.events, summary)


@given(st.integers(0, 10_000), st.integers(20, 120))
@settings(max_examples=15, deadline=None)
def test_event_log_round_trips_byte_for_byte(seed, size):
    log = _generated_log(seed, size)
    for line in log.splitlines():              # the contractual line format
        assert line == json.dumps(json.loads(line), sort_keys=True)
    events, summary = events_from_jsonl(log)
    assert events_to_jsonl(events, summary) == log


@pytest.fixture(scope="module")
def good_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "good.jsonl"
    path.write_text(_generated_log(0, 20))
    return path


def _bad_summary(draw):
    """A summary object with one of its three checked fields mistyped."""
    doc = {"kind": "summary", "cycles": 10, "total_stall": 2, "digest": "x:0"}
    field = draw(st.sampled_from(["cycles", "total_stall", "digest"]))
    not_int = st.one_of(st.none(), st.floats(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2))
    not_str = st.one_of(st.none(), st.integers(), st.floats(),
                        st.lists(st.text(max_size=2), max_size=2))
    if draw(st.booleans()):
        del doc[field]
    else:
        doc[field] = draw(not_str if field == "digest" else not_int)
    return json.dumps(doc)


_last_lines = st.one_of(st.text(max_size=60), _lines, st.composite(_bad_summary)(),
                        _json_values.map(json.dumps))


@given(st.lists(st.text(max_size=30), max_size=3), _last_lines)
@settings(max_examples=120, deadline=None)
def test_compare_with_any_last_line_is_one_code_line(good_log, head, last):
    with tempfile.TemporaryDirectory() as d:
        bad = os.path.join(d, "bad.jsonl")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(head + [last]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compare", bad, str(good_log)])
    codes = [ln.split()[0] for ln in err.getvalue().splitlines()
             if ln.startswith("code:")]
    assert code == 1
    assert codes in (["code:NO_SUMMARY"], ["code:EVENTS_INVALID"])
    assert "Traceback" not in err.getvalue()
