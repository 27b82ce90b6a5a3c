"""The byte formats of the event log (docs/events.md) and of report.json
(docs/reports.md): the writers match the reference encodings, and
malformed input only ever fails the documented way."""

import contextlib
import io
import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.analyzer.report import _write_json
from xshark.cli import main
from xshark.isa import (DMA_DIR_NAMES, REGISTER_NAMES, MemRegion, MemSpace,
                        Opcode, Unit)
from xshark.sim import (_FIELD_VALUES, EVENT_FIELDS, PerfEvent, RecordingTracker,
                        SimConfig, events_from_jsonl, events_to_jsonl,
                        run_program)
from xshark.workloads import gen_random_kernel, gen_starvation_kernel

import oracles
from helpers import EVENT_KINDS, asm_state


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


def _decoded_or_none(decode, text):
    """decode(text), or None when it raises ValueError; any other exception
    escapes and fails the test."""
    try:
        return decode(text)
    except ValueError:
        return None


def _assert_reader_agrees_with_oracle(text):
    """events_from_jsonl accepts exactly the logs the oracle reader does,
    reads the same events and summary from them, and raises nothing but
    ValueError."""
    got = _decoded_or_none(events_from_jsonl, text)
    want = _decoded_or_none(oracles.events_from_jsonl, text)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
        assert repr(got[1]) == repr(want[1])      # a summary may hold a NaN


@given(st.lists(_lines, max_size=6).map("\n".join))
@settings(max_examples=200, deadline=None)
def test_events_from_jsonl_only_raises_value_error(text):
    _assert_reader_agrees_with_oracle(text)


# values that a valid event may hold, per field
_REGION_VALUES = st.builds(MemRegion, st.sampled_from(list(MemSpace)),
                           st.integers(0, 2 ** 40), st.integers(1, 2 ** 20))
_MEMBERS = {"unit": sorted(u.value for u in Unit),
            "reason": ["hazard", "dma_base", "dma_transfer"],
            "opcode": sorted(Opcode.__members__),
            "link": sorted(DMA_DIR_NAMES.values()),
            "reg": sorted(REGISTER_NAMES)}
_VALID_VALUES = {
    **dict.fromkeys("cycle pc idx slot dma_id size until".split(),
                    st.integers(0, 2 ** 40)),
    **{name: st.sampled_from(members) for name, members in _MEMBERS.items()},
    "annulled": st.booleans(),
    **dict.fromkeys("region src_region dst_region".split(), _REGION_VALUES),
}
_ENGINE_KINDS = {"dma_base_done", "dma_transfer_start", "dma_complete"}


@st.composite
def _valid_events(draw):
    """A list of events that satisfies every rule of docs/events.md: each
    kind with its required fields and some of its optional ones, valid
    values, and the reference rules of `idx`, `dma_id` and a DMA op's
    `slot`."""
    events, issues, issued = [], 0, []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(sorted(EVENT_FIELDS)))
        required, optional = EVENT_FIELDS[kind]
        names = required.split() + [n for n in optional.split() if draw(st.booleans())]
        values = {n: draw(_VALID_VALUES[n]) for n in names}
        if (values.get("opcode") in ("DMA_ISSUE", "DMA_WAIT")
                and not values.get("annulled")):
            for n in ("slot", "dma_id"):
                values.setdefault(n, draw(_VALID_VALUES[n]))
        if kind in _ENGINE_KINDS or (values.get("opcode") == "DMA_WAIT"
                                     and not values.get("annulled")):
            if not issued:
                continue
            values["dma_id"] = draw(st.sampled_from(issued))
        if kind == "instr_issue":
            values["idx"] = issues
            issues += 1
        elif "idx" in values:
            values["idx"] = min(values["idx"], issues)
        if kind == "dma_issue":
            issued.append(values["dma_id"])
        events.append(PerfEvent(draw(st.integers(0, 2 ** 40)), kind, **values))
    return events


_summaries = st.one_of(st.none(), st.fixed_dictionaries({
    "cycles": st.integers(0, 2 ** 40), "total_stall": st.integers(0, 2 ** 40),
    "digest": st.text(max_size=8)}))


@given(_valid_events(), _summaries)
@settings(max_examples=150, deadline=None)
def test_event_lines_are_json_dumps_of_each_event(events, summary):
    """Each line of a log is json.dumps of its event's object, with keys
    sorted (oracles.event_json); decoding the log gives the events back, and
    encoding them again the same bytes."""
    log = events_to_jsonl(events, summary)
    assert (log.splitlines()[:len(events)]
            == [json.dumps(oracles.event_json(ev), sort_keys=True) for ev in events])
    decoded, got_summary = events_from_jsonl(log)
    assert decoded == events
    assert events_to_jsonl(decoded, got_summary and {
        k: v for k, v in got_summary.items() if k != "kind"}) == log


def test_closed_set_members_need_no_json_escaping():
    """events_to_jsonl writes a closed-set string field as `"%s"`: each
    member's JSON text is the member between quotes."""
    for name, members in _FIELD_VALUES.items():
        for m in members:
            assert encode_basestring_ascii(m) == '"' + m + '"', (name, m)


# what a mutation may put into a field: valid values of any field, edge
# values of every JSON type, and region objects with one part wrong
_field_values = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1.5, 2 ** 70, "", "summary",
                     "DMA_WAIT", "hbm>vmem", "s0", [], {}, [1], {"len": 1}]),
    st.sampled_from(sorted(EVENT_KINDS)),
    *(v.map(lambda x: x if not isinstance(x, MemRegion) else x.to_json())
      for v in _VALID_VALUES.values()),
    _regions, _json_values)
_PADDING = [" ", "\t", " \t ", "\xa0", "\ufeff", "x", "{}", "[", ", 1"]


# a value of the same JSON type as a field's, or one that a reader could
# mistake for it, per type of the field's value
_near_values = {
    int: st.sampled_from([-1, 0, 1, 2 ** 63, -(2 ** 70), True, False, 1.0, None]),
    str: st.one_of(st.sampled_from(sorted(set().union(*_MEMBERS.values()))
                                   + ["", "summary", "SALU ", "s32"]),
                   st.text(max_size=6)),
    bool: st.sampled_from([0, 1, None, "true", True, False]),
    dict: _regions,
}


@st.composite
def _mutated_logs(draw):
    """A valid log with one field of one line set to another value, deleted
    or added, or with text put before or after one line."""
    events = draw(_valid_events().filter(bool))
    lines = events_to_jsonl(events, {"cycles": 1, "total_stall": 0,
                                     "digest": "x:0"}).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    mode = draw(st.sampled_from(["pad", "drop", "near", "near", "any"]))
    if mode == "pad":
        pad = st.sampled_from(_PADDING)
        lines[i] = draw(pad) * draw(st.booleans()) + lines[i] + \
            draw(pad) * draw(st.booleans())
        return "\n".join(lines) + "\n"
    doc = json.loads(lines[i])
    if mode == "near":                  # a field the line has
        name = draw(st.sampled_from(sorted(doc)))
        doc[name] = draw(_near_values[type(doc[name])])
    else:
        name = draw(st.sampled_from(sorted(doc) + _FIELD_NAMES))
        if mode == "drop":
            doc.pop(name, None)
        else:
            doc[name] = draw(_field_values)
    lines[i] = json.dumps(doc)          # an added key comes last
    return "\n".join(lines) + "\n"


@given(_mutated_logs())
@settings(max_examples=400, deadline=None)
def test_a_mutated_log_is_read_as_the_oracle_reads_it(text):
    _assert_reader_agrees_with_oracle(text)


def _generated_run(seed: int, size: int):
    """The events of a run of a generated kernel, and the run's log."""
    src = (gen_starvation_kernel(tiles=2 + seed % 4, prefetch_depth=1)
           if seed % 3 == 0 else gen_random_kernel(seed, size=size).text)
    config = SimConfig()
    kernel, state = asm_state(src, config)
    tracker = RecordingTracker()
    result = run_program(kernel.program, config, state, tracker)
    summary = {"cycles": result.cycles, "total_stall": result.total_stall,
               "stall_cycles": dict(result.stall_cycles), "digest": "x:0"}
    return tracker.events, events_to_jsonl(tracker.events, summary)


@given(st.integers(0, 10_000), st.integers(20, 120))
@settings(max_examples=15, deadline=None)
def test_event_log_round_trips_byte_for_byte(seed, size):
    """The log holds every field the simulator set: reading it back gives
    the simulator's events, and writing those the same bytes."""
    emitted, log = _generated_run(seed, size)
    for line in log.splitlines():              # the contractual line format
        assert line == json.dumps(json.loads(line), sort_keys=True)
    events, summary = events_from_jsonl(log)
    assert events == emitted
    assert events_to_jsonl(events, summary) == log


@pytest.fixture(scope="module")
def good_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("log") / "good.jsonl"
    path.write_text(_generated_run(0, 20)[1])
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
