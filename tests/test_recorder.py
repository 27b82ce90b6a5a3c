"""First-use recording semantics, trace containers, and minimality."""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark.isa import Fault, MemRegion, MemSpace
from xshark.recorder import (ExecutionTrace, TraceError, TraceHeader, read_trace, record,
                             trace_to_binary, trace_to_json, write_trace)
from xshark.replayer import compare_window, replay
from xshark.sim import Breakpoint, SimConfig, state_digest
from xshark.workloads import assemble, gen_random_kernel

from helpers import asm_session, mk_config, sreg
from oracles import trace_to_json as trace_json_oracle


def _record_all(src, config=None, n=10_000, bp_pc=0, **kw):
    config = config or SimConfig()
    _, session = asm_session(src, config)
    result = record(session, Breakpoint(bp_pc), n, **kw)
    return session, result


def test_intermediate_results_not_snapshotted():
    # s0 is written in-window before S_ADD reads it: no snapshot for it
    session, res = _record_all("s_ldi s0, 1\ns_add s1, s0, s0\nhalt\n")
    assert res.trace.reg_snapshots == []


def test_first_use_inputs_snapshotted():
    src = """
      s_ldi s0, 3
      s_ldi s2, 4
      s_add s1, s0, s2
      halt
    """
    session, res = _record_all(src, bp_pc=2, n=1)
    snaps = {str(r): v for r, v in res.trace.reg_snapshots}
    assert snaps == {"s0": (3).to_bytes(4, "little"),
                     "s2": (4).to_bytes(4, "little")}


def test_read_write_register_snapshots_pre_step_value():
    src = """
      s_ldi s0, 9
      s_add s0, s0, s0
      halt
    """
    _, res = _record_all(src, bp_pc=1, n=1)
    snaps = {str(r): v for r, v in res.trace.reg_snapshots}
    assert snaps["s0"] == (9).to_bytes(4, "little")


def test_partial_memory_overlap_saves_only_uncovered_bytes():
    # the DMA writes [0x100,0x120) in-window; the load then reads the full
    # page [0x100,0x140): only [0x120,0x140) needs a snapshot
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x100
      s_ldi s2, 32
      dma_issue 0, hbm>vmem, s0, s1, s2
      dma_wait 0
      v_load v1, [s1]
      halt
    """
    _, res = _record_all(src, bp_pc=3, n=3)
    mem = [(str(m), len(d)) for m, d in res.trace.mem_snapshots]
    assert ("vmem[0x120+32]", 32) in mem
    assert not any(m.startswith("vmem[0x100") for m, _ in mem)


def test_predicated_false_records_only_guard():
    src = """
      s_ldi s0, 1
      s_ldi s1, 2
      @p3 s_add s2, s0, s1
      halt
    """
    _, res = _record_all(src, bp_pc=2, n=1)
    snaps = {str(r) for r, _ in res.trace.reg_snapshots}
    assert snaps == {"p3"}


def test_recording_stops_at_halt_with_flag():
    _, res = _record_all("s_ldi s0, 1\nhalt\n", n=50)
    assert res.ended_at_halt and res.trace.header.ended_at_halt
    assert res.recorded == 2


def test_window_that_runs_off_the_program_is_pc_oob_and_compares_equal():
    config = SimConfig()
    _, session = asm_session("s_ldi s0, 1\ns_ldi s1, 2\n", config)
    res = record(session, None, 10)
    assert res.recorded == 2 and res.fault.kind == "pc_oob"
    assert res.trace.header.fault_kind == "pc_oob"
    assert not res.ended_at_halt and not res.trace.header.ended_at_halt
    assert session.state.halted and session.state.pc == 2
    assert compare_window(session.state, res, replay(res.trace, config))["equal"]


def test_recording_with_inflight_dma_refuses_without_flag():
    src = """
      s_ldi s0, 0x1000
      s_ldi s1, 0x200
      s_ldi s2, 64
      dma_issue 0, hbm>vmem, s0, s1, s2
      s_ldi s3, 5
      dma_wait 0
      s_ldi s4, 6
      halt
    """
    config = SimConfig()
    from helpers import asm_session as mk
    _, session = mk(src, config)
    with pytest.raises(Fault) as exc:
        record(session, Breakpoint(4), 3)
    assert exc.value.kind == "dma_inflight"
    # fast-forward runs to quiescence and records from there
    _, session = mk(src, config)
    res = record(session, Breakpoint(4), 3, fast_forward_dma=True)
    assert res.recorded == 2 and res.ended_at_halt
    pcs = [pc for pc, _ in res.trace.instr_stream]
    assert pcs[0] > 4       # window begins after the WAIT reached quiescence


def test_unreached_breakpoint_raises():
    _, session = asm_session("s_ldi s0, 1\nhalt\ns_ldi s1, 2\n")
    with pytest.raises(Fault) as exc:
        record(session, Breakpoint(2), 1, max_cycles=1000)
    assert exc.value.kind == "bp_not_hit"


# ------------------------------------------------------------- containers

REF_SRC = """
  .data 0x1000: 0a 0b 0c 0d
  s_ldi s0, 0x1000
  s_ldi s1, 0x200
  s_ldi s2, 4
  dma_issue 1, hbm>vmem, s0, s1, s2
  dma_wait 1
  s_ldi s3, 0x200
  v_load v0, [s3]
  halt
"""


def _ref_trace(config=None):
    config = config or SimConfig()
    _, session = asm_session(REF_SRC, config)
    return record(session, Breakpoint(0), 100).trace


def test_trace_round_trip_json_and_binary(tmp_path):
    trace = _ref_trace()
    for binary in (False, True):
        p = str(tmp_path / ("t.bin" if binary else "t.json"))
        write_trace(trace, p, binary=binary)
        back = read_trace(p)
        assert back.header.to_json() == trace.header.to_json()
        assert back.reg_snapshots == trace.reg_snapshots
        assert back.mem_snapshots == trace.mem_snapshots
        assert back.instr_stream == trace.instr_stream


# the window starts at pc 6 (the @p1 add): it reads s, v and p registers
# and VMEM that the prologue set
MID_SRC = """
  .vdata32 0x240: 1 2 3 4
  s_ldi s0, 7
  s_ldi s1, 5
  s_cmp p1, s0, s1, gt
  s_ldi s3, 0x200
  s_ldi s5, 0x240
  v_load v2, [s5]
  @p1 s_add s2, s0, s1
  v_add v4, v2, v2
  v_store [s3], v4
  v_load v6, [s5]
  halt
"""


def _mid_trace():
    _, session = asm_session(MID_SRC, SimConfig())
    return record(session, Breakpoint(6), 100).trace


def test_mid_program_window_round_trips_with_every_register_class(tmp_path):
    trace = _mid_trace()
    assert trace.header.start_pc == 6
    assert {r.cls.value for r, _ in trace.reg_snapshots} == {"s", "v", "p"}
    assert trace.mem_snapshots
    for binary in (False, True):
        p = str(tmp_path / ("t.bin" if binary else "t.json"))
        write_trace(trace, p, binary=binary)
        back = read_trace(p)
        assert back.header.to_json() == trace.header.to_json()
        assert back.reg_snapshots == trace.reg_snapshots
        assert back.mem_snapshots == trace.mem_snapshots
        assert back.instr_stream == trace.instr_stream
        assert trace_to_binary(back) == trace_to_binary(trace)


def test_corrupted_byte_fails_checksum(tmp_path):
    trace = _ref_trace()
    p = str(tmp_path / "t.json")
    write_trace(trace, p)
    blob = open(p).read().replace('"start_pc": 0', '"start_pc": 1')
    open(p, "w").write(blob)
    with pytest.raises(TraceError) as exc:
        read_trace(p)
    assert exc.value.code == "TRACE_CHECKSUM"

    pb = str(tmp_path / "t.bin")
    write_trace(trace, pb, binary=True)
    raw = bytearray(open(pb, "rb").read())
    raw[40] ^= 0xFF
    open(pb, "wb").write(bytes(raw))
    with pytest.raises(TraceError) as exc:
        read_trace(pb)
    assert exc.value.code == "TRACE_CHECKSUM"


def test_config_hash_mismatch_distinct_error(tmp_path):
    trace = _ref_trace()
    p = str(tmp_path / "t.json")
    write_trace(trace, p)
    other = mk_config(t_base=55)
    with pytest.raises(TraceError) as exc:
        read_trace(p, expected_config_hash=other.config_hash())
    assert exc.value.code == "TRACE_CONFIG_MISMATCH"


def test_golden_trace_vector_stable():
    """Frozen container bytes: the format is contractual."""
    import pathlib
    golden = pathlib.Path(__file__).parent / "golden" / "minimal.trace.json"
    trace = _ref_trace()
    text = trace_to_json(trace)
    if not golden.exists():      # first generation, committed with the repo
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(text)
    assert text == golden.read_text()


# a random kernel's instructions, twice: two assemblies make equal
# instructions that are distinct objects, one makes a repeated line's once
_POOL = [i for _ in range(2)
         for i in assemble(gen_random_kernel(0, size=80).text).program.instructions]


@settings(max_examples=60, deadline=None)
@given(st.builds(TraceHeader, st.just(1), st.text(max_size=6), st.integers(0, 2 ** 31),
                 st.integers(0, 2 ** 40), st.integers(0, 99), st.booleans(),
                 st.none() | st.text(max_size=4)),
       st.lists(st.tuples(st.sampled_from([sreg(1), sreg(7)]), st.binary(max_size=4)),
                max_size=2),
       st.lists(st.tuples(st.builds(MemRegion, st.sampled_from(MemSpace),
                                    st.integers(0, 2 ** 20), st.integers(1, 64)),
                          st.binary(max_size=8)), max_size=2),
       st.lists(st.tuples(st.integers(0, 2 ** 31), st.sampled_from(_POOL)), max_size=12))
def test_the_json_writer_is_json_dumps_at_indent_1(header, regs, mems, stream):
    """trace_to_json writes the text of json.dumps(container, indent=1), as
    the earlier writer did, for any trace, an empty stream included."""
    trace = ExecutionTrace(header, regs, mems, stream)
    assert trace_to_json(trace) == trace_json_oracle(trace)


def test_duplicate_register_snapshot_rejected():
    trace = _ref_trace()
    trace.reg_snapshots = [(sreg(0), b"\0\0\0\0"), (sreg(0), b"\0\0\0\0")]
    with pytest.raises(TraceError):
        trace.validate()


def test_overlapping_mem_snapshots_rejected():
    trace = _ref_trace()
    trace.mem_snapshots = [(MemRegion(MemSpace.VMEM, 0, 64), bytes(64)),
                           (MemRegion(MemSpace.VMEM, 32, 64), bytes(64))]
    with pytest.raises(TraceError):
        trace.validate()


# ------------------------------------------------------------- fuzzing

_PAYLOAD_KEYS = ("header", "reg_snapshots", "mem_snapshots", "instr_stream")
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2 ** 40),
              st.text(max_size=8)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=6)


def _resigned_json(doc) -> bytes:
    payload = {k: doc[k] for k in _PAYLOAD_KEYS}
    doc["checksum"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return json.dumps(doc).encode()


@pytest.mark.parametrize("field,value", [
    ("ended_at_halt", "false"), ("ended_at_halt", 0), ("sim_config_hash", 0),
    ("sim_config_hash", None), ("fault_kind", 1), ("fault_kind", False)])
def test_header_field_of_the_wrong_type_is_trace_format(tmp_path, field, value):
    # a string "false" is truthy: replayed, it would end the window halted
    doc = json.loads(trace_to_json(_mid_trace()))
    doc["header"][field] = value
    path = tmp_path / "t.json"
    path.write_bytes(_resigned_json(doc))
    with pytest.raises(TraceError) as exc:
        read_trace(str(path))
    assert exc.value.code == "TRACE_FORMAT"


def _mutated_json(text: str, data) -> bytes:
    """The JSON container with one record's byte flipped, one value anywhere
    in the payload replaced, or a section cut short, re-signed; or its text
    cut short."""
    doc = json.loads(text)
    how = data.draw(st.sampled_from(["flip", "replace", "cut", "cut text"]))
    if how == "cut text":
        return text.encode()[:data.draw(st.integers(0, len(text) - 1))]
    node, key = doc, data.draw(st.sampled_from(_PAYLOAD_KEYS))
    if how == "flip":
        j = data.draw(st.integers(0, len(doc["instr_stream"]) - 1))
        raw = bytearray.fromhex(doc["instr_stream"][j][1])
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        doc["instr_stream"][j][1] = raw.hex()
    elif how == "cut":
        section = doc[key]
        keep = data.draw(st.integers(0, len(section)))
        doc[key] = (dict(list(section.items())[:keep]) if key == "header"
                    else section[:keep])
    else:
        while (node[key] and isinstance(node[key], (list, dict))
               and data.draw(st.booleans())):
            node = node[key]
            key = data.draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                            else st.integers(0, len(node) - 1))
        node[key] = data.draw(_json_values)
    return _resigned_json(doc)


def _mutated_binary(blob: bytes, data) -> bytes:
    """The binary container with a few bytes after the magic flipped and cut
    short (either, both or neither), re-signed."""
    body = bytearray(blob[:-32])
    for _ in range(data.draw(st.integers(0, 3))):
        body[data.draw(st.integers(4, len(body) - 1))] ^= data.draw(st.integers(1, 255))
    if data.draw(st.booleans()):
        body = body[:data.draw(st.integers(4, len(body)))]
    return bytes(body) + hashlib.sha256(body).digest()


@pytest.fixture(scope="module")
def containers():
    trace = _mid_trace()
    return trace_to_json(trace), trace_to_binary(trace)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_read_trace_of_a_damaged_container_raises_only_trace_error(containers, data):
    """A damaged container whose checksum matches reaches the decoders,
    instruction decoding included; read_trace then returns a trace or raises
    TraceError, never another exception."""
    text, blob = containers
    content = (_mutated_binary(blob, data) if data.draw(st.booleans())
               else _mutated_json(text, data))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t")
        with open(path, "wb") as fh:
            fh.write(content)
        try:
            read_trace(path)
        except TraceError:
            pass


# ------------------------------------------------------------- minimality

def test_dropping_any_snapshot_breaks_fidelity():
    config = SimConfig()
    _, session = asm_session(REF_SRC, config)
    res = record(session, Breakpoint(0), 100)
    baseline = replay(res.trace, config)
    assert compare_window(session.state, res, baseline)["equal"]
    n_snaps = len(res.trace.reg_snapshots) + len(res.trace.mem_snapshots)
    assert n_snaps > 0
    for k in range(n_snaps):
        t = res.trace
        if k < len(t.reg_snapshots):
            mutated = ExecutionTrace(t.header,
                                     t.reg_snapshots[:k] + t.reg_snapshots[k + 1:],
                                     t.mem_snapshots, t.instr_stream)
        else:
            j = k - len(t.reg_snapshots)
            mutated = ExecutionTrace(t.header, t.reg_snapshots,
                                     t.mem_snapshots[:j] + t.mem_snapshots[j + 1:],
                                     t.instr_stream)
        broke = False
        try:
            out = replay(mutated, config)
            broke = out.digest != baseline.digest
        except Exception:
            broke = True
        assert broke, f"dropping snapshot {k} went unnoticed"
