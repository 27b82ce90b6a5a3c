"""CLI pipeline: asm -> run/record -> replay -> analyze -> suggest -> apply
-> compare, exit codes and error codes."""

import ast
import base64
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xshark import cli
from xshark.analyzer.suggest import Suggestion
from xshark.cli import main
from xshark.isa import (DEFAULT_VMEM_CAPACITY, DMA_DIR_NAMES, PAGE_BYTES,
                        VMEM_BUCKETS, EncodingError, Unit)
from xshark.workloads import (gen_checkerboard_kernel, gen_random_kernel,
                              gen_starvation_kernel, load_bundle)

from helpers import mk_config


@pytest.fixture()
def ws(tmp_path):
    src = tmp_path / "kernel.xasm"
    src.write_text(gen_starvation_kernel(tiles=12, prefetch_depth=1))
    return tmp_path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_full_pipeline_state_equal_and_halved(ws, capsys):
    prog, trace = ws / "prog.json", ws / "win.trace"
    ev1, ev2 = ws / "events.jsonl", ws / "events2.jsonl"
    sug = ws / "suggestions.json"
    report = ws / "report"

    assert _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)[0] == 0
    assert _run(capsys, "run", prog)[0] == 0
    assert _run(capsys, "record", prog, "--break", "0", "--count", "100000",
                "-o", trace)[0] == 0
    assert _run(capsys, "replay", trace, "-o", ev1)[0] == 0
    assert _run(capsys, "analyze", ev1, "--dma", "--util", "--vmem", "--deps",
                "-o", report, "--program", prog)[0] == 0
    for name in ("report.json", "dma_timeline.svg", "util_mxu.csv",
                 "vmem_heatmap.svg"):
        assert (report / name).exists()
    assert _run(capsys, "suggest", trace, ev1, "-o", sug)[0] == 0
    assert len(json.loads(sug.read_text())) > 0
    code, out, _ = _run(capsys, "apply", trace, sug, "--verify", "-o", ev2)
    assert code == 0 and "verified_speedup" in out
    code, out, _ = _run(capsys, "compare", ev1, ev2)
    assert code == 0
    assert "state: equal" in out
    before, after = None, None
    for line in out.splitlines():
        if line.startswith("cycles:"):
            before = int(line.split()[1])
            after = int(line.split()[3])
    assert after <= before // 2            # >= 50% cycle reduction


def test_apply_verify_identity_list_is_verify_failed(tmp_path, capsys):
    # a suggestion that moves nothing is replayed, logged and not verified
    (tmp_path / "k.xasm").write_text(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    prog, trace = tmp_path / "prog.json", tmp_path / "win.trace"
    ev1, ev2, sug = tmp_path / "e1.jsonl", tmp_path / "e2.jsonl", tmp_path / "s.json"
    _run(capsys, "asm", tmp_path / "k.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "100000", "-o", trace)
    assert _run(capsys, "replay", trace, "-o", ev1)[0] == 0
    issue = next(json.loads(ln)["idx"] for ln in ev1.read_text().splitlines()
                 if json.loads(ln)["kind"] == "dma_issue")
    sug.write_text(json.dumps([{"dma_id": 0, "issue_index": issue,
                                "proposed_position": issue, "push_limit": 1,
                                "stall_duration": 1, "required_vmem": 64,
                                "block": [issue]}]))
    code, out, err = _run(capsys, "apply", trace, sug, "--verify", "-o", ev2)
    assert code == 2
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == ["code:VERIFY_FAILED"]
    assert "no stall reduction (delta 0)" in out
    replayed, applied = ev1.read_text().splitlines(), ev2.read_text().splitlines()
    assert len(applied) == len(replayed) > 1
    assert _run(capsys, "compare", ev1, ev2)[1].splitlines()[-1] == "state: equal"


def test_record_unreachable_breakpoint_exit_2(ws, capsys):
    prog = ws / "prog.json"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    # pc 1 is inside the prologue but we ask for a 99th hit that never comes
    code, _, err = _run(capsys, "record", prog, "--break", "1", "--hit", "99",
                        "--count", "10", "--max-cycles", "20000", "-o", ws / "t")
    assert code == 2
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == ["code:BP_NOT_HIT"]


def test_record_breaks_at_a_label_as_at_its_pc(tmp_path, capsys):
    (tmp_path / "k.xasm").write_text(gen_checkerboard_kernel())
    prog = tmp_path / "prog.json"
    _run(capsys, "asm", tmp_path / "k.xasm", "-o", prog)
    top = json.loads(prog.read_text())["labels"]["top"]
    for at, out in (("top", "a.trace"), (str(top), "b.trace")):
        assert _run(capsys, "record", prog, "--break", at, "--hit", "2",
                    "--count", "4", "-o", tmp_path / out)[0] == 0
    trace = (tmp_path / "a.trace").read_text()
    assert json.loads(trace)["header"]["start_pc"] == top > 0
    assert trace == (tmp_path / "b.trace").read_text()


def test_compare_run_log_with_replay_log_is_incomparable(ws, capsys):
    prog, trace = ws / "prog.json", ws / "win.trace"
    run_log, replay_log = ws / "run.jsonl", ws / "replay.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "run", prog, "-o", run_log)
    _run(capsys, "record", prog, "--break", "0", "--count", "50", "-o", trace)
    _run(capsys, "replay", trace, "-o", replay_log)
    code, out, err = _run(capsys, "compare", run_log, replay_log)
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "state: incomparable"


def test_no_command_prints_help_and_exits_1(capsys):
    code, out, err = _run(capsys)
    assert (code, err) == (1, "")
    assert out.startswith("usage: xshark")


def test_record_window_ending_in_a_fault_exits_0(ws, capsys):
    """A window whose instruction faults is recorded up to the fault, which
    the message and the header name."""
    _bundle_of(_FAULT_IN_FAST_FORWARD)(ws)
    capsys.readouterr()
    code, out, err = _run(capsys, "record", ws / "k.json", "--break", "0",
                          "--count", "10", "-o", ws / "t")
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("(fault: mem_align)")
    header = json.loads((ws / "t").read_text())["header"]
    assert (header["instruction_count"], header["fault_kind"]) == (5, "mem_align")


def test_usage_error_exit_1(ws, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["record", "--count", "5"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["record", "{prog}", "--break", "0", "--count", "-1", "-o", "{ws}/t"],
    ["record", "{prog}", "--break", "0", "--count", "5", "--hit", "0",
     "-o", "{ws}/t"],
    ["run", "{prog}", "--max-cycles", "0"],
    ["record", "{prog}", "--break", "0", "--count", "5", "--max-cycles", "-5",
     "-o", "{ws}/t"],
    ["analyze", "{events}", "--bucket-width", "0", "-o", "{ws}/r"],
    ["analyze", "{events}", "--sample-interval", "0", "-o", "{ws}/r"],
    ["record", "{prog}", "--break", "0", "--count", "x", "-o", "{ws}/t"],
], ids=["count", "hit", "max-cycles", "record-max-cycles", "bucket-width",
        "sample-interval", "count-not-a-number"])
def test_nonpositive_numeric_argument_is_usage_error(ws, capsys, argv):
    prog, events = ws / "prog.json", ws / "events.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "run", prog, "-o", events)
    with pytest.raises(SystemExit) as exc:
        main([a.format(prog=prog, events=events, ws=ws) for a in argv])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == ["code:USAGE"]
    assert "Traceback" not in err


def _resigned_binary_prefix(ws):
    """A binary trace cut to 40 bytes and re-signed: the checksum matches."""
    assert main(["record", str(ws / "prog.json"), "--break", "0", "--count", "50",
                 "--binary", "-o", str(ws / "win.bin")]) == 0
    prefix = (ws / "win.bin").read_bytes()[:40]
    return prefix + hashlib.sha256(prefix).digest()


def _resigned_trace(edit, name="win.trace"):
    """The JSON trace `name` of the workspace as edit(doc) leaves it,
    re-signed: the checksum matches."""
    def make(ws):
        doc = json.loads((ws / name).read_text())
        edit(doc)
        payload = {k: doc[k] for k in ("header", "reg_snapshots", "mem_snapshots",
                                       "instr_stream")}
        doc["checksum"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()
        return json.dumps(doc).encode()
    return make


def _resigned_first_record(edit):
    """`_resigned_trace` with the first instruction record [pc, hex] replaced
    by edit(pc, hex)."""
    def replace(doc):
        doc["instr_stream"][0] = edit(*doc["instr_stream"][0])
    return _resigned_trace(replace)


# opcode byte 0xee: the record does not decode
_resigned_bad_opcode = _resigned_first_record(lambda pc, raw: [pc, "ee" + raw[2:]])


def _replay_log_and_bad_opcode(ws):
    """`_resigned_bad_opcode`, after writing the replay log of the workspace
    trace to replay.jsonl."""
    assert main(["replay", str(ws / "win.trace"), "-o", str(ws / "replay.jsonl")]) == 0
    return _resigned_bad_opcode(ws)


_DROP = object()


def _edited_event(kind, field, value, opcode=None):
    """The run log of the workspace kernel with `field` of its first `kind`
    event (of `opcode`, if given) set to `value`, or deleted for _DROP."""
    def make(ws):
        lines = (ws / "events.jsonl").read_text().splitlines()
        i = next(i for i, ln in enumerate(lines)
                 if json.loads(ln)["kind"] == kind
                 and opcode in (None, json.loads(ln).get("opcode")))
        event = {**json.loads(lines[i]), field: value}
        if value is _DROP:
            del event[field]
        lines[i] = json.dumps(event, sort_keys=True)
        return ("\n".join(lines) + "\n").encode()
    return make


def _suggestion_moving_first_wait(ws):
    """A suggestion list that hoists the first DMA_WAIT of the run log of the
    workspace to the front of the window, before its DMA_ISSUE."""
    wait = next(e["idx"] for e in map(json.loads,
                                      (ws / "events.jsonl").read_text().splitlines())
                if e.get("opcode") == "DMA_WAIT")
    return json.dumps([{"dma_id": 0, "issue_index": wait, "proposed_position": 0,
                        "push_limit": 1, "stall_duration": 1, "required_vmem": 64,
                        "block": [wait]}]).encode()


def _edited_bundle(**fields):
    """The workspace bundle with `fields` set to the given values."""
    def make(ws):
        return json.dumps({**json.loads((ws / "prog.json").read_text()),
                           **fields}).encode()
    return make


def _bundle_with_bad_base64(ws):
    """The workspace bundle with `!!`, outside the base64 alphabet, put in
    front of its first hbm_image string."""
    doc = json.loads((ws / "prog.json").read_text())
    doc["hbm_image"][0][1] = "!!" + doc["hbm_image"][0][1]
    return json.dumps(doc).encode()


def _first_mem_snapshot(edit):
    """`_resigned_trace` with the first memory snapshot [region, base64]
    replaced by edit(region, base64)."""
    def replace(doc):
        doc["mem_snapshots"][0] = edit(*doc["mem_snapshots"][0])
    return _resigned_trace(replace)


# a DMA is in flight at `here`, and the v_load there faults: address 3 is
# not page-aligned
_FAULT_IN_FAST_FORWARD = """
  s_ldi s0, 0x40000
  s_ldi s1, 0
  s_ldi s2, 1024
  s_ldi s3, 3
  dma_issue 0, hbm>vmem, s0, s1, s2
here:
  v_load v0, [s3]
  halt
"""


def _bundle_of(source):
    """The bundle that `source` assembles to, also written to k.json."""
    def make(ws):
        (ws / "k.xasm").write_text(source)
        assert main(["asm", str(ws / "k.xasm"), "-o", str(ws / "k.json")]) == 0
        return (ws / "k.json").read_bytes()
    return make


# the region v_load reads at `here` is addressed by s1, a register snapshot
# of a window that starts there
_LOAD_VIA_SNAPSHOT = """
  s_ldi s1, 64
here:
  v_load v0, [s1]
  halt
"""


def _trace_of(source, edit):
    """The JSON trace of `source` recorded from `here`, as edit(doc) leaves
    it, re-signed."""
    def make(ws):
        _bundle_of(source)(ws)
        assert main(["record", str(ws / "k.json"), "--break", "here", "--count",
                     "5", "-o", str(ws / "k.trace")]) == 0
        return _resigned_trace(edit, "k.trace")(ws)
    return make


def _first_reg_snapshot_bytes(data):
    """An edit that sets the bytes of the first register snapshot to `data`."""
    def edit(doc):
        doc["reg_snapshots"][0][1] = base64.b64encode(data).decode()
    return edit


def _second_record_pc_moved(doc):
    """Moves the second instruction record one pc past where control flow
    takes the replay."""
    doc["instr_stream"][1][0] += 1


def _stale_checksum(ws):
    """The JSON trace of the workspace with its start cycle changed and its
    checksum left as it was."""
    doc = json.loads((ws / "win.trace").read_text())
    doc["header"]["start_cycle"] += 1
    return json.dumps(doc).encode()


def _guarded_by_s0(raw: str) -> str:
    """The hex of instruction records `raw` with the guard byte of the first
    set to 0x00, the scalar register s0."""
    return raw[:2] + "00" + raw[4:]


def _bundle_guarded_by_s0(ws):
    doc = json.loads((ws / "prog.json").read_text())
    doc["instructions"] = _guarded_by_s0(doc["instructions"])
    return json.dumps(doc).encode()


# the DMA issued before `here` is never waited for
_DMA_NEVER_WAITED = """
  s_ldi s0, 0
  s_ldi s1, 0
  s_ldi s2, 64
  dma_issue 0, hbm>vmem, s0, s1, s2
here:
  halt
"""
_DMA_ISSUE = "  dma_issue 0, hbm>vmem, s0, s1, s2\n"


def _log_of_slow_dma(ws):
    """The run log of the 4-tile starvation kernel under a config the
    simulator accepts, a DMA base latency of 10**9 cycles: it ends past
    cycle 10**9."""
    (ws / "slow.json").write_text('{"t_base": 1000000000}')
    (ws / "tiles4.xasm").write_text(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    assert main(["asm", str(ws / "tiles4.xasm"), "-o", str(ws / "tiles4.json")]) == 0
    assert main(["--config", str(ws / "slow.json"), "run", str(ws / "tiles4.json"),
                 "--max-cycles", str(10 ** 12), "-o", str(ws / "slow.jsonl")]) == 0
    return (ws / "slow.jsonl").read_bytes()


def _replay_log_ending_late(ws):
    """The replay log of the workspace trace with its last instr_retire
    moved to cycle 10**9."""
    assert main(["replay", str(ws / "win.trace"), "-o", str(ws / "late.jsonl")]) == 0
    lines = (ws / "late.jsonl").read_text().splitlines()
    i = max(i for i, ln in enumerate(lines) if '"instr_retire"' in ln)
    lines[i] = json.dumps({**json.loads(lines[i]), "cycle": 10 ** 9}, sort_keys=True)
    return ("\n".join(lines) + "\n").encode()


_float_offset_region = _edited_event("mem_write", "region",
                                     {"len": 64, "offset": 1024.5, "space": "vmem"})
_ASM = ["asm", "{f}", "-o", "{ws}/p.json"]
_ANALYZE = ["analyze", "{f}", "-o", "{ws}/r"]
_ANALYZE_AT_WIDTH_1 = ["analyze", "{f}", "--bucket-width", "1", "-o", "{ws}/r"]
_BREAK_X = ["record", "{f}", "--break", "x", "--count", "5", "-o", "{ws}/t"]
_WITH_REGIONS = ["analyze", "{events}", "--program", "{f}", "-o", "{ws}/r"]

_DEEP = b"[" * 200_000 + b"]" * 200_000

MALFORMED_INPUTS = {
    # id: (file content, or a function of the workspace that makes it,
    #      argv with the file as {f}, code, exit code)
    "trace-not-utf8": (b"\xff\xfe\x00garbage", ["replay", "{f}", "-o", "{ws}/e"],
                       "TRACE_FORMAT", 2),
    "trace-resigned-prefix": (_resigned_binary_prefix,
                              ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-bad-opcode": (_resigned_bad_opcode, ["replay", "{f}", "-o", "{ws}/e"],
                         "TRACE_FORMAT", 2),
    "trace-bad-opcode-suggest": (_replay_log_and_bad_opcode,
                                 ["suggest", "{f}", "{ws}/replay.jsonl",
                                  "-o", "{ws}/s.json"], "TRACE_FORMAT", 2),
    "trace-first-mem-snapshot-dropped": (
        _resigned_trace(lambda doc: doc["mem_snapshots"].pop(0)),
        ["replay", "{f}", "-o", "{ws}/e"], "REPLAY_DIVERGENCE", 2),
    "trace-pc-not-int": (_resigned_first_record(lambda pc, raw: ["x", raw]),
                         ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-start-pc-negative": (
        _resigned_trace(lambda doc: doc["header"].update(start_pc=-3)),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-start-cycle-negative": (
        _resigned_trace(lambda doc: doc["header"].update(start_cycle=-3)),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-first-record-pc-negative": (
        _resigned_first_record(lambda pc, raw: [-1, raw]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "config-string-t_base": (b'{"t_base": "x"}', ["--config", "{f}", "run", "{prog}"],
                             "CONFIG_INVALID", 1),
    "config-not-object": (b"[1]", ["--config", "{f}", "run", "{prog}"],
                          "CONFIG_INVALID", 1),
    "config-int-link_bandwidth": (b'{"link_bandwidth": 5}',
                                  ["--config", "{f}", "run", "{prog}"],
                                  "CONFIG_INVALID", 1),
    "config-unknown-unit": (b'{"unit_latency": {"XYZ": -1}}',
                            ["--config", "{f}", "run", "{prog}"], "CONFIG_INVALID", 1),
    "config-unknown-field": (b'{"t_bse": 5}', ["--config", "{f}", "run", "{prog}"],
                             "CONFIG_INVALID", 1),
    "config-missing": (b"", ["--config", "{ws}/none.json", "run", "{prog}"],
                       "CONFIG_NOT_FOUND", 1),
    "asm-source-is-a-directory": (b"", ["asm", "{ws}", "-o", "{ws}/p.json"],
                                  "IO_ERROR", 1),
    "record-unknown-label": (b"", ["record", "{prog}", "--break", "nowhere",
                                   "--count", "5", "-o", "{ws}/t"],
                             "BAD_BREAKPOINT", 1),
    "suggest-log-of-another-window": (b"", ["suggest", "{trace}", "{events}",
                                            "-o", "{ws}/s.json"],
                                      "EVENTS_TRACE_MISMATCH", 2),
    "events-last-line-not-summary": (b'{"cycle": 1, "kind": "bogus"}\n',
                                     ["compare", "{f}", "{events}"], "NO_SUMMARY", 1),
    "events-not-json": (b"not json", ["analyze", "{f}", "-o", "{ws}/r"],
                        "EVENTS_INVALID", 1),
    "events-unknown-kind": (b'{"kind":"bogus","cycle":1}',
                            ["analyze", "{f}", "-o", "{ws}/r"], "EVENTS_INVALID", 1),
    "events-no-kind": (b'{"cycle":1}', ["analyze", "{f}", "-o", "{ws}/r"],
                       "EVENTS_INVALID", 1),
    "events-empty-summary": (b'{"kind":"summary"}', ["compare", "{f}", "{events}"],
                             "EVENTS_INVALID", 1),
    "suggestions-missing-keys": (b'[{"dma_id": 1}]',
                                 ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                                 "SUGGESTIONS_INVALID", 1),
    "suggestions-not-list": (b'{"dma_id":"x"}',
                             ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                             "SUGGESTIONS_INVALID", 1),
    "suggestions-not-json": (b"{", ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                             "SUGGESTIONS_INVALID", 1),
    "suggestions-empty": (b"[]", ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                          "NO_SUGGESTIONS", 1),
    "suggestions-wait-before-issue": (_suggestion_moving_first_wait,
                                      ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                                      "REPLAY_DIVERGENCE", 2),
    "suggestions-block-out-of-range": (
        json.dumps([{"dma_id": 0, "issue_index": 5, "proposed_position": 0,
                     "push_limit": 1, "stall_duration": 1, "required_vmem": 64,
                     "block": [1000000]}]).encode(),
        ["apply", "{trace}", "{f}", "-o", "{ws}/e"], "ANALYSIS_ERROR", 2),
    "bundle-not-json": (b"zz", ["run", "{f}"], "BUNDLE_INVALID", 1),
    "bundle-no-isa-version": (b'{"format":"xshark-program"}', ["run", "{f}"],
                              "BUNDLE_INVALID", 1),
    "bundle-labels-not-object": (_edited_bundle(labels=["x"]), _BREAK_X,
                                 "BUNDLE_INVALID", 1),
    "bundle-label-not-int": (_edited_bundle(labels={"x": "zero"}), _BREAK_X,
                             "BUNDLE_INVALID", 1),
    "bundle-region-short": (_edited_bundle(regions=[[1, 2]]), _WITH_REGIONS,
                            "BUNDLE_INVALID", 1),
    "bundle-region-start-string": (_edited_bundle(regions=[["a", "0", 5]]),
                                   _WITH_REGIONS, "BUNDLE_INVALID", 1),
    "bundle-image-offset-string": (_edited_bundle(hbm_image=[["5", "AAAA"]]),
                                   ["run", "{f}"], "BUNDLE_INVALID", 1),
    "bundle-image-offset-bool": (_edited_bundle(hbm_image=[[True, "AAAA"]]),
                                 ["run", "{f}"], "BUNDLE_INVALID", 1),
    "bundle-image-offset-negative": (_edited_bundle(vmem_image=[[-64, "AAAA"]]),
                                     ["run", "{f}"], "BUNDLE_INVALID", 1),
    "bundle-isa-version-bool": (_edited_bundle(isa_version=True), ["run", "{f}"],
                               "BUNDLE_INVALID", 1),
    "bundle-entry-pc-bool": (_edited_bundle(entry_pc=True), ["run", "{f}"],
                             "BUNDLE_INVALID", 1),
    "asm-leading-zero-immediate": (b"s_ldi s0, 007\nhalt\n", _ASM, "ASM_ERROR", 2),
    "asm-leading-zero-target": (b"br 08\nhalt\n", _ASM, "ASM_ERROR", 2),
    "asm-leading-zero-address": (b".data 010: 01\nhalt\n", _ASM, "ASM_ERROR", 2),
    "asm-unicode-digit-register": ("s_ldi s\u00b2, 1\nhalt\n".encode(), _ASM,
                                   "ASM_ERROR", 2),
    "asm-f32-overflow": (b".dataf 0: 1e39\nhalt\n", _ASM, "ASM_ERROR", 2),
    "events-issue-idx-null": (_edited_event("instr_issue", "idx", None), _ANALYZE,
                              "EVENTS_INVALID", 1),
    "events-reg-read-idx-string": (_edited_event("reg_read", "idx", "x"), _ANALYZE,
                                   "EVENTS_INVALID", 1),
    "events-dma-never-issued": (_edited_event("dma_base_done", "dma_id", 999),
                                _ANALYZE, "EVENTS_INVALID", 1),
    "events-negative-cycle": (_edited_event("instr_retire", "cycle", -5), _ANALYZE,
                              "EVENTS_INVALID", 1),
    "events-idx-huge": (_edited_event("reg_read", "idx", 300000), _ANALYZE,
                        "EVENTS_INVALID", 1),
    "events-wait-never-issued": (_edited_event("instr_issue", "dma_id", 999,
                                               "DMA_WAIT"),
                                 _ANALYZE, "EVENTS_INVALID", 1),
    "events-dma-issue-op-no-dma-id": (
        _edited_event("instr_issue", "dma_id", _DROP, "DMA_ISSUE"),
        _ANALYZE, "EVENTS_INVALID", 1),
    "events-dma-issue-no-src-region": (_edited_event("dma_issue", "src_region", _DROP),
                                       _ANALYZE, "EVENTS_INVALID", 1),
    "events-mem-write-no-region": (_edited_event("mem_write", "region", _DROP),
                                   _ANALYZE, "EVENTS_INVALID", 1),
    "events-unit-busy-no-until": (_edited_event("unit_busy", "until", _DROP),
                                  _ANALYZE, "EVENTS_INVALID", 1),
    "events-reg-read-no-reg": (_edited_event("reg_read", "reg", _DROP), _ANALYZE,
                               "EVENTS_INVALID", 1),
    "events-issue-no-opcode": (_edited_event("instr_issue", "opcode", _DROP),
                               _ANALYZE, "EVENTS_INVALID", 1),
    "events-retire-no-pc": (_edited_event("instr_retire", "pc", _DROP), _ANALYZE,
                            "EVENTS_INVALID", 1),
    "events-reg-read-unlisted-until": (_edited_event("reg_read", "until", 5),
                                       _ANALYZE, "EVENTS_INVALID", 1),
    "events-unit-busy-unknown-unit": (_edited_event("unit_busy", "unit", "FOO"),
                                      _ANALYZE, "EVENTS_INVALID", 1),
    "events-stall-unknown-reason": (_edited_event("stall_begin", "reason", "bogus"),
                                    _ANALYZE, "EVENTS_INVALID", 1),
    "events-issue-unknown-opcode": (_edited_event("instr_issue", "opcode", "NOPE"),
                                    _ANALYZE, "EVENTS_INVALID", 1),
    "events-dma-issue-unknown-link": (_edited_event("dma_issue", "link", "x>y"),
                                      _ANALYZE, "EVENTS_INVALID", 1),
    "events-reg-read-unknown-reg": (_edited_event("reg_read", "reg", "zz9"),
                                    _ANALYZE, "EVENTS_INVALID", 1),
    "events-region-offset-float": (_float_offset_region, _ANALYZE,
                                   "EVENTS_INVALID", 1),
    "events-region-offset-float-suggest": (
        _float_offset_region, ["suggest", "{trace}", "{f}", "-o", "{ws}/s.json"],
        "EVENTS_INVALID", 1),
    "events-region-len-bool": (
        _edited_event("mem_write", "region",
                      {"len": True, "offset": 1024, "space": "vmem"}),
        _ANALYZE, "EVENTS_INVALID", 1),
    "events-region-extra-key": (
        _edited_event("mem_read", "region",
                      {"bogus": [1], "len": 64, "offset": 0, "space": "vmem"}),
        _ANALYZE, "EVENTS_INVALID", 1),
    "trace-mem-snapshot-extra-key": (
        _first_mem_snapshot(lambda m, data: [{**m, "bogus": [1]}, data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-mem-snapshot-offset-float": (
        _first_mem_snapshot(lambda m, data: [{**m, "offset": 1024.5}, data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-mem-snapshot-bad-base64": (
        _first_mem_snapshot(lambda m, data: [m, "!!" + data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "bundle-image-bad-base64": (_bundle_with_bad_base64, ["run", "{f}"],
                                "BUNDLE_INVALID", 1),
    "summary-cycles-bool": (_edited_event("summary", "cycles", True),
                            ["compare", "{f}", "{events}"], "EVENTS_INVALID", 1),
    # a log that ends past cycle 10**9 is over the sample limit at an
    # explicit bucket width of 1 or sample interval of 64
    "events-slow-dma-too-many-samples": (_log_of_slow_dma, _ANALYZE_AT_WIDTH_1,
                                         "ANALYSIS_ERROR", 2),
    "events-slow-dma-too-many-vmem-samples": (
        _log_of_slow_dma, ["analyze", "{f}", "--vmem", "--sample-interval", "64",
                           "-o", "{ws}/r"], "ANALYSIS_ERROR", 2),
    "events-unit-busy-until-huge": (_edited_event("unit_busy", "until", 10 ** 9),
                                    _ANALYZE_AT_WIDTH_1, "ANALYSIS_ERROR", 2),
    # nesting too deep for the JSON decoder, in each JSON input the CLI reads
    "bundle-nested-too-deep": (_DEEP, ["run", "{f}"], "BUNDLE_INVALID", 1),
    "suggestions-nested-too-deep": (_DEEP, ["apply", "{trace}", "{f}", "-o", "{ws}/e"],
                                    "SUGGESTIONS_INVALID", 1),
    "config-nested-too-deep": (_DEEP, ["--config", "{f}", "run", "{prog}"],
                               "CONFIG_INVALID", 1),
    "trace-nested-too-deep": (_DEEP, ["replay", "{f}", "-o", "{ws}/e"],
                              "TRACE_FORMAT", 2),
    "record-fault-in-fast-forward": (
        _bundle_of(_FAULT_IN_FAST_FORWARD),
        ["record", "{f}", "--break", "here", "--count", "5", "--fast-forward",
         "-o", "{ws}/t"], "MEM_ALIGN", 2),
    "record-dma-in-flight": (
        _bundle_of(_DMA_NEVER_WAITED),
        ["record", "{f}", "--break", "here", "--count", "5", "-o", "{ws}/t"],
        "DMA_INFLIGHT", 2),
    "record-fast-forward-halts-in-flight": (
        _bundle_of(_DMA_NEVER_WAITED),
        ["record", "{f}", "--break", "here", "--count", "5", "--fast-forward",
         "-o", "{ws}/t"], "DMA_INFLIGHT", 2),
    "record-break-past-the-program": (
        b"", ["record", "{prog}", "--break", "100000", "--count", "5", "-o", "{ws}/t"],
        "BP_OOB", 2),
    "run-off-the-end": (_bundle_of("  s_ldi s0, 1\n"), ["run", "{f}"], "PC_OOB", 2),
    "run-dma-length-0": (_bundle_of(_DMA_ISSUE + "  halt\n"), ["run", "{f}"],
                         "DMA_EMPTY", 2),
    "run-dma-on-busy-slot": (_bundle_of("  s_ldi s2, 64\n" + _DMA_ISSUE * 2 + "  halt\n"),
                             ["run", "{f}"], "DMA_BUSY", 2),
    "run-dma-wait-on-idle-slot": (_bundle_of("  dma_wait 0\n  halt\n"), ["run", "{f}"],
                                  "DMA_WAIT_IDLE", 2),
    "run-output-in-missing-directory": (
        b"", ["run", "{prog}", "-o", "{ws}/missing/e.jsonl"], "IO_ERROR", 1),
    "trace-pcs-off-the-control-flow": (_resigned_trace(_second_record_pc_moved),
                                       ["replay", "{f}", "-o", "{ws}/e"],
                                       "REPLAY_DIVERGENCE", 2),
    "trace-address-snapshot-misaligned": (
        _trace_of(_LOAD_VIA_SNAPSHOT, _first_reg_snapshot_bytes((65).to_bytes(4, "little"))),
        ["replay", "{f}", "-o", "{ws}/e"], "REPLAY_DIVERGENCE", 2),
    "trace-reg-snapshot-wrong-width": (
        _trace_of(_LOAD_VIA_SNAPSHOT, _first_reg_snapshot_bytes(bytes(8))),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-mem-snapshot-wrong-width": (
        _first_mem_snapshot(lambda m, data: [{**m, "len": m["len"] + 64}, data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-header-isa-version-2": (
        _resigned_trace(lambda doc: doc["header"].update(isa_version=2)),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_VERSION", 2),
    "trace-version-2": (_resigned_trace(lambda doc: doc.update(version=2)),
                        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_VERSION", 2),
    "trace-no-format-marker": (_resigned_trace(lambda doc: doc.pop("format")),
                               ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-start-cycle-string": (
        _resigned_trace(lambda doc: doc["header"].update(start_cycle="0")),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-checksum-stale": (_stale_checksum, ["replay", "{f}", "-o", "{ws}/e"],
                             "TRACE_CHECKSUM", 2),
    "trace-mem-snapshot-len-0": (
        _first_mem_snapshot(lambda m, data: [{**m, "len": 0}, data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-mem-snapshot-offset-negative": (
        _first_mem_snapshot(lambda m, data: [{**m, "offset": -64}, data]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-guard-scalar-register": (
        _resigned_first_record(lambda pc, raw: [pc, _guarded_by_s0(raw)]),
        ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "bundle-guard-scalar-register": (_bundle_guarded_by_s0, ["run", "{f}"],
                                     "BUNDLE_INVALID", 1),
    "events-region-len-0": (
        _edited_event("mem_write", "region", {"len": 0, "offset": 1024, "space": "vmem"}),
        _ANALYZE, "EVENTS_INVALID", 1),
    "events-region-offset-negative": (
        _edited_event("mem_write", "region", {"len": 64, "offset": -64, "space": "vmem"}),
        _ANALYZE, "EVENTS_INVALID", 1),
    "events-line-not-an-object": (b"[1, 2]\n", _ANALYZE, "EVENTS_INVALID", 1),
}


@pytest.mark.parametrize("content,argv,want,exit_code", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_is_one_code_line(ws, capsys, content, argv, want,
                                          exit_code):
    prog, trace, events = ws / "prog.json", ws / "win.trace", ws / "events.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "50", "-o", trace)
    _run(capsys, "run", prog, "-o", events)
    if callable(content):
        content = content(ws)
        capsys.readouterr()
    bad = ws / "bad_input"
    bad.write_bytes(content)
    code, _, err = _run(capsys, *[a.format(f=bad, ws=ws, prog=prog, trace=trace,
                                           events=events) for a in argv])
    assert code == exit_code
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == [f"code:{want}"]
    assert "Traceback" not in err


def test_suggest_samples_a_log_ending_late_more_coarsely(ws, capsys):
    """A replay log whose last event is at cycle 10**9 is sampled every
    256,000 cycles, 64 times the smallest bucket width that keeps a series
    within MAX_SAMPLES, and gets the suggestions of the log it was made
    from."""
    prog, trace = ws / "prog.json", ws / "win.trace"
    assert _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)[0] == 0
    assert _run(capsys, "record", prog, "--break", "0", "--count", "50",
                "-o", trace)[0] == 0
    # writes the trace's replay log to late.jsonl, then edits a copy of it
    (ws / "ending_late.jsonl").write_bytes(_replay_log_ending_late(ws))
    for log in ("late", "ending_late"):
        code, _, err = _run(capsys, "suggest", trace, ws / f"{log}.jsonl",
                            "-o", ws / f"{log}.json")
        assert (code, err) == (0, "")
    suggestions = json.loads((ws / "ending_late.json").read_text())
    assert suggestions and suggestions == json.loads((ws / "late.json").read_text())


def test_analyze_samples_a_long_run_more_coarsely(ws, capsys):
    """The 2-tile starvation kernel under a DMA base latency of 200,000
    cycles runs to cycle 600,270; `analyze` of its log picks bucket width 3,
    the smallest that keeps a utilization series within MAX_SAMPLES, and
    samples VMEM every 3 * 64 cycles, as `suggest` does."""
    (ws / "slow.json").write_text('{"t_base": 200000}')
    (ws / "tiles2.xasm").write_text(gen_starvation_kernel(tiles=2, prefetch_depth=1))
    slow = ["--config", ws / "slow.json"]
    assert _run(capsys, "asm", ws / "tiles2.xasm", "-o", ws / "p.json")[0] == 0
    assert _run(capsys, *slow, "run", ws / "p.json", "-o", ws / "e.jsonl")[0] == 0
    assert json.loads((ws / "e.jsonl").read_text().splitlines()[-1])["cycles"] == 600_270
    code, _, err = _run(capsys, *slow, "analyze", ws / "e.jsonl", "-o", ws / "r")
    assert (code, err) == (0, "")
    report = json.loads((ws / "r" / "report.json").read_text())
    assert {s["bucket_width"] for s in report["utilization"].values()} == {3}
    assert report["vmem"]["sample_interval"] == 192


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(ws, capsys, monkeypatch,
                                                  enabled):
    """A step runs with the collector off, from parsing its arguments to
    its last callee, and `main` leaves the collector on or off as the
    caller had it and the caller's frozen objects as they were: on success,
    on a `code:` exit and on a USAGE exit."""
    prog, trace, events = ws / "prog.json", ws / "win.trace", ws / "events.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "50", "-o", trace)
    _run(capsys, "run", prog, "-o", events)
    seen = []                  # gc.isenabled() inside each step
    for name in ("build_parser", "analyze_dma"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, **kw:
                            seen.append(gc.isenabled()) or real(*a, **kw))
    steps = [(["analyze", events, "-o", ws / "r"], 0, ""),
             (["suggest", trace, events, "-o", ws / "s.json"], 2,
              "code:EVENTS_TRACE_MISMATCH"),
             (["run"], 1, "code:USAGE")]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for freeze in (False, True):
            if freeze:
                gc.freeze()                      # the caller freezes
            for argv, want, err_code in steps:
                del seen[:]
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    frozen = gc.get_freeze_count()
                    try:
                        code = main([str(a) for a in argv])
                    except SystemExit as e:
                        code = e.code
                    after = gc.isenabled(), gc.get_freeze_count()
                assert code == want and err_code in err.getvalue()
                assert seen and not any(seen)
                assert after == (enabled, frozen) and (frozen > 0) == freeze
    finally:
        gc.unfreeze()
        (gc.enable if was_enabled else gc.disable)()


def test_no_step_makes_cyclic_garbage_of_its_inputs(tmp_path):
    """What a step loads and builds is freed by reference counting, which
    is why `main` can run it with the collector off: with the collector
    off, each of the eight steps leaves the same cyclic garbage on a kernel
    of 2,000 instructions as on one of 200, and no object of an xshark type
    in it but argparse's parser, which is cyclic by construction. (At size
    200, unlike 100, the kernel yields a suggestion, so `apply` and
    `compare` run too.) Each step runs with what was alive before it
    frozen, and nothing is unfrozen until the end, so each collection walks
    only what the last step made, not the heap that earlier tests leave."""
    def garbage(size):
        """(step, exit code, unreachable objects, xshark types among them)
        of each step of a pass over gen_random_kernel(3, size)."""
        d = tmp_path / str(size)
        d.mkdir(exist_ok=True)
        (d / "k.xasm").write_text(gen_random_kernel(3, size=size).text)
        found = []
        for argv in _pipeline(d):
            gc.collect()
            gc.freeze()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                count = gc.collect()
                types = {type(o).__qualname__ for o in gc.garbage
                         if type(o).__module__.startswith("xshark")}
            finally:
                gc.set_debug(0)
                del gc.garbage[:]
            found.append((argv[0], code, count, types))
        return found

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        garbage(200)                # a first pass's imports make garbage of their own
        small, large = garbage(200), garbage(2000)
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
    assert [step for step, *_ in small] == list(_STEP_MODULES)
    assert all(code == 0 and types == {"_Parser"} for _, code, _, types in small)
    assert small == large


def _pipeline(d):
    """The eight steps' arguments, as the pipeline runs them on the kernel
    source `k.xasm` in directory `d`."""
    f = {name: str(d / name) for name in ("k.xasm", "p.json", "t.json", "r.jsonl",
                                          "report", "s.json", "a.jsonl")}
    return [["asm", f["k.xasm"], "-o", f["p.json"]],
            ["run", f["p.json"]],
            ["record", f["p.json"], "--break", "0", "--count", "100000",
             "-o", f["t.json"]],
            ["replay", f["t.json"], "-o", f["r.jsonl"]],
            ["analyze", f["r.jsonl"], "--program", f["p.json"], "-o", f["report"]],
            ["suggest", f["t.json"], f["r.jsonl"], "-o", f["s.json"]],
            ["apply", f["t.json"], f["s.json"], "-o", f["a.jsonl"]],
            ["compare", f["r.jsonl"], f["a.jsonl"]]]


def _one_code_line_or_success(argv):
    """Runs the CLI: it succeeds with nothing on stderr, or ends in one
    `code:` line with exit 1 or 2, never in a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1 and err.startswith("code:"), err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    """The trace of the whole run of a 2-tile starvation kernel and the lines
    of its replay log."""
    ws = tmp_path_factory.mktemp("replayed")
    (ws / "k.xasm").write_text(gen_starvation_kernel(tiles=2, prefetch_depth=1))
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["asm", "k.xasm", "-o", "k.json"],
                     ["record", "k.json", "--break", "0", "--count", "100000",
                      "-o", "k.trace"],
                     ["replay", "k.trace", "-o", "k.jsonl"]):
            assert main([str(ws / a) if a.startswith("k.") else a
                         for a in argv]) == 0
    return ws / "k.trace", (ws / "k.jsonl").read_text().splitlines()


# what a mutation may put into a field: cycles near and far past the log's
# end, the edges of every JSON type, and region objects with one part wrong
_MUTATED_VALUES = st.one_of(
    st.integers(0, 3000), st.integers(-5, -1),
    st.sampled_from([10 ** 6, 17_000_000, 10 ** 9, 10 ** 12, 2 ** 63, 2 ** 70]),
    st.sampled_from([None, True, False, 1.5, "", "x", "MXU", "DMA_WAIT",
                     "summary", "hbm>vmem", "s0", [], {}, [1]]),
    st.fixed_dictionaries({"space": st.sampled_from(["vmem", "hbm", "x"]),
                           "offset": st.integers(-1, 3 * 2 ** 21),
                           "len": st.integers(-1, 4096)},
                          optional={"bogus": st.just([1])}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_mutated_log_through_analyze_and_suggest(replayed, data):
    """A replay log with one field of one line set to another value or
    deleted, `cycle`, `until` and `size` included, either succeeds in
    `analyze` and `suggest` or ends in one `code:` line with exit 1 or 2,
    never in a traceback."""
    trace, lines = replayed
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), "line")
    doc = json.loads(lines[i])
    name = data.draw(st.sampled_from(sorted(doc)), "field")
    if data.draw(st.booleans(), "drop"):
        del doc[name]
    else:
        doc[name] = data.draw(_MUTATED_VALUES, "value")
    lines[i] = json.dumps(doc, sort_keys=True)
    with tempfile.TemporaryDirectory() as ws:
        log = os.path.join(ws, "mutated.jsonl")
        with open(log, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for argv in (["analyze", log, "-o", os.path.join(ws, "r")],
                     ["suggest", str(trace), log, "-o", os.path.join(ws, "s.json")]):
            _one_code_line_or_success(argv)


def test_vdata_past_vmem_capacity_is_mem_oob(ws, capsys):
    src, prog = ws / "oob.xasm", ws / "oob.json"
    src.write_text(".vdata 0x300000: 01 02\nhalt\n")
    assert _run(capsys, "asm", src, "-o", prog)[0] == 0
    code, _, err = _run(capsys, "run", prog)
    assert code == 2
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == ["code:MEM_OOB"]
    assert "Traceback" not in err


def test_replay_config_mismatch_exit_2(ws, capsys, tmp_path):
    prog, trace = ws / "prog.json", ws / "win.trace"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "50", "-o", trace)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_base": 5}))
    code, _, err = _run(capsys, "--config", cfg, "replay", trace, "-o", ws / "e")
    assert code == 2
    assert [ln.split()[0] for ln in err.splitlines()
            if ln.startswith("code:")] == ["code:TRACE_CONFIG_MISMATCH"]


def test_analyze_at_one_mib_vmem_writes_report(ws, capsys, tmp_path):
    prog, events, report = ws / "prog.json", ws / "e.jsonl", ws / "report"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vmem_capacity": 1 << 20}))
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    assert _run(capsys, "--config", cfg, "run", prog, "-o", events)[0] == 0
    assert _run(capsys, "--config", cfg, "analyze", events, "-o", report)[0] == 0
    vmem = json.loads((report / "report.json").read_text())["vmem"]
    assert vmem["capacity"] == 1 << 20 and vmem["bucket_pages"] == 128
    assert (report / "vmem_heatmap.svg").exists()


def test_unsplittable_vmem_capacity_is_config_invalid(ws, capsys, tmp_path):
    """A vmem_capacity that does not split into whole-page buckets, or one
    past the 2**32 bytes an address register can name, is one
    `code:CONFIG_INVALID` line from every step, which allocates no VMEM."""
    prog, trace, events = ws / "prog.json", ws / "win.trace", ws / "e.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "50", "-o", trace)
    _run(capsys, "run", prog, "-o", events)
    cfg = tmp_path / "cfg.json"
    for capacity in (1_000_000, 1 << 40):
        cfg.write_text(json.dumps({"vmem_capacity": capacity}))
        for argv in (["asm", ws / "kernel.xasm", "-o", ws / "p.json"], ["run", prog],
                     ["record", prog, "--break", "0", "--count", "5", "-o", ws / "t"],
                     ["replay", trace, "-o", ws / "r.jsonl"],
                     ["analyze", events, "-o", ws / "r"],
                     ["suggest", trace, events, "-o", ws / "s.json"],
                     ["apply", trace, ws / "s.json", "-o", ws / "a.jsonl"],
                     ["compare", events, events]):
            code, _, err = _run(capsys, "--config", cfg, *argv)
            assert code == 1
            assert [ln.split()[0] for ln in err.splitlines()
                    if ln.startswith("code:")] == ["code:CONFIG_INVALID"]
            assert "Traceback" not in err


def test_config_env_var_respected(ws, capsys, tmp_path, monkeypatch):
    prog, trace = ws / "prog.json", ws / "win.trace"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_base": 5}))
    monkeypatch.setenv("XSHARK_CONFIG", str(cfg))
    assert _run(capsys, "record", prog, "--break", "0", "--count", "50",
                "-o", trace)[0] == 0
    # same env config replays fine; the default config would refuse
    assert _run(capsys, "replay", trace, "-o", ws / "e.jsonl")[0] == 0


def test_pipeline_reproducible_byte_identical(ws, capsys):
    prog, trace = ws / "prog.json", ws / "win.trace"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "record", prog, "--break", "0", "--count", "2000", "-o", trace)
    e1, e2 = ws / "a.jsonl", ws / "b.jsonl"
    _run(capsys, "replay", trace, "-o", e1)
    _run(capsys, "replay", trace, "-o", e2)
    assert e1.read_bytes() == e2.read_bytes()
    r1, r2 = ws / "r1", ws / "r2"
    _run(capsys, "analyze", e1, "--dma", "--util", "-o", r1)
    _run(capsys, "analyze", e2, "--dma", "--util", "-o", r2)
    assert (r1 / "report.json").read_bytes() == (r2 / "report.json").read_bytes()
    assert (r1 / "dma_timeline.svg").read_bytes() == (r2 / "dma_timeline.svg").read_bytes()


def test_binary_trace_via_cli(ws, capsys):
    prog, trace = ws / "prog.json", ws / "win.bin"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    code, out, _ = _run(capsys, "record", prog, "--break", "0", "--count", "60",
                        "--binary", "-o", trace)
    assert code == 0
    assert trace.read_bytes()[:4] == b"XTRC"
    assert _run(capsys, "replay", trace, "-o", ws / "e.jsonl")[0] == 0


def test_installed_entry_point():
    out = subprocess.run([sys.executable, "-m", "xshark.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "xshark" in out.stdout


def test_asm_error_reports_location(ws, capsys):
    bad = ws / "bad.xasm"
    bad.write_text("halt\nbogus s0\n")
    code, _, err = _run(capsys, "asm", bad, "-o", ws / "p.json")
    assert code == 2 and "code:ASM_ERROR" in err and "line 2" in err


# Runs `xshark <argv>` in a fresh interpreter and prints, last, the xshark
# modules it loaded (but the package), how many assembler builders it
# made, whether it imported numpy, and at exit whether the heap was frozen
# and whether the collector was on.
_CLI_REPORTING_MODULES = """import gc, runpy, sys
sys.argv = ["xshark"] + sys.argv[1:]
try:
    runpy.run_module("xshark.cli", run_name="__main__")
finally:
    asm = sys.modules.get("xshark.workloads.asm")
    print("loaded:", *sorted(name[7:] for name in sys.modules
                             if name.startswith("xshark.")))
    print("builders made:", len(asm._BUILDERS) if asm else 0)
    print("numpy imported:", "numpy" in sys.modules)
    print("heap frozen, collector on at exit:", gc.get_freeze_count() > 0,
          gc.isenabled())
"""

# sha256 of the `run` event log of the 4-tile starvation kernel
_RUN_LOG_4X1 = "3384d3ac4aaeb4e3ea1668fb516e2eb39bb70bdfd2802c01710efee8dd428421"


def test_only_steps_that_run_a_kernel_import_numpy(tmp_path):
    """numpy is loaded by the first MXU_MM alone: a step that executes
    none, the V_ADD-only program's `run` included, leaves it unloaded."""
    (tmp_path / "k.xasm").write_text(gen_starvation_kernel(tiles=4,
                                                           prefetch_depth=1))
    (tmp_path / "v.xasm").write_text(
        "s_ldi s1, 0\nv_load v1, [s1]\nv_add v2, v1, v1\nhalt\n")
    f = {name: str(tmp_path / name) for name in (
        "k.xasm", "p.json", "run.jsonl", "t.json", "r.jsonl", "report",
        "s.json", "a.jsonl", "v.xasm", "v.json")}
    steps = [
        (["asm", f["k.xasm"], "-o", f["p.json"]], False),
        (["run", f["p.json"], "-o", f["run.jsonl"]], True),
        (["record", f["p.json"], "--break", "0", "--count", "1000",
          "-o", f["t.json"]], True),
        (["replay", f["t.json"], "-o", f["r.jsonl"]], True),
        (["analyze", f["r.jsonl"], "-o", f["report"]], False),
        (["suggest", f["t.json"], f["r.jsonl"], "-o", f["s.json"]], False),
        (["apply", f["t.json"], f["s.json"], "-o", f["a.jsonl"]], True),
        (["compare", f["r.jsonl"], f["a.jsonl"]], False),
        (["asm", f["v.xasm"], "-o", f["v.json"]], False),
        (["run", f["v.json"]], False),
    ]
    for argv, runs_an_mxu_mm in steps:
        out = subprocess.run([sys.executable, "-c", _CLI_REPORTING_MODULES, *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0, (argv, out.stderr)
        assert out.stdout.splitlines()[-2] == f"numpy imported: {runs_an_mxu_mm}", argv
    with open(f["run.jsonl"], "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == _RUN_LOG_4X1


# The xshark modules each step loads when it succeeds, as docs/cli.md
# lists them; they do not depend on the kernel
_STEP_MODULES = {
    "asm": "isa workloads workloads.asm",
    "run": "_kernels _kernels.pyfallback isa sim workloads workloads.asm",
    "record": "_kernels _kernels.pyfallback intervals isa recorder sim window "
              "workloads workloads.asm",
    "replay": "_kernels _kernels.pyfallback intervals isa recorder replayer sim "
              "window",
    "analyze": "_kernels _kernels.pyfallback analyzer analyzer.deps analyzer.dma "
               "analyzer.report analyzer.suggest analyzer.svg "
               "analyzer.utilization analyzer.vmem intervals isa sim workloads "
               "workloads.asm",
    "suggest": "_kernels _kernels.pyfallback analyzer analyzer.deps analyzer.dma "
               "analyzer.suggest analyzer.vmem intervals isa recorder sim window",
    "apply": "_kernels _kernels.pyfallback analyzer analyzer.suggest intervals isa "
             "recorder replayer sim window",
    "compare": "",
}


def test_each_step_loads_only_the_modules_it_calls(tmp_path):
    """Each step, run as the pipeline runs it in a fresh interpreter, loads
    the xshark modules of its row of docs/cli.md and no others; only `asm`
    makes assembler builders, though `run`, `record` and `analyze` load the
    assembler to read a bundle. `asm` reads no config unless one is named,
    and one named by --config or XSHARK_CONFIG is still checked."""
    doc = (Path(__file__).parents[1] / "docs" / "cli.md").read_text()
    rows = {}
    for line in doc[doc.index("| step | xshark modules loaded |"):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        step, modules = line.split("|")[1:3]
        rows[step.strip(" `").split()[0]] = " ".join(re.findall(r"`([\w.]+)`", modules))
    assert rows == _STEP_MODULES
    (tmp_path / "k.xasm").write_text(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"t_base": 0}))
    env = {key: value for key, value in os.environ.items() if key != "XSHARK_CONFIG"}

    def xshark(*argv, **extra_env):
        return subprocess.run([sys.executable, "-c", _CLI_REPORTING_MODULES, *argv],
                              capture_output=True, text=True, env={**env, **extra_env})

    for argv in _pipeline(tmp_path):
        out = xshark(*argv)
        assert out.returncode == 0, (argv, out.stderr)
        loaded, builders = out.stdout.splitlines()[-4:-2]
        assert loaded.split()[1:] == _STEP_MODULES[argv[0]].split(), argv
        assert (builders == "builders made: 0") == (argv[0] != "asm"), argv
    asm = _pipeline(tmp_path)[0]
    for out in (xshark("--config", str(bad), *asm), xshark(*asm, XSHARK_CONFIG=str(bad))):
        assert out.returncode == 1 and "code:CONFIG_INVALID" in out.stderr


def test_the_process_entry_freezes_the_heap_and_keeps_main_s_exit(tmp_path,
                                                                 monkeypatch):
    """`python -m xshark.cli` exits through `entry`, which freezes the heap
    after `main` returns or raises, so interpreter shutdown sweeps nothing:
    in a fresh interpreter after each of the eight steps, a `code:` exit 1
    and 2, a USAGE exit and `--version`. Each gives the exit code, stdout
    and stderr that `main` gives in this process for the same argv."""
    monkeypatch.delenv("XSHARK_CONFIG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")          # argparse's usage width
    (tmp_path / "k.xasm").write_text(gen_starvation_kernel(tiles=4, prefetch_depth=1))
    (tmp_path / "empty.json").write_text("[]")
    f = {name: str(tmp_path / name) for name in ("p.json", "t.json", "r.jsonl",
                                                 "empty.json", "short.json")}
    steps = [(argv, 0, "") for argv in _pipeline(tmp_path)] + [
        (["record", f["p.json"], "--break", "0", "--count", "5",
          "-o", f["short.json"]], 0, ""),
        (["apply", f["t.json"], f["empty.json"], "-o", f["p.json"] + ".a"],
         1, "code:NO_SUGGESTIONS"),
        (["suggest", f["short.json"], f["r.jsonl"], "-o", f["p.json"] + ".s"],
         2, "code:EVENTS_TRACE_MISMATCH"),
        (["run"], 1, "code:USAGE"),
        (["--version"], 0, "")]
    for argv, want, code_line in steps:
        fresh = subprocess.run([sys.executable, "-c", _CLI_REPORTING_MODULES, *argv],
                               capture_output=True, text=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        lines = fresh.stdout.splitlines(keepends=True)
        assert lines[-1] == "heap frozen, collector on at exit: True False\n", \
            (argv, fresh.stdout)
        assert (fresh.returncode, "".join(lines[:-4]), fresh.stderr) == \
            (code, out.getvalue(), err.getvalue()), argv
        assert (code, [ln.split()[0] for ln in err.getvalue().splitlines()
                       if ln.startswith("code:")]) == (want, [code_line] if want else [])


def test_the_console_script_is_the_process_entry():
    """`xshark`, the console script of pyproject.toml, and `python -m
    xshark.cli` both run `xshark.cli.entry`. pyproject.toml is read as text:
    `tomllib` is not in Python 3.10, which the package supports."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = text[text.index("[project.scripts]\n"):].split("\n[")[0]
    assert re.findall(r"^(\w+) = \"([\w.:]+)\"$", scripts, re.M) == \
        [("xshark", "xshark.cli:entry")]
    tree = ast.parse(Path(cli.__file__).read_text())
    guard, = [node for node in tree.body if isinstance(node, ast.If)]
    assert ast.unparse(guard) == "if __name__ == '__main__':\n    entry()"


def test_the_package_name_suggest_is_the_function():
    """`xshark.analyzer.suggest` is both a function and the module that
    defines it: in a fresh interpreter, the package's `suggest` is the
    function also once the module is imported by name, and the names the
    benchmark imports from the package are functions."""
    for code in ("import xshark.analyzer.suggest\n"
                 "from xshark.analyzer import suggest\n"
                 "print(type(suggest).__name__)",
                 "from xshark.analyzer import (analyze_dma, analyze_vmem, "
                 "apply_and_verify, build_dependency_graph, compute_backtails, "
                 "suggest)\n"
                 "import xshark.analyzer.suggest, xshark.analyzer\n"
                 "names = (analyze_dma, analyze_vmem, apply_and_verify, "
                 "build_dependency_graph, compute_backtails, suggest, "
                 "xshark.analyzer.suggest)\n"
                 "print(*{type(f).__name__ for f in names})"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True)
        assert (out.returncode, out.stdout) == (0, "function\n"), out.stderr


def test_a_vmem_the_host_cannot_allocate_is_out_of_memory(tmp_path):
    """A `vmem_capacity` that SimConfig accepts (2**32 bytes) but the host
    cannot allocate, here under a 1 GiB address-space limit set in the
    child alone, ends in one `code:OUT_OF_MEMORY` line and exit 1."""
    import resource
    (tmp_path / "k.xasm").write_text("halt\n")
    (tmp_path / "c.json").write_text(json.dumps({"vmem_capacity": 1 << 32}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["asm", str(tmp_path / "k.xasm"), "-o", str(tmp_path / "k.json")]) == 0
    out = subprocess.run(
        [sys.executable, "-m", "xshark.cli", "--config", str(tmp_path / "c.json"),
         "run", str(tmp_path / "k.json")], capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert out.returncode == 1
    assert [ln.split()[0] for ln in out.stderr.splitlines()] == ["code:OUT_OF_MEMORY"]


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """The bundle of a small random kernel with branches, as its JSON object,
    and a config whose small HBM bounds what a mutated DMA can copy."""
    ws = tmp_path_factory.mktemp("bundle")
    (ws / "k.xasm").write_text(gen_random_kernel(3, size=40).text)
    (ws / "c.json").write_text(json.dumps({"hbm_capacity": 1 << 23}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["asm", str(ws / "k.xasm"), "-o", str(ws / "k.json")]) == 0
    return json.loads((ws / "k.json").read_text()), str(ws / "c.json")


# JSON values of every type, for a field that a mutation retypes
_JSON_VALUES = st.sampled_from([None, True, False, 0, 1, -1, 2 ** 70, 1.5, "",
                                "x", "00", [], [1], [[0, "AAAA"]], {}, {"x": 0}])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_mutated_bundle_through_load_and_run(small_bundle, data):
    """A bundle with one field retyped, its hex cut or lengthened, one byte
    of one record replaced (the opcode, a register, an immediate such as a
    branch target, or a reserved byte) or its entry pc moved either loads or
    raises EncodingError, and `run` on it succeeds or ends in one `code:`
    line, never in a traceback."""
    doc, config = small_bundle
    doc = json.loads(json.dumps(doc))
    hexed = doc["instructions"]
    n = len(hexed) // 32
    how = data.draw(st.sampled_from(["field", "hex", "byte", "entry_pc"]), "how")
    if how == "field":
        doc[data.draw(st.sampled_from(sorted(doc)), "field")] = data.draw(
            _JSON_VALUES, "value")
    elif how == "hex":
        cut = data.draw(st.integers(-40, 40).filter(bool), "cut")
        doc["instructions"] = (hexed[:cut] if cut < 0 else
                               hexed + data.draw(st.sampled_from("0af g"), "pad") * cut)
    elif how == "byte":
        branches = [k for k in range(n) if hexed[32 * k:32 * k + 2] in ("0d", "0e")]
        k = data.draw(st.sampled_from(branches + list(range(n))), "record")
        at = data.draw(st.sampled_from([0, 1, 2, 3, 4, 5, 6, 9, 10, 14, 15]), "byte")
        b = data.draw(st.integers(0, 255), "value")
        raw = bytearray.fromhex(hexed[32 * k:32 * k + 32])
        raw[at] = b
        doc["instructions"] = hexed[:32 * k] + raw.hex() + hexed[32 * k + 32:]
    else:
        doc["entry_pc"] = data.draw(st.integers(-3, n + 3), "entry")
    with tempfile.TemporaryDirectory() as ws:
        path = os.path.join(ws, "mutated.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            load_bundle(path)
        except EncodingError:
            pass
        _one_code_line_or_success(["--config", config, "run", path,
                                   "--max-cycles", "20000"])


# a suggestion object: each field absent, of the right type or retyped
_SUGGESTION_FIELD = st.one_of(st.integers(-3, 40), _JSON_VALUES,
                              st.lists(st.integers(-2, 40), max_size=4))


@settings(max_examples=120, deadline=None)
@given(doc=st.one_of(
    _JSON_VALUES,
    st.dictionaries(st.sampled_from(
        ["dma_id", "issue_index", "proposed_position", "push_limit",
         "stall_duration", "required_vmem", "largest_contiguous_at_target",
         "block", "verified", "speedup_cycles", "stall_reduction",
         "diagnostic", "bogus"]), _SUGGESTION_FIELD)))
def test_a_mutated_suggestion_through_from_json_and_apply(replayed, doc):
    """Suggestion.from_json of any JSON value either gives a Suggestion or
    raises ValueError, and `apply` on a file of it succeeds or ends in one
    `code:` line, never in a traceback."""
    try:
        Suggestion.from_json(doc)
    except ValueError:
        pass
    trace, _ = replayed
    with tempfile.TemporaryDirectory() as ws:
        path = os.path.join(ws, "s.json")
        with open(path, "w") as fh:
            json.dump([doc], fh)
        _one_code_line_or_success(["apply", str(trace), path, "--verify",
                                   "-o", os.path.join(ws, "e.jsonl")])


@pytest.fixture(scope="module")
def starvation_bundle(tmp_path_factory):
    """The bundle of a 2-tile starvation kernel."""
    ws = tmp_path_factory.mktemp("starvation")
    (ws / "k.xasm").write_text(gen_starvation_kernel(tiles=2, prefetch_depth=1))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["asm", str(ws / "k.xasm"), "-o", str(ws / "k.json")]) == 0
    return str(ws / "k.json")


_CYCLES = st.integers(1, 10 ** 12)


@settings(max_examples=30, deadline=None)
@given(config=st.fixed_dictionaries({
    "t_base": _CYCLES,
    "unit_latency": st.fixed_dictionaries({u.value: _CYCLES for u in Unit}),
    "link_bandwidth": st.fixed_dictionaries({link: _CYCLES
                                             for link in DMA_DIR_NAMES.values()}),
    "vmem_capacity": st.sampled_from([VMEM_BUCKETS * PAGE_BYTES,
                                      DEFAULT_VMEM_CAPACITY, 1 << 40])}))
def test_extreme_configs_through_the_pipeline(starvation_bundle, config):
    """Under any timing from 1 to 10**12 cycles (or bytes per cycle), with
    the smallest legal VMEM, the default one or 2**40 bytes, which is
    refused before any is allocated, `run`, `record`, `replay`,
    `analyze` and `suggest` on the starvation kernel each succeed or end in
    one `code:` line."""
    with tempfile.TemporaryDirectory() as ws:
        path = os.path.join(ws, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        f = {name: os.path.join(ws, name)
             for name in ("run.jsonl", "k.trace", "rep.jsonl", "r", "s.json")}
        for argv in (["run", starvation_bundle, "-o", f["run.jsonl"]],
                     ["record", starvation_bundle, "--break", "0", "--count",
                      "1000", "-o", f["k.trace"]],
                     ["replay", f["k.trace"], "-o", f["rep.jsonl"]],
                     ["analyze", f["run.jsonl"], "-o", f["r"]],
                     ["analyze", f["rep.jsonl"], "-o", f["r"]],
                     ["suggest", f["k.trace"], f["rep.jsonl"], "-o", f["s.json"]]):
            _one_code_line_or_success(["--config", path] + argv)
