"""CLI pipeline: asm -> run/record -> replay -> analyze -> suggest -> apply
-> compare, exit codes and error codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from xshark.cli import main
from xshark.workloads import gen_starvation_kernel

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
    assert "code:BP_NOT_HIT" in err


def test_usage_error_exit_1(ws, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["record", "--count", "5"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["record", "{prog}", "--break", "0", "--count", "-1", "-o", "{ws}/t"],
    ["record", "{prog}", "--break", "0", "--count", "5", "--hit", "0",
     "-o", "{ws}/t"],
    ["run", "{prog}", "--max-cycles", "0"],
    ["analyze", "{events}", "--bucket-width", "0", "-o", "{ws}/r"],
    ["analyze", "{events}", "--sample-interval", "0", "-o", "{ws}/r"],
], ids=["count", "hit", "max-cycles", "bucket-width", "sample-interval"])
def test_nonpositive_numeric_argument_is_usage_error(ws, capsys, argv):
    prog, events = ws / "prog.json", ws / "events.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "run", prog, "-o", events)
    with pytest.raises(SystemExit) as exc:
        main([a.format(prog=prog, events=events, ws=ws) for a in argv])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "code:USAGE" in err and "Traceback" not in err


def _resigned_binary_prefix(ws):
    """A binary trace cut to 40 bytes and re-signed: the checksum matches."""
    assert main(["record", str(ws / "prog.json"), "--break", "0", "--count", "50",
                 "--binary", "-o", str(ws / "win.bin")]) == 0
    prefix = (ws / "win.bin").read_bytes()[:40]
    return prefix + hashlib.sha256(prefix).digest()


def _resigned_bad_opcode(ws):
    """The JSON trace with opcode byte 0xee in its first instruction record,
    re-signed: the checksum matches, the record does not decode."""
    doc = json.loads((ws / "win.trace").read_text())
    pc, raw = doc["instr_stream"][0]
    doc["instr_stream"][0] = [pc, "ee" + raw[2:]]
    payload = {k: doc[k] for k in ("header", "reg_snapshots", "mem_snapshots",
                                   "instr_stream")}
    doc["checksum"] = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return json.dumps(doc).encode()


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


_ASM = ["asm", "{f}", "-o", "{ws}/p.json"]
_ANALYZE = ["analyze", "{f}", "-o", "{ws}/r"]

MALFORMED_INPUTS = {
    # id: (file content, or a function of the workspace that makes it,
    #      argv with the file as {f}, code, exit code)
    "trace-not-utf8": (b"\xff\xfe\x00garbage", ["replay", "{f}", "-o", "{ws}/e"],
                       "TRACE_FORMAT", 2),
    "trace-resigned-prefix": (_resigned_binary_prefix,
                              ["replay", "{f}", "-o", "{ws}/e"], "TRACE_FORMAT", 2),
    "trace-bad-opcode": (_resigned_bad_opcode, ["replay", "{f}", "-o", "{ws}/e"],
                         "TRACE_FORMAT", 2),
    "config-string-t_base": (b'{"t_base": "x"}', ["--config", "{f}", "run", "{prog}"],
                             "CONFIG_INVALID", 1),
    "config-not-object": (b"[1]", ["--config", "{f}", "run", "{prog}"],
                          "CONFIG_INVALID", 1),
    "config-int-link_bandwidth": (b'{"link_bandwidth": 5}',
                                  ["--config", "{f}", "run", "{prog}"],
                                  "CONFIG_INVALID", 1),
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
    "bundle-not-json": (b"zz", ["run", "{f}"], "BUNDLE_INVALID", 1),
    "bundle-no-isa-version": (b'{"format":"xshark-program"}', ["run", "{f}"],
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
    assert "code:TRACE_CONFIG_MISMATCH" in err


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
    prog, events = ws / "prog.json", ws / "e.jsonl"
    _run(capsys, "asm", ws / "kernel.xasm", "-o", prog)
    _run(capsys, "run", prog, "-o", events)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"vmem_capacity": 1_000_000}))
    code, _, err = _run(capsys, "--config", cfg, "analyze", events, "-o", ws / "r")
    assert code == 1 and "code:CONFIG_INVALID" in err


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
