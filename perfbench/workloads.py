"""The benchmark's three workloads: their inputs, one pass of each, and the
check of every pass against the committed expected outputs.

starvation   gen_starvation_kernel(tiles=64, prefetch_depth=1) through the
             eight CLI steps, one process per step.
long_window  gen_random_kernel(7, size=5000) through the same eight steps
             over the whole 7,066-instruction run.
corpus       40 random kernels in one process through the library API, with
             the sizes, windows and skips of tests/test_acceptance.py.

The seed picks the inputs without changing the amount of work: for the two
CLI workloads it draws the values of the kernel's HBM data images (variant
seed % 8; variant 0 is the generator's text unchanged), for `corpus` it
draws the order in which the 40 kernels run. Cycle counts, stalls, event
logs and suggestions do not depend on data values, so only digests and the
files that carry them differ between variants.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

NAMES = ("starvation", "long_window", "corpus")
DATA_VARIANTS = 8
LONG_WINDOW_KERNEL_SEED = 7
CORPUS_KERNELS = 40
RECORD_COUNT = 1_000_000      # more than either program executes: record to HALT
STEP_TIMEOUT_S = 120

# (step, argv after `xshark`); run with the pass directory as cwd so the
# paths the CLI prints are the same on every machine.
CLI_STEPS = [
    ("asm", ["asm", "kernel.xasm", "-o", "kernel.bundle"]),
    ("run", ["run", "kernel.bundle"]),
    ("record", ["record", "kernel.bundle", "--break", "0",
                "--count", str(RECORD_COUNT), "-o", "kernel.trace"]),
    ("replay", ["replay", "kernel.trace", "-o", "replay.jsonl"]),
    ("analyze", ["analyze", "replay.jsonl", "--program", "kernel.bundle",
                 "-o", "report"]),
    ("suggest", ["suggest", "kernel.trace", "replay.jsonl",
                 "-o", "suggestions.json"]),
    ("apply", ["apply", "kernel.trace", "suggestions.json",
               "-o", "applied.jsonl"]),
    ("compare", ["compare", "replay.jsonl", "applied.jsonl"]),
]
STEP_NAMES = [name for name, _ in CLI_STEPS]

# files of a CLI pass whose bytes are part of the expected outputs
CLI_FILES = {"trace": "kernel.trace", "replay_log": "replay.jsonl",
             "report": os.path.join("report", "report.json"),
             "suggestions": "suggestions.json",
             "applied_log": "applied.jsonl",
             "applied_suggestions": "applied.jsonl.suggestions.json"}


# The two speed references and their host seconds on the machine the
# benchmark was written on (CPython 3.11, numpy 2.4, 2 GHz) when it ran
# fast; they set the scale of a nominal second. The compute reference is
# reference() in this process; the process reference starts an interpreter
# that imports numpy, which is not part of xshark.
CPU_REF_NOMINAL_S = 0.0015
PROCESS_REF = [sys.executable, "-c", "import numpy"]
PROCESS_REF_NOMINAL_S = 0.15


def reference() -> int:
    """Fixed pure-Python work that belongs to the benchmark, not to xshark:
    sorting, a dict and a loop over it, and a JSON round trip."""
    r = random.Random(7)
    xs = sorted(r.random() for _ in range(500))
    d = {f"k{i}": [x, i * 3, str(i)] for i, x in enumerate(xs)}
    total = 0
    for x, i, s in d.values():
        total += i if x < 0.5 else len(s)
    return total + len(json.loads(json.dumps(d)))


def reference_seconds() -> float:
    """Host seconds of reference(): the fastest of three runs with the
    garbage collector off, so neither a collection of the caller's heap
    nor an interrupt counts as machine speed."""
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            reference()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class SpeedClock:
    """Converts host seconds to nominal seconds.

    The host is shared, and how fast it runs Python swings by 2x or more
    for seconds to minutes at a time. The ratio of a piece of work's time
    to the time of a similar reference next to it on the same CPU moves
    far less: over 80 s in which a starvation CLI pass took 2.7 to 4.1 host
    seconds, it took 4.0 to 4.4 nominal seconds by the process reference.
    So each timed piece is scaled by `nominal` over the mean of the
    reference times just before and just after it: nominal seconds are
    host seconds at the reference speed. `ref` returns the host seconds of
    one reference run: reference_seconds for work in this process,
    process_reference for work in child processes.
    """

    def __init__(self, ref=reference_seconds, nominal=CPU_REF_NOMINAL_S):
        self.ref, self.nominal = ref, nominal
        self.ref()              # first-call costs are not machine speed
        self.refs = [self.ref()]

    def lap(self, seconds: float) -> float:
        """Nominal seconds of work that just took `seconds` host seconds."""
        before = self.refs[-1]
        self.refs.append(self.ref())
        return seconds * 2 * self.nominal / (before + self.refs[-1])

    def slowdown(self) -> float:
        """Median reference time over its nominal time: 1 at nominal speed."""
        return statistics.median(self.refs) / self.nominal


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

def reseed_data(text: str, variant: int) -> str:
    """Redraw the values of every `.data32` / `.dataf` (HBM image) line.

    Instructions, addresses and VMEM images (which hold DMA addresses in
    the random kernels) are left alone. Variant 0 returns `text` as is."""
    if variant == 0:
        return text
    rng = random.Random(variant)
    out = []
    for line in text.splitlines():
        if line.startswith((".data32 ", ".dataf ")):
            head, values = line.split(": ", 1)
            n = len(values.split())
            if line.startswith(".data32 "):
                values = " ".join(hex(rng.getrandbits(32)) for _ in range(n))
            else:
                values = " ".join(f"{rng.uniform(-4, 4):.3f}" for _ in range(n))
            line = f"{head}: {values}"
        out.append(line)
    return "\n".join(out) + "\n"


def corpus_params(kernel_seed: int):
    """Size, window and skip of one acceptance-corpus kernel; the formula of
    tests/test_acceptance.py::_kernel_params."""
    size = 50 + (kernel_seed * 991) % 4951
    count = 80 + (kernel_seed * 37) % 520
    skip = (kernel_seed * 13) % 97 if kernel_seed % 5 == 1 else 0
    return size, count, skip


def cli_kernel_text(workload: str, seed: int) -> str:
    from xshark.workloads import gen_random_kernel, gen_starvation_kernel
    if workload == "starvation":
        text = gen_starvation_kernel(tiles=64, prefetch_depth=1)
    else:
        text = gen_random_kernel(LONG_WINDOW_KERNEL_SEED, size=5000).text
    return reseed_data(text, seed % DATA_VARIANTS)


def corpus_kernels(seed: int):
    """[(kernel_seed, text, count, skip)] for the 40 corpus kernels, in the
    order this seed runs them."""
    from xshark.workloads import gen_random_kernel
    order = list(range(CORPUS_KERNELS))
    random.Random(seed).shuffle(order)
    out = []
    for k in order:
        size, count, skip = corpus_params(k)
        out.append((k, gen_random_kernel(k, size=size).text, count, skip))
    return out


def programs(workload: str, seed: int):
    """[(label, assembled kernel)] of a workload, for the simulator probes;
    the label keys the expected run results."""
    from xshark.workloads import assemble
    if workload == "corpus":
        return [(str(k), assemble(text))
                for k, text, _, _ in corpus_kernels(seed)]
    return [(workload, assemble(cli_kernel_text(workload, seed)))]


def run_summary(result) -> dict:
    return {"outcome": result.outcome, "cycles": result.cycles,
            "executed": result.executed,
            "stall_cycles": dict(result.stall_cycles)}


# ---------------------------------------------------------- the CLI pass

def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, env, out_path, timeout=STEP_TIMEOUT_S):
    """Run one child to completion; returns (exit code, peak RSS in KiB).

    stdout and stderr go to files so the child can be reaped with wait4,
    which reports its own peak resident set. A child still running after
    `timeout` seconds is killed."""
    with open(out_path + ".out", "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, usage.ru_maxrss


def keep_going(times, started, seconds):
    """Whether to start another pass: always one, then only while half of
    the median pass still fits within `seconds` of `started`. A run so ends
    within half a pass of its budget, on either side, and a long pass
    cannot leave a run with a single sample that another would have fit."""
    if not times:
        return True
    return (time.perf_counter() - started + statistics.median(times) / 2
            <= seconds)


def prepare_cli_dir(workdir: str, text: str) -> str:
    """An empty pass directory holding only the kernel source, so no output
    of an earlier pass can stand in for a missing one."""
    pass_dir = os.path.join(workdir, "pass")
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    with open(os.path.join(pass_dir, "kernel.xasm"), "w") as fh:
        fh.write(text)
    return pass_dir


def cli_pass(pass_dir: str, env: dict, clock: SpeedClock, run=run_child):
    """One pass of the eight CLI steps, one process each, started by `run`
    (run_child or Launcher.run).

    Returns (host seconds, nominal seconds, peak RSS KiB, [(step, exit code,
    stdout, stderr)]); stops after the first step that exits nonzero."""
    steps = []
    peak = 0
    host = nominal = 0.0
    for name, args in CLI_STEPS:
        base = os.path.join(pass_dir, name)
        t0 = time.perf_counter()
        code, rss = run([sys.executable, "-m", "xshark.cli", *args],
                        pass_dir, env, base)
        t = time.perf_counter() - t0
        host += t
        nominal += clock.lap(t)
        peak = max(peak, rss)
        with open(base + ".out") as fh:
            out = fh.read()
        with open(base + ".err") as fh:
            err = fh.read()
        steps.append((name, code, out, err))
        if code != 0:
            break
    return host, nominal, peak, steps


def process_reference(run, out_path):
    """A SpeedClock reference for work done in child processes: host
    seconds of PROCESS_REF, started by `run` like the children it scales."""
    t0 = time.perf_counter()
    code, _ = run(PROCESS_REF, os.path.dirname(out_path), os.environ.copy(),
                  out_path)
    if code != 0:
        raise RuntimeError(f"{PROCESS_REF} exited {code}")
    return time.perf_counter() - t0


class Launcher:
    """A small process that starts the measured children.

    Linux carries a parent's peak resident set into a child through fork
    and exec, so children of the benchmark process itself, which holds
    assembled programs and machine states, would report its peak instead
    of their own. The launcher imports neither numpy nor xshark."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "launch"],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, env, out_path, timeout=STEP_TIMEOUT_S):
        self.proc.stdin.write(json.dumps([argv, cwd, env, out_path, timeout]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        code, rss = json.loads(reply)
        return code, rss

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# --------------------------------------------------- expected CLI outputs

def _summary_line(path: str) -> dict:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        return json.loads(fh.read().decode().strip().splitlines()[-1])


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def cli_outputs(pass_dir: str, steps) -> dict:
    """What a finished CLI pass produced, in the shape of the expected file:
    the data-independent part and the part that depends on the variant."""
    common = {"stdout": {name: out for name, _, out, _ in steps}}
    variant = {}
    files = {k: os.path.join(pass_dir, v) for k, v in CLI_FILES.items()}
    for log in ("replay_log", "applied_log"):
        if os.path.exists(files[log]):
            summary = _summary_line(files[log])
            variant[log + "_digest"] = summary.pop("digest", None)
            common[log + "_summary"] = summary
            common[log + "_events"] = _line_count(files[log]) - 1
    if os.path.exists(files["applied_suggestions"]):
        with open(files["applied_suggestions"]) as fh:
            applied = json.load(fh)
        common["verdicts"] = [[s["dma_id"], s["verified"], s["speedup_cycles"]]
                              for s in applied]
    for key in ("report", "suggestions", "applied_suggestions"):
        if os.path.exists(files[key]):
            common[key + "_sha256"] = sha256_file(files[key])
    for key in ("trace", "replay_log", "applied_log"):
        if os.path.exists(files[key]):
            variant[key + "_sha256"] = sha256_file(files[key])
    return {"common": common, "variant": variant}


def cli_saved_cycles(outputs: dict) -> int:
    """Cycles removed by the reorder `apply` verified: the replay's cycles
    minus the reordered replay's, if every suggestion verified."""
    common = outputs["common"]
    verdicts = common.get("verdicts") or []
    if not verdicts or any(v == "unverified" for _, v, _ in verdicts):
        return 0
    return (common["replay_log_summary"]["cycles"]
            - common["applied_log_summary"]["cycles"])


def step_failures(steps, got: dict, expected: dict, variant: int):
    """Names of the steps whose exit code, stderr or outputs differ from the
    expected ones. Each file is charged to the step that writes it."""
    writes = {"record": ["trace"], "replay": ["replay_log"],
              "analyze": ["report"], "suggest": ["suggestions"],
              "apply": ["applied_log", "applied_suggestions", "verdicts"]}
    exp_c, exp_v = expected["common"], expected["variants"][str(variant)]
    failed = []
    for name, code, out, err in steps:
        bad = (code != 0 or "Traceback" in err
               or out != exp_c["stdout"][name])
        for key in writes.get(name, []):
            for k, v in exp_c.items():
                if k.startswith(key) and got["common"].get(k) != v:
                    bad = True
            for k, v in exp_v.items():
                if k.startswith(key) and got["variant"].get(k) != v:
                    bad = True
        if bad:
            failed.append(name)
    return failed


# ------------------------------------------------------------ corpus pass

class NoTracer:
    """Stands in for perfbench.tracing.Tracer when a pass is not traced."""

    def span(self, name, layer):
        return _NO_SPAN


class _NoSpan:
    def __enter__(self):
        return self

    def count(self, **counts):
        pass

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def corpus_pass(kernels, config, tracer=None, probe=None, clock=None):
    """Run the acceptance corpus's per-kernel steps over `kernels`.

    Returns one result dict per kernel, keyed by kernel seed, the pass's
    host seconds (without `probe` and the clock's reference runs) and its
    nominal seconds if a SpeedClock is given (else None). The stage
    spans carry the names of the CLI steps that do the same work. `probe`,
    if given, is called with each kernel's artifacts once it is done
    (tracing.corpus_io_probe)."""
    from xshark.analyzer import (analyze_dma, analyze_vmem, apply_and_verify,
                                 build_dependency_graph, compute_backtails,
                                 suggest)
    from xshark.debugger import DebugSession
    from xshark.recorder import record
    from xshark.replayer import compare_window, replay
    from xshark.sim import RecordingTracker
    from xshark.workloads import apply_images, assemble

    tr = tracer or NoTracer()
    results = {}
    host = nominal = 0.0
    for seed, text, count, skip in kernels:
        t0 = time.perf_counter()
        with tr.span("asm", "pipeline"):
            with tr.span("assemble", "workloads.asm") as sp:
                kernel = assemble(text)
                sp.count(instructions=len(kernel.program))
        with tr.span("run", "pipeline"):
            with tr.span("session", "sim"):
                state = config.make_state()
                apply_images(kernel, state)
                session = DebugSession(kernel.program, config, state)
                session.state.pc = kernel.program.entry_pc
                for _ in range(skip):
                    if session.peek() is None:
                        break
                    session.step()
        with tr.span("record", "pipeline"):
            with tr.span("record", "recorder") as sp:
                rec = record(session, None, count, fast_forward_dma=True)
                sp.count(instructions=rec.recorded,
                         snapshot_bytes=rec.trace.snapshot_bytes)
        with tr.span("replay", "pipeline"):
            with tr.span("replay", "replayer") as sp:
                tracker = RecordingTracker()
                rep = replay(rec.trace, config, tracker)
                sp.count(instructions=rep.executed, events=len(tracker.events))
        with tr.span("compare", "pipeline"):
            with tr.span("compare_window", "replayer"):
                verdict = compare_window(session.state, rec, rep)
        events = tracker.events
        with tr.span("analyze", "pipeline"):
            with tr.span("analyze_dma", "analyzer.dma"):
                records = analyze_dma(events)
            with tr.span("analyze_vmem", "analyzer.vmem"):
                vmem = analyze_vmem(events, sample_interval=64,
                                    capacity=config.vmem_capacity)
        sugs, graph, backtails = [], None, None
        if any(r.stall_total > 0 for r in records):
            with tr.span("suggest", "pipeline"):
                with tr.span("build_dependency_graph", "analyzer.deps") as sp:
                    graph = build_dependency_graph(events)
                    sp.count(edges=len(graph.conservative))
                with tr.span("compute_backtails", "analyzer.deps"):
                    backtails = compute_backtails(graph)
                with tr.span("suggest", "analyzer.suggest") as sp:
                    sugs = suggest(records, graph, vmem, backtails)
                    sp.count(suggestions=len(sugs))
        verdicts = []
        if sugs:
            with tr.span("apply", "pipeline"):
                for s in sugs:
                    with tr.span("apply_and_verify", "analyzer.suggest") as sp:
                        (out,), _ = apply_and_verify(rec.trace, s, config,
                                                     baseline=rep)
                        sp.count(suggestions=1,
                                 verified=int(out.verified != "unverified"))
                    verdicts.append([out.dma_id, out.verified,
                                     out.speedup_cycles])
        dt = time.perf_counter() - t0
        host += dt
        if clock is not None:
            nominal += clock.lap(dt)
        if probe is not None:
            probe(kernel, rec.trace, events, records, vmem, graph, backtails)
        results[str(seed)] = {
            "window": rec.recorded, "cycles": rep.cycles,
            "stall_cycles": dict(rep.stall_cycles), "events": len(events),
            "digest": rep.digest, "equal": verdict["equal"],
            "verdicts": verdicts}
    return results, host, (nominal if clock is not None else None)


def corpus_saved_cycles(results: dict) -> int:
    """Cycles removed by the verified suggestions, each applied on its own
    as the acceptance fixture applies them."""
    return sum(speedup for r in results.values()
               for _, verified, speedup in r["verdicts"]
               if verified != "unverified")


def corpus_failures(results: dict, expected: dict):
    """Kernel seeds whose results differ from the expected ones, or whose
    replay was not equal to the live window."""
    want = expected["kernels"]
    return sorted((k for k, r in results.items()
                   if r != want.get(k) or not r["equal"]), key=int)


def load_expected(workload: str) -> dict:
    with open(os.path.join(EXPECTED_DIR, workload + ".json")) as fh:
        return json.load(fh)
