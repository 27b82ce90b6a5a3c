#!/usr/bin/env python3
"""The xshark benchmark. From the repository root:

    python3 perfbench/run.py --workload starvation --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1 is
the separate in-process traced run that gives the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. Every run also writes its details (environment, samples, spans)
to perfbench_out/<workload>/. See perfbench/README.md.

    python3 perfbench/run.py --write-expected [--workload WORKLOAD]

records the current code's outputs as the expected outputs that every
later pass is checked against (of every workload, without --workload).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench_out")
SETUP_SAMPLES = 7
SIM_SHARE = 0.25            # simulator sweeps per round, as a share of a pass
TRACED_PASS_SHARE = 0.55    # of --seconds, for the traced and untraced passes
SIM_PROBE_SHARE = 0.10
KERNEL_PROBE_S = 1.0

import workloads            # noqa: E402  (after HERE is on sys.path)


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def median(xs):
    return statistics.median(xs)


def tail(xs):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(xs)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(xs)[math.ceil(p / 100 * n) - 1]


# ------------------------------------------------------------- environment

def environment(workload, seed, env):
    import numpy
    from xshark import _kernels
    if workload == "corpus":
        inputs = (f"kernels 0..{workloads.CORPUS_KERNELS - 1} in the order "
                  f"drawn from seed {seed}")
    else:
        inputs = (f"data variant {seed % workloads.DATA_VARIANTS} of "
                  f"{workloads.DATA_VARIANTS}")
    return {"workload": workload, "seed": seed, "inputs": inputs,
            "backend": _kernels.BACKEND,
            "XSHARK_PURE": env.get("XSHARK_PURE"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_1m_start": os.getloadavg()[0]}


def setup_samples(env, clock, n):
    """Nominal seconds from starting a fresh interpreter until `xshark.cli`
    has imported, n times."""
    code = "import sys, xshark.cli; sys.stdout.write('ok'); sys.stdout.flush()"
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        try:
            ok = proc.stdout.read(2)
            t = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if ok != b"ok" or proc.returncode != 0:
            raise BenchError("`import xshark.cli` failed in a fresh interpreter")
        times.append(clock.lap(t))
    return times


def kernels_probe(env, workdir):
    """Kernel timings per backend present, each in its own interpreter: the
    default choice, then XSHARK_PURE=1 if the default was not the fallback."""
    from xshark._kernels import pyfallback
    base = {k: v for k, v in env.items() if k != "XSHARK_PURE"}
    runs = {}
    for name, extra in (("active", {}), ("fallback", {"XSHARK_PURE": "1"})):
        out = os.path.join(workdir, "kernels_" + name)
        code, _ = workloads.run_child(
            [sys.executable, os.path.join(HERE, "worker.py"), "kernels",
             str(KERNEL_PROBE_S)], ROOT, {**base, **extra}, out, timeout=60)
        if code != 0:
            raise BenchError(f"kernel probe failed: {open(out + '.err').read()}")
        with open(out + ".out") as fh:
            runs[name] = json.loads(fh.read())
        if runs["active"]["backend"] == pyfallback.BACKEND:
            runs["note"] = ("only the fallback backend exists (no compiled "
                            "extension); it was measured alone")
            break
    return runs


# --------------------------------------------------------------- checks

def run_mismatches(labelled_summaries, expected):
    want = expected["runs"]
    return [label for label, summary in labelled_summaries
            if summary != want.get(label)]


def check_cli_pass(steps, pass_dir, expected, variant):
    got = workloads.cli_outputs(pass_dir, steps)
    failed = workloads.step_failures(steps, got, expected, variant)
    return failed, workloads.cli_saved_cycles(got)


# ------------------------------------------------------- untraced (trace 0)

def measured_run(workload, seed, seconds, workdir, env, expected, config):
    with workloads.Launcher(env) as launcher:
        return _measured_run(workload, seed, seconds, workdir, env, expected,
                             config, launcher.run)


def _measured_run(workload, seed, seconds, workdir, env, expected, config,
                  launch):
    """Passes until `seconds` are used, each after a slice of simulator
    sweeps, so that both sample the whole run; set-up samples at the start
    and at the end. Times are nominal seconds (workloads.SpeedClock)."""
    from xshark.sim import NullTracker
    from tracing import sim_sweeps
    clock = workloads.SpeedClock()
    proc_clock = workloads.SpeedClock(
        lambda: workloads.process_reference(launch, os.path.join(workdir, "ref")),
        workloads.PROCESS_REF_NOMINAL_S)
    labelled = workloads.programs(workload, seed)
    progs = [k for _, k in labelled]
    text = None if workload == "corpus" else workloads.cli_kernel_text(workload, seed)
    variant = seed % workloads.DATA_VARIANTS
    setup = setup_samples(env, proc_clock, SETUP_SAMPLES // 2)
    rounds, walls, host_walls, peaks, kips, saved, failures = ([] for _ in range(7))
    attempted = 0
    bad_runs = set()
    started = time.perf_counter()
    while workloads.keep_going(rounds, started, seconds):
        t_round = time.perf_counter()
        times, instrs, _, summaries = sim_sweeps(
            progs, config, SIM_SHARE * (host_walls[-1] if host_walls else 1.0),
            NullTracker, min_sweeps=2, clock=clock)
        kips += [instrs / t / 1e3 for t in times]
        bad_runs.update(run_mismatches(zip((l for l, _ in labelled), summaries),
                                       expected))
        if workload == "corpus":
            out = os.path.join(workdir, "corpus")
            code, peak_kb = launch([sys.executable, os.path.join(HERE, "worker.py"),
                                    "corpus", str(seed)], ROOT, env, out)
            attempted += workloads.CORPUS_KERNELS
            if code != 0:
                with open(out + ".err") as fh:
                    failures.append(f"corpus worker exited {code}: {fh.read()[-2000:]}")
                break
            with open(out + ".out") as fh:
                result = json.loads(fh.read())
            host, nominal = result["wall_s"], result["nominal_s"]
            failures += workloads.corpus_failures(result["results"], expected)
            saved.append(workloads.corpus_saved_cycles(result["results"]))
        else:
            pass_dir = workloads.prepare_cli_dir(workdir, text)
            host, nominal, peak_kb, steps = workloads.cli_pass(
                pass_dir, env, proc_clock, launch)
            attempted += len(steps)
            failed, saved_cycles = check_cli_pass(steps, pass_dir, expected,
                                                  variant)
            failures += failed
            saved.append(saved_cycles)
        walls.append(nominal)
        host_walls.append(host)
        peaks.append(peak_kb)
        rounds.append(time.perf_counter() - t_round)
    setup += setup_samples(env, proc_clock, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    detail = {"setup_s": setup, "wall_s": walls, "host_wall_s": host_walls,
              "sim_kips": kips, "slowdown": clock.slowdown(),
              "process_slowdown": proc_clock.slowdown(),
              "peak_rss_kb": peaks, "saved_cycles": saved,
              "failures": failures, "run_mismatches": sorted(bad_runs)}
    values = {"setup_s": median(setup), "wall_s": median(walls or [0.0]),
              "sim_kips": median(kips), "peak_rss_mb": median(peaks or [0]) / 1024,
              "saved_cycles": statistics.median_low(saved or [0])}
    correct = (not failures and not bad_runs
               and all(s == expected["saved_cycles"] for s in saved))
    return values, correct, attempted, len(failures), detail


# --------------------------------------------------------- traced (trace 1)

def traced_run(workload, seed, seconds, workdir, env, expected, config):
    """Untraced and traced in-process passes, alternating, then the probes.
    Times are nominal seconds: each traced pass's spans are scaled by the
    pass's nominal over host seconds."""
    import tracing
    tracer = tracing.Tracer()
    clock = workloads.SpeedClock()
    progs = [k for _, k in workloads.programs(workload, seed)]
    untraced, traced, scales, failures = [], [], [], []
    attempted = 0
    started = time.perf_counter()
    budget = TRACED_PASS_SHARE * seconds
    if workload == "corpus":
        kernels = workloads.corpus_kernels(seed)
        probe = tracing.corpus_io_probe(tracer, config, os.path.join(workdir, "io"))
    else:
        text = workloads.cli_kernel_text(workload, seed)
        variant = seed % workloads.DATA_VARIANTS
    while workloads.keep_going([u + t for u, t in zip(untraced, traced)],
                               started, budget):
        for tr in (None, tracer):
            if workload == "corpus":
                results, host, nominal = workloads.corpus_pass(
                    kernels, config, tr, probe if tr else None, clock)
                attempted += len(results)
                failures += workloads.corpus_failures(results, expected)
            else:
                pass_dir = workloads.prepare_cli_dir(workdir, text)
                host, nominal, steps = tracing.inprocess_cli_pass(pass_dir,
                                                                 clock, tr)
                attempted += len(steps)
                failures += check_cli_pass(steps, pass_dir, expected, variant)[0]
            (traced if tr else untraced).append(nominal)
        scales.append(nominal / host)
        tracer.pass_index += 1

    sim = tracing.sim_probe(progs, config, SIM_PROBE_SHARE * seconds, clock)
    points = tracing.scaling_points(
        workloads.cli_kernel_text("long_window", seed), config, clock)
    kernels_runs = kernels_probe(env, workdir)
    per_pass = [tracing.pass_metrics(tracing.PassView(
        [s for s in tracer.spans if s.pass_index == i], scales[i]), sim)
        for i in range(tracer.pass_index)]
    values = tracing.median_metrics(per_pass)
    values.update(tracing.probe_metrics(sim, points, kernels_runs))
    values["trace.overhead_s"] = median(traced) - median(untraced)
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "slowdown": clock.slowdown(),
              "failures": failures, "sim_probe": sim, "scaling": points,
              "kernels": kernels_runs, "self_s": tracer.self_seconds(scales),
              "spans": tracer.to_json(), "pass_scales": scales}
    return values, not failures, attempted, len(failures), detail


# ---------------------------------------------------------------- report

def print_report(kind, specs, values, detail, env_record, correct, attempted,
                 failed):
    print(f"perfbench {env_record['workload']} seed={env_record['seed']} "
          f"({env_record['inputs']}) backend={env_record['backend']} "
          f"python={env_record['python']} numpy={env_record['numpy']} "
          f"nproc={env_record['nproc']} load1m={env_record['loadavg_1m_start']:.2f}"
          f"->{env_record['loadavg_1m_end']:.2f}")
    for m in specs:
        line = f"  {m['name']:32s} {values[m['name']]:14.6g} {m['unit']}"
        if m["name"] == "wall_s":
            walls = detail["wall_s"]
            t = tail(walls)
            unit = m["unit"]
            line += (f"   median of n={len(walls)} passes, max {max(walls):.4g} "
                     f"{unit}, "
                     + (f"p{t[0]} {t[1]:.4g} {unit}" if t else
                        "no tail percentile (needs n >= 11)")
                     + f"; host median {median(detail['host_wall_s']):.4g} s")
        print(line)
    print(f"  times are nominal seconds (setup_s too, whose unit BENCHMARK.json "
          f"fixes as s); this run's host ran "
          f"{detail['slowdown']:.3f}x the compute reference's nominal time"
          + (f" and {detail['process_slowdown']:.3f}x the process reference's"
             if kind == "measured" else ""))
    if kind == "traced":
        print("  self time per layer (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(detail["self_s"].items(),
                                            key=lambda kv: -kv[1])))
        print("  scaling (window: replay/deps/backtails s): " + "; ".join(
            f"{p['window']}: {p['replay_s']:.4f}/{p['deps_s']:.4f}/"
            f"{p['backtails_s']:.4f}" for p in detail["scaling"]))
        if env_record["workload"] == "corpus":
            print("  corpus has no file I/O or codec: bundle.load_s, trace.*, "
                  "eventlog.*, analyzer.util_s and report.* come from the I/O "
                  "probe on each kernel, not from the pass")
        if "note" in detail["kernels"]:
            print("  kernels: " + detail["kernels"]["note"])
    print(f"  operations: {attempted} attempted, {failed} failed; "
          f"outputs {'match' if correct else 'DIFFER FROM'} the expected outputs")


def pin_to_one_cpu():
    """Run this process and every child on one CPU, so the reference runs
    of workloads.SpeedClock share a CPU, and its contention, with the work
    they scale. Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run(workload, seed, seconds, trace):
    from xshark.sim import SimConfig
    cpu = pin_to_one_cpu()
    env = workloads.cli_env(ROOT)
    workdir = os.path.join(OUT, workload)
    os.makedirs(workdir, exist_ok=True)
    env_record = environment(workload, seed, env)
    env_record["pinned_cpu"] = cpu
    expected = workloads.load_expected(workload)
    kind = "traced" if trace else "measured"
    fn = traced_run if trace else measured_run
    values, correct, attempted, failed, detail = fn(
        workload, seed, seconds, workdir, env, expected, SimConfig())
    env_record["loadavg_1m_end"] = os.getloadavg()[0]
    specs = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    print_report(kind, specs, values, detail, env_record, correct, attempted,
                 failed)
    path = os.path.join(workdir, f"{kind}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"env": env_record, "correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": values, "detail": detail},
                  fh, indent=1)
    print(f"  details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {m["name"]: {"value": values[m["name"]],
                                              "unit": m["unit"]}
                                  for m in specs}}))


# -------------------------------------------------------- expected outputs

def write_expected(names):
    from xshark.sim import NullTracker, SimConfig
    from tracing import sim_sweeps
    config = SimConfig()
    env = workloads.cli_env(ROOT)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name in names:
        progs = workloads.programs(name, 0)
        first = sim_sweeps([k for _, k in progs], config, 0, NullTracker, 1)[3]
        doc = {"runs": {label: r for (label, _), r in zip(progs, first)}}
        if name == "corpus":
            results = workloads.corpus_pass(workloads.corpus_kernels(0), config)[0]
            if not all(r["equal"] for r in results.values()):
                raise BenchError("a corpus replay differs from its live window")
            doc.update(saved_cycles=workloads.corpus_saved_cycles(results),
                       kernels=dict(sorted(results.items(), key=lambda kv: int(kv[0]))))
        else:
            variants = {}
            for v in range(workloads.DATA_VARIANTS):
                workdir = os.path.join(OUT, "expected", name)
                pass_dir = workloads.prepare_cli_dir(
                    workdir, workloads.cli_kernel_text(name, v))
                steps = workloads.cli_pass(pass_dir, env, workloads.SpeedClock())[3]
                if [code for _, code, _, _ in steps] != [0] * len(workloads.CLI_STEPS):
                    raise BenchError(f"{name} variant {v}: a step failed: {steps}")
                got = workloads.cli_outputs(pass_dir, steps)
                if v == 0:
                    doc["common"] = got["common"]
                    doc["saved_cycles"] = workloads.cli_saved_cycles(got)
                elif got["common"] != doc["common"]:
                    raise BenchError(f"{name}: variant {v} changes outputs that "
                                     "should not depend on data values")
                variants[str(v)] = got["variant"]
            doc["variants"] = variants
        path = os.path.join(workloads.EXPECTED_DIR, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="default: each workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the expected outputs instead of measuring")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xshark", "cli.py")):
        print(f"perfbench: no xshark sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = [args.workload] if args.workload else workloads.NAMES
    try:
        if args.write_expected:
            write_expected(names)
        else:
            for workload in names:
                run(workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
