"""Child processes of the benchmark. Run with `src` on PYTHONPATH:

    python3 perfbench/worker.py corpus SEED
        one corpus pass; one JSON line: {"wall_s": host seconds,
        "nominal_s": ..., "results": {kernel seed: ...}}
    python3 perfbench/worker.py launch
        workloads.Launcher's process: reads [argv, cwd, env, out path,
        timeout] JSON lines, runs each child, answers [exit code, peak RSS]
    python3 perfbench/worker.py kernels SECONDS
        the execute-stage kernels of whichever backend `xshark._kernels`
        picks in this environment (XSHARK_PURE=1 forces the fallback); one
        JSON line: {"backend": ..., "mxu_mm_us": ..., "v_add_us": ...}, in
        nominal microseconds
"""

import json
import random
import statistics
import struct
import sys
import time

import workloads


def corpus(seed):
    from xshark.sim import SimConfig
    kernels = workloads.corpus_kernels(seed)
    config = SimConfig()
    results, host, nominal = workloads.corpus_pass(
        kernels, config, clock=workloads.SpeedClock())
    print(json.dumps({"wall_s": host, "nominal_s": nominal,
                      "results": results}), flush=True)


def kernels(seconds, batch=2000):
    from xshark import _kernels
    r = random.Random(1)
    initial = struct.pack("<768f", *[r.uniform(-4, 4) for _ in range(768)])
    clock = workloads.SpeedClock()
    out = {"backend": _kernels.BACKEND}
    for name, call in (("mxu_mm_us", lambda b: _kernels.mxu_mm(b, 0, 1024, 2048)),
                       ("v_add_us", lambda b: _kernels.v_add(b, 0, 64, 128))):
        per_call = []
        deadline = time.perf_counter() + seconds / 2
        while len(per_call) < 5 or time.perf_counter() < deadline:
            buf = bytearray(initial)
            t0 = time.perf_counter()
            for _ in range(batch):
                call(buf)
            per_call.append(clock.lap(time.perf_counter() - t0) / batch * 1e6)
        out[name] = statistics.median(per_call)
    print(json.dumps(out), flush=True)


def launch():
    for line in sys.stdin:
        print(json.dumps(workloads.run_child(*json.loads(line))), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "launch":
        launch()
    elif sys.argv[1] == "corpus":
        corpus(int(sys.argv[2]))
    elif sys.argv[1] == "kernels":
        kernels(float(sys.argv[2]))
    else:
        sys.exit(f"unknown worker command {sys.argv[1]!r}")
