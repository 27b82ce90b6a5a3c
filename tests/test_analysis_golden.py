"""Golden hashes of the dependency analysis: conservative and relaxed edges,
chains, the relaxed fallback set and the backtails, in the order the
analyzer returns them. A change that reorders or alters any of them fails
here on small kernels, not only in the long-window report.

Regenerate tests/golden/analysis.json (only when the analysis output is
meant to change) with:

    PYTHONPATH=src python tests/test_analysis_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from xshark.analyzer import build_dependency_graph, compute_backtails
from xshark.recorder import record
from xshark.replayer import replay
from xshark.sim import Breakpoint, RecordingTracker, SimConfig
from xshark.workloads import gen_random_kernel, gen_starvation_kernel

from helpers import asm_session
from test_analyzer import GUARDED_WAIT_KERNEL

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "analysis.json")


def _kernels():
    """name -> (kernel source, recorded window length)"""
    out = {"starvation": (gen_starvation_kernel(tiles=64, prefetch_depth=1), 100_000),
           "guarded_wait": (GUARDED_WAIT_KERNEL, 100_000)}
    for seed in range(8):
        out[f"random_{seed}"] = (gen_random_kernel(seed).text, 100_000)
    out["random_7_5000_window_2000"] = (gen_random_kernel(7, size=5000).text, 2000)
    return out


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def analysis_hashes(src: str, window: int) -> dict:
    config = SimConfig()
    _, session = asm_session(src, config)
    rec = record(session, Breakpoint(0), window)
    tracker = RecordingTracker()
    replay(rec.trace, config, tracker)
    graph = build_dependency_graph(tracker.events)
    backtails = compute_backtails(graph)
    return {
        "conservative": _sha([e.to_json() for e in graph.conservative]),
        "relaxed": _sha([e.to_json() for e in graph.relaxed]),
        "chains": _sha([[d, list(c)] for d, c in graph.chains.items()]),
        "relaxed_fallback": _sha(sorted(graph.relaxed_fallback)),
        "backtails": _sha([[d, bt.to_json()] for d, bt in backtails.items()]),
    }


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(_kernels()))
def test_analysis_matches_golden(name):
    src, window = _kernels()[name]
    assert analysis_hashes(src, window) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    doc = {name: analysis_hashes(src, window)
           for name, (src, window) in _kernels().items()}
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
