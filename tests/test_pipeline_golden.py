"""Golden bytes of the CLI pipeline's files: the replay and apply event logs,
every file of the `analyze` bundle and both suggestion lists. The event log
and `report.json` formats are contractual (docs/events.md, docs/reports.md),
so a change to an encoder or writer that alters one byte fails here.

Regenerate tests/golden/pipeline.json (only when an output is meant to
change) with:

    PYTHONPATH=src python tests/test_pipeline_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from xshark.cli import main
from xshark.workloads import gen_random_kernel, gen_starvation_kernel

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pipeline.json")
WINDOW = 2000

KERNELS = {
    "starvation_8x1": lambda: gen_starvation_kernel(tiles=8, prefetch_depth=1),
    "random_0_600": lambda: gen_random_kernel(0, size=600).text,
    "random_7_5000_window_2000": lambda: gen_random_kernel(7, size=5000).text,
}


def pipeline_hashes(src: str, workdir: str) -> dict:
    """Runs asm -> record -> replay -> analyze -> suggest -> apply in
    `workdir`; returns {file relative to workdir: sha256}."""
    def p(name):
        return os.path.join(workdir, name)

    with open(p("kernel.xasm"), "w") as fh:
        fh.write(src)
    steps = [
        ["asm", p("kernel.xasm"), "-o", p("kernel.bundle")],
        ["record", p("kernel.bundle"), "--break", "0", "--count", str(WINDOW),
         "-o", p("kernel.trace")],
        ["replay", p("kernel.trace"), "-o", p("replay.jsonl")],
        ["analyze", p("replay.jsonl"), "--program", p("kernel.bundle"),
         "-o", p("report")],
        ["suggest", p("kernel.trace"), p("replay.jsonl"), "-o", p("suggestions.json")],
        ["apply", p("kernel.trace"), p("suggestions.json"), "-o", p("applied.jsonl")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            assert main(argv) == 0, argv
    names = ["replay.jsonl", "suggestions.json", "applied.jsonl",
             "applied.jsonl.suggestions.json"]
    names += [os.path.join("report", f) for f in sorted(os.listdir(p("report")))]
    out = {}
    for name in names:
        with open(p(name), "rb") as fh:
            out[name.replace(os.sep, "/")] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(KERNELS))
def test_pipeline_files_match_golden(name, tmp_path):
    assert pipeline_hashes(KERNELS[name](), str(tmp_path)) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    doc = {}
    for name, make in KERNELS.items():
        with tempfile.TemporaryDirectory() as d:
            doc[name] = pipeline_hashes(make(), d)
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
