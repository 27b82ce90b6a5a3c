"""Golden assembler diagnostics: one malformed source per error path of
`assemble`, its operand parser and the `Instruction` checks it reaches.
Each entry pins the `AsmError`'s (line, col, message), so a change to the
assembler that rewords or moves a diagnostic fails here.

Regenerate tests/golden/asm_errors.json (only when a diagnostic is meant to
change) with:

    PYTHONPATH=src python tests/test_asm_golden.py --write
"""

import json
import os
import sys

import pytest

from xshark.workloads import AsmError, assemble

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "asm_errors.json")

CASES = {
    # assemble: labels, directives, guards, .entry
    "duplicate-label": "x:\nhalt\nx:\nhalt\n",
    "data-no-address": ".data 01 02\nhalt\n",
    "data-bad-hex-byte": ".data 0x10: 0a zz\nhalt\n",
    "data-hex-byte-too-wide": ".data 0: 100\nhalt\n",
    "data32-bad-number": "halt\n.data32 0: 1 two\n",
    "dataf-bad-float": ".vdataf 0: 1.5 x\nhalt\n",
    "unknown-directive": "  .text\nhalt\n",
    "entry-undefined-label": ".entry nowhere\nhalt\n",
    "guard-scalar-register": "@s0 halt\n",
    "guard-out-of-range": "@p8 halt\n",
    "guard-bad-name": "@q1 halt\n",
    # operand parsing
    "unknown-mnemonic": "halt\nfrobnicate s0\n",
    "too-few-operands": "  top: s_add s0, s1\n",
    "too-many-operands": "halt s0\n",
    "s_mov-operand-count": "s_mov s0\n",
    "wrong-register-class": "s_add v0, s1, s2\n",
    "s_mov-lane-form-needs-vector": "s_mov s0, s1, 3\n",
    "s_mov-scalar-form-predicate": "s_mov s0, p1\n",
    "brz-scalar-register": "brz s0, 0\n",
    "register-out-of-range": "\ts_ldi s99, 1 ; comment\n",
    "vector-register-out-of-range": "v_add v0, v1, v32\n",
    "bad-register-name": "s_add s0, s1, q2\n",
    "empty-operand": "s_add s0, , s1\n",
    "memory-operand-not-bracketed": "v_load v0, s1\n",
    "memory-operand-vector": "v_store [v1], v0\n",
    "memory-operand-out-of-range": "v_load v0, [s40]\n",
    "bad-number": "s_ldi s0, abc\n",
    "guarded-bad-number": "halt\n   @p0 s_ldi s0, abc\n",
    "cmp-mode-name": "s_cmp p0, s0, s1, below\n",
    "unknown-dma-direction": "dma_issue 0, hbm>foo, s0, s1, s2\n",
    "undefined-label": "br nowhere\nhalt\n",
    "target-out-of-bounds": "br 5\nhalt\n",
    "target-negative": "halt\nbrz p0, -1\n",
    # Instruction checks reached from source
    "cmp-mode-9": "s_cmp p0, s0, s1, 9\n",
    "dma-wait-slot-16": "dma_wait 16\n",
    "dma-issue-slot-negative": "dma_issue -1, hbm>vmem, s0, s1, s2\n",
    "s_mov-lane-16": "s_mov s0, v1, 16\n",
    "immediate-wider-than-32-bits": "s_ldi s0, 0x100000000\n",
    "immediate-below-int32": "s_ldi s0, -2147483649\n",
    # numbers and register names are ASCII and exact (these were accepted,
    # or ended in a traceback, before the number grammar was pinned)
    "leading-zero-immediate": "s_ldi s0, 007\n",
    "leading-zero-target": "br 08\nhalt\n",
    "leading-zero-address": ".data 010: 01\nhalt\n",
    "leading-zero-register": "s_ldi s01, 1\n",
    "unicode-digit-register": "s_ldi s\u00b2, 1\n",
    "unicode-digit-immediate": "s_ldi s0, \u0663\n",
    "unicode-digit-hex-byte": ".data 0: \u0663\n",
    "f32-overflow": ".dataf 0: 1e39\n",
    # the column is where the mnemonic starts, after its label
    "label-starts-with-mnemonic": "halting: halt s0\n",
}


def diagnostic(src: str):
    try:
        assemble(src)
    except AsmError as e:
        return [e.line, e.col, e.message]
    return None


def _golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_asm_error_matches_golden(name):
    assert diagnostic(CASES[name]) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    doc = {name: diagnostic(src) for name, src in CASES.items()}
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(doc.items())) + "\n}\n")
