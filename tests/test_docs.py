"""Every contract document that the source names exists."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_docs_named_in_src_exist():
    named = {name for path in (ROOT / "src").rglob("*.py")
             for name in re.findall(r"docs/[\w.-]+\.md", path.read_text())}
    assert named
    assert sorted(n for n in named if not (ROOT / n).is_file()) == []


def test_isa_opcode_table_matches_code():
    """Each row of the opcode table in docs/isa.md gives the opcode, byte,
    unit and operand forms that isa.OPCODES gives."""
    from xshark.isa import FORMS
    text = (ROOT / "docs" / "isa.md").read_text()
    rows = {}
    for line in text[text.index("## Opcodes"):].splitlines()[4:]:
        if not line.startswith("|"):
            break
        name, byte, unit, operands = (c.strip() for c in line.split("|")[1:5])
        rows[name] = (int(byte, 16), unit, operands)
    assert rows == {op.name: (op.value, forms[0].unit.value,
                              " or ".join("`" + ", ".join(n for n, _ in f.operands) + "`"
                                          for f in forms if f.operands))
                    for op, forms in FORMS.items()}


def test_event_kinds_table_matches_code():
    """Each row of the event-kinds table in docs/events.md gives the
    required fields (before the parentheses) and the optional ones (inside
    them) that sim.EVENT_FIELDS gives its kinds."""
    from xshark.sim import EVENT_FIELDS
    text = (ROOT / "docs" / "events.md").read_text()
    rows = {}
    for line in text[text.index("## Event kinds"):].splitlines()[4:]:
        if not line.startswith("|"):
            break
        kinds, payload = line.split("|")[1:3]
        required, _, optional = payload.partition("(+")
        fields = tuple(sorted(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", part))))
                       for part in (required, optional))
        for kind in re.findall(r"`(\w+)`", kinds):
            rows[kind] = fields
    assert rows == {kind: (sorted(req.split()), sorted(opt.split()))
                    for kind, (req, opt) in EVENT_FIELDS.items()}


def test_cli_codes_are_documented():
    """docs/cli.md has one table row per `code:` the CLI can print: its own
    codes, the trace reader's and every Fault kind in upper case."""
    src = ROOT / "src" / "xshark"
    cli = (src / "cli.py").read_text()
    codes = set(re.findall(r'CliError\("([A-Z_]+)"', cli))
    codes |= set(re.findall(r"code:([A-Z_]+)", cli))
    codes |= set(re.findall(r'TraceError\("([A-Z_]+)"',
                            (src / "recorder.py").read_text()))
    codes |= {kind.upper() for path in src.rglob("*.py")
              for kind in re.findall(r'Fault\("([a-z_]+)"', path.read_text())}
    assert {"USAGE", "ANALYSIS_ERROR", "TRACE_FORMAT", "DMA_BUSY"} <= codes
    doc = (ROOT / "docs" / "cli.md").read_text()
    rows = set(re.findall(r"^\| `([A-Z_]+)` \| [12] \|", doc, re.MULTILINE))
    assert sorted(codes - rows) == []
    assert sorted(rows - codes) == []
