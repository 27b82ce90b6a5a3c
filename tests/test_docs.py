"""Every contract document that the source names exists, and every name
the source defines or imports is used."""

import ast
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


def test_event_field_table_matches_the_checker():
    """The table of field values under "Malformed logs" in docs/events.md
    gives each field the JSON type that sim._FIELD_TYPES gives it, and its
    string fields with listed values are those of sim._FIELD_VALUES, with
    the same members (`s0`-`s31` lists s0 to s31)."""
    from xshark.sim import _FIELD_TYPES, _FIELD_VALUES
    text = (ROOT / "docs" / "events.md").read_text()
    json_types = {"integer": int, "string": str, "boolean": bool, "object": dict}
    types, members = {}, {}
    for line in text[text.index("| fields | type | values |"):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        names, kind, values = (c.strip() for c in line.split("|")[1:4])
        listed = set()
        for prefix, lo, hi in re.findall(r"`([a-z])(\d+)`-`\1(\d+)`", values):
            listed |= {f"{prefix}{i}" for i in range(int(lo), int(hi) + 1)}
        listed |= set(re.findall(r"`([^`]+)`", re.sub(r"`\w+`-`\w+`", "", values)))
        for name in re.findall(r"`(\w+)`", names):
            types[name] = json_types[kind]
            if kind == "string" and listed:
                members[name] = listed
    assert types == _FIELD_TYPES
    assert members == {name: set(values) for name, values in _FIELD_VALUES.items()}


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


def test_every_cli_error_code_is_expected_by_a_test():
    """Each `CliError("<CODE>", ...)` in cli.py, and each `code:<CODE>` that
    `main` prints, is the expected code of a case of test_cli.MALFORMED_INPUTS
    or of a test that asserts it is the only `code:` line a command printed."""
    from test_cli import MALFORMED_INPUTS
    cli = (ROOT / "src" / "xshark" / "cli.py").read_text()
    raised = set(re.findall(r'CliError\("([A-Z_]+)"', cli))
    assert {"CONFIG_NOT_FOUND", "NO_SUGGESTIONS", "VERIFY_FAILED"} <= raised
    printed = set(re.findall(r"code:([A-Z_]+) ", cli[cli.index("\ndef main("):]))
    assert {"IO_ERROR", "REPLAY_DIVERGENCE", "ANALYSIS_ERROR"} <= printed
    raised |= printed
    expected = {want for _, _, want, _ in MALFORMED_INPUTS.values()}
    expected |= {code for path in (ROOT / "tests").glob("test_*.py")
                 for code in re.findall(r'== \["code:([A-Z_]+)"\]', path.read_text())}
    assert sorted(raised - expected) == []


def _src_definitions() -> list:
    """The names src/ defines, once per definition: each function, class
    and method, each module-level name and each upper-case class constant."""
    defined = []

    def visit(body, module):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, False)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(n.id for target in targets for n in ast.walk(target)
                               if isinstance(n, ast.Name)
                               and (module or n.id.isupper()))

    for path in (ROOT / "src").rglob("*.py"):
        visit(ast.parse(path.read_text()).body, True)
    return defined


def _unused(names, defined, folders) -> list:
    """The `names` that the .py and .md files under `folders` name no more
    often than src/ defines them."""
    texts = [path.read_text() for folder in folders
             for path in (ROOT / folder).rglob("*") if path.suffix in (".py", ".md")]
    return sorted(name for name in names
                  if sum(len(re.findall(rf"\b{name}\b", text)) for text in texts)
                  <= defined.count(name))


def test_every_public_name_in_src_is_used():
    """Each public function, class, method, module-level name and upper-case
    class constant that src/ defines is named somewhere in src/, perfbench/
    or docs/ besides its definition: a helper only tests call belongs in
    tests/helpers.py."""
    defined = _src_definitions()
    public = {name for name in defined if not name.startswith("_")}
    assert {"Simulator", "run_to", "static_io", "MEM_OPCODES",
            "DebugSession"} <= public
    assert _unused(public, defined, ("src", "perfbench", "docs")) == []


def test_every_private_name_in_src_is_used():
    """Each private function, class, method, module-level name and
    upper-case class constant (one `_`, not a dunder) that src/ defines is
    named somewhere in src/ or perfbench/ besides its definition, so a
    deletion leaves no private helper behind."""
    defined = _src_definitions()
    private = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert {"_execute", "_advance_engine", "_HANDLERS", "_write_json"} <= private
    assert _unused(private, defined, ("src", "perfbench")) == []


def test_every_import_in_src_is_used():
    """Each name a src/ module other than an `__init__.py` imports is read
    in that module."""
    unused = []
    for path in (ROOT / "src").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in imported - read]
    assert sorted(unused) == []


def test_every_cli_option_is_documented():
    """Each option of each subcommand in cli.COMMANDS, and the global
    `--config` and `--version`, is named by one of its flags in docs/*.md."""
    from xshark.cli import COMMANDS
    docs = "\n".join(path.read_text() for path in (ROOT / "docs").glob("*.md"))
    options = [flags for _, _, _, arglist in COMMANDS for flags, _ in arglist
               if flags[0].startswith("-")] + [["--config"], ["--version"]]
    assert ["--binary"] in options and ["-o", "--output"] in options
    assert [flags for flags in options
            if not any(re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", docs)
                       for flag in flags)] == []
