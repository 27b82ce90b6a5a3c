"""The benchmark's import surface: every name perfbench/*.py takes from
xshark resolves, and every cli step function its tracer wraps exists and is
what the steps call. The benchmark files are parsed, not imported."""

import ast
import contextlib
import importlib
import io
import pathlib

from xshark import cli
from xshark.workloads import gen_starvation_kernel

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _xshark_imports():
    """(file, module, name) for each `from xshark... import name` and
    (file, module, None) for each `import xshark...` in perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "xshark"):
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names
                            if a.name.split(".")[0] == "xshark")


def _resolves(module, name) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")     # a submodule
        return True
    except ImportError:
        return False


def test_perfbench_imports_from_xshark_resolve():
    imports = list(_xshark_imports())
    assert imports
    assert [i for i in imports if not _resolves(*i[1:])] == []


def _cli_callees():
    """The keys of perfbench/tracing.py's CLI_CALLEES: the names of
    xshark.cli its tracer wraps."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    [callees] = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CLI_CALLEES" for t in node.targets)]
    return [ast.literal_eval(key) for key in callees.keys]


def test_cli_callees_are_attributes_of_cli():
    names = _cli_callees()
    assert names
    assert [n for n in names if not hasattr(cli, n)] == []


def test_cli_library_names_are_the_library_objects():
    assert cli._LIBRARY["Breakpoint"] == ("sim", "Breakpoint")
    for name, (module, attr) in cli._LIBRARY.items():
        want = getattr(importlib.import_module(f"xshark.{module}"), attr)
        assert getattr(cli, name) is want, name


def test_the_steps_call_the_callees_perfbench_wraps(tmp_path, monkeypatch):
    """The eight steps, run through `cli.main` in this process, call every
    name perfbench's tracer wraps through the object it put on xshark.cli:
    a step that held a library object bound before the wrapping would leave
    its counter at 0."""
    (tmp_path / "k.xasm").write_text(gen_starvation_kernel(tiles=12,
                                                           prefetch_depth=1))
    calls = dict.fromkeys(_cli_callees(), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    steps = [
        ["asm", "k.xasm", "-o", "k.bundle"],
        ["run", "k.bundle"],
        ["record", "k.bundle", "--break", "0", "--count", "100000",
         "-o", "k.trace"],
        ["replay", "k.trace", "-o", "replay.jsonl"],
        ["analyze", "replay.jsonl", "--program", "k.bundle", "-o", "report"],
        ["suggest", "k.trace", "replay.jsonl", "-o", "suggestions.json"],
        ["apply", "k.trace", "suggestions.json", "-o", "applied.jsonl"],
        ["compare", "replay.jsonl", "applied.jsonl"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in steps]
    assert codes == [0] * len(steps)
    assert calls and [n for n, c in calls.items() if c < 1] == []
