"""The benchmark's import surface: every name perfbench/*.py takes from
xshark resolves, and every cli step function its tracer wraps exists. The
benchmark files are parsed, not imported."""

import ast
import importlib
import pathlib

from xshark import cli

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


def test_cli_callees_are_attributes_of_cli():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    [callees] = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CLI_CALLEES" for t in node.targets)]
    names = [ast.literal_eval(key) for key in callees.keys]
    assert names
    assert [n for n in names if not hasattr(cli, n)] == []
