"""Every contract document that the source names exists."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_docs_named_in_src_exist():
    named = {name for path in (ROOT / "src").rglob("*.py")
             for name in re.findall(r"docs/[\w.-]+\.md", path.read_text())}
    assert named
    assert sorted(n for n in named if not (ROOT / n).is_file()) == []
