"""The README's Library section names only APIs that exist, and its snippet runs."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_snippet_runs():
    (snippet,) = re.findall(r"```python\n(.*?)```", _library_section(), re.S)
    exec(compile(snippet, str(README), "exec"), {})


def test_library_names_resolve():
    names = re.findall(r"`(ernn(?:\.\w+)+)`", _library_section())
    assert names
    for name in names:
        module, _, attr = name.rpartition(".")
        try:
            importlib.import_module(name)
        except ModuleNotFoundError:
            assert hasattr(importlib.import_module(module), attr), name
