"""The README's Library section names only APIs that exist, and its snippet
runs; its command line block lists exactly the parser's options."""

import argparse
import importlib
import re
from pathlib import Path

from ernn.cli import build_parser

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


def _command_lines():
    """Each subcommand's line of the README's command block, comment dropped."""
    text = README.read_text(encoding="utf-8")
    block = text.split("The subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    return {line.split()[1]: line.split("#", 1)[0] for line in block.splitlines()}


def test_command_block_lists_the_parser_options():
    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    lines = _command_lines()
    assert set(lines) == set(subs.choices)
    for name, sub in subs.choices.items():
        documented = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", lines[name]))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction) or not action.option_strings:
                continue
            # either spelling, -o or --output, documents the option
            spelled = documented & set(action.option_strings)
            assert spelled, f"README omits {name} {action.option_strings[-1]}"
            documented -= spelled
        assert not documented, f"README lists {name} {sorted(documented)}, which it lacks"
