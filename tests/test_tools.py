"""The repository's tools: ``tools/code_lines.py`` counts code lines."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")

# docstrings of the module, a class, a function and an async function,
# comments, blank lines, a statement over two lines and a string over two
# lines that is no docstring: 10 code lines
SOURCE = '''\
"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


class Thing:
    """Class docstring."""

    size = (1 +
            2)

    def method(self):
        """Function docstring
        over two lines.
        """
        # a comment inside
        return os.sep


async def fetch():
    """Async docstring."""
    text = """not a docstring:
over two lines"""
    return text
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines.code_lines(path) == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n',
                                           encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    10 {tmp_path / 'a.py'}",
        f"     1 {tmp_path / 'pkg' / 'b.py'}",
        "    11 total",
    ]
