"""The repository's tools: ``tools/code_lines.py`` counts code lines, and
``tools/bench_pairs.py`` reports paired benchmark runs."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
bench_pairs = load_tool("bench_pairs")

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


def test_pair_report_counts_wins_by_each_metrics_direction(monkeypatch,
                                                           capsys):
    # fixed runs, no subprocess: wall_s is better lower, score (declared
    # here) better higher; pair 1 ties on both and counts for neither
    monkeypatch.setitem(bench_pairs.BENCHMARK, "end_to_end", [
        {"name": "wall_s", "better": "lower"},
        {"name": "score", "better": "higher"}])
    values = {"parent": [(1.0, 5), (2.0, 5), (3.0, 5), (4.0, 5)],
              "change": [(0.5, 6), (2.0, 5), (3.5, 4), (3.0, 7)]}
    runs = {side: [({"wall_s": wall, "score": score}, {})
                   for wall, score in pairs]
            for side, pairs in values.items()}
    bench_pairs.report(runs, show_jobs=False)
    assert capsys.readouterr().out.splitlines() == [
        "wall_s:",
        "  pair 0: parent 1  change 0.5",
        "  pair 1: parent 2  change 2",
        "  pair 2: parent 3  change 3.5",
        "  pair 3: parent 4  change 3",
        "  parent median 2.5  quartiles 1.25 .. 3.75",
        "  change median 2.5  quartiles 0.875 .. 3.375",
        "  change better in 2 of 4 pairs",
        "score:",
        "  pair 0: parent 5  change 6",
        "  pair 1: parent 5  change 5",
        "  pair 2: parent 5  change 4",
        "  pair 3: parent 5  change 7",
        "  parent median 5  quartiles 5 .. 5",
        "  change median 5.5  quartiles 4.25 .. 6.75",
        "  change better in 2 of 4 pairs",
    ]
