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
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "score", "better": "higher", "bound": 0.15}])
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
        "  medians change by +0.00%: within the bound of 25%",
        "  gain rule fails: better in 2 of 4 (needs 4), median gain 0 vs "
        "parent quartile spread 2.5",
        "score:",
        "  pair 0: parent 5  change 6",
        "  pair 1: parent 5  change 5",
        "  pair 2: parent 5  change 4",
        "  pair 3: parent 5  change 7",
        "  parent median 5  quartiles 5 .. 5",
        "  change median 5.5  quartiles 4.25 .. 6.75",
        "  change better in 2 of 4 pairs",
        "  medians change by +10.00%: within the bound of 15%",
        "  gain rule fails: better in 2 of 4 (needs 4), median gain 0.5 vs "
        "parent quartile spread 0",
    ]
    # ten pairs: wall_s 30% worse, out of its bound; score better in 9 of
    # 10 by more than the parent's quartile spread, so its gain rule holds
    walls = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]
    scores = [5.0, 5.2, 5.1, 5.0, 5.2, 5.1, 5.0, 5.2, 5.1, 5.1]
    runs = {"parent": [({"wall_s": w, "score": s}, {})
                       for w, s in zip(walls, scores)],
            "change": [({"wall_s": 1.3 * w, "score": s + 0.5}, {})
                       for w, s in zip(walls, scores)]}
    runs["change"][0][0]["score"] = 4.0
    bench_pairs.report(runs, show_jobs=False)
    assert [line for line in capsys.readouterr().out.splitlines()
            if "bound" in line or "gain rule" in line] == [
        "  medians change by +30.00%: out of the bound of 25%",
        "  gain rule fails: better in 0 of 10 (needs 9), median gain -0.33 "
        "vs parent quartile spread 0.2",
        "  medians change by +9.80%: within the bound of 15%",
        "  gain rule holds: better in 9 of 10 (needs 9), median gain 0.5 vs "
        "parent quartile spread 0.2",
    ]
