"""The narrative demos run to completion against the package in ``src/``
and print their golden output, and the README's library tour runs."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 3


def run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    # every demo is deterministic, so its stdout is pinned byte for byte
    golden = ROOT / "tests" / "golden" / f"demo_{demo.name[:2]}.txt"
    assert proc.stdout == golden.read_text()


def test_classical_demo_finds_product_equal_to_sum():
    proc = run_demo(ROOT / "demos" / "01_classical_identities.py")
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith("product == sum below 15:")]
    assert lines == ["product == sum below 15: True"], proc.stdout


def test_readme_library_tour_runs():
    # the README's first python block, run as written; its two commented
    # results are asserted here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(tour, names)
    assert names["eta"].equal_up_to(names["product"], 50) is True
    assert names["report"].constant == Fraction(7, 256)
