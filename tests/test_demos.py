"""The narrative demos run to completion against the package in ``src/``
and print their golden output, and the README's library tour runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qetakit

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


#: Names that left the package: none may be reached or shown again.
REMOVED_NAMES = (
    "_inverse_numerators", "wronskian_entry_precision", "chi_d",
    "lattice_exponent", "macdonald_rhs", "general_rhs",
    "characters_for_wronskian", "wronskian_of_characters", "IDENTITY_NAMES",
    "rat_floor", "_over_common_denominator", "_resolve_output",
    "default_manifest_text", "character_product_2k1", "strange_sum_2k1",
    "chi_support", "_chi_signs", "_integer_count")


def test_removed_names_stay_removed():
    modules = [qetakit] + [
        importlib.import_module(f"qetakit.{info.name}")
        for info in pkgutil.iter_modules(qetakit.__path__)]
    assert [(module.__name__, name) for module in modules
            for name in REMOVED_NAMES if hasattr(module, name)] == []
    pattern = re.compile(r"\b(?:" + "|".join(REMOVED_NAMES) + r")\b")
    shown = DEMOS + sorted((ROOT / "tests" / "golden").glob("demo_*.txt"))
    assert [(path.name, found) for path in shown
            for found in pattern.findall(path.read_text())] == []


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
