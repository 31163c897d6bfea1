"""The scripts under ``tools/`` run against the package as it stands."""

import ast
import re
import subprocess
import sys
from pathlib import Path

from semimatch.trainer import METHODS

ROOT = Path(__file__).resolve().parent.parent


def test_step_bench_reports_every_cell():
    """``tools/step_bench.py`` times ``trainer.train_step`` and prints one row
    per method and modality. It sets the BLAS thread variables at import, so
    it runs in a process of its own."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_bench.py"), "--repeats", "1", "--steps", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines() if " width " in line]
    assert rows == [[method, modality] for modality in ("signal", "tokens") for method in METHODS]


def test_setup_bench_reports_every_phase():
    """``tools/setup_bench.py`` runs each set-up in a fresh process and
    prints one row per modality and phase, whose high-water mark never falls."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "setup_bench.py"), "--repeats", "1",
         "--unlabelled", "20"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    phases = ["import", "synthesize_corpus", "save_corpus", "load_corpus"]
    rows = [line.split() for line in proc.stdout.splitlines()]
    rows = [row for row in rows if len(row) == 4 and row[1] in phases]
    assert [row[:2] for row in rows] == [
        [modality, phase] for modality in ("signal", "tokens") for phase in phases]
    for first in (0, 4):
        high_water = [float(row[3]) for row in rows[first:first + 4]]
        assert high_water == sorted(high_water) and high_water[0] > 0


def test_untested_raises_counts_every_raise():
    """``tools/untested_raises.py`` traces a pytest run in its own process and
    counts every ``raise`` of the package; the raise in ``errors.require``,
    which the range-check tests reach, is not listed."""
    package = ROOT / "src" / "semimatch"
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    total = sum(isinstance(node, ast.Raise) for tree in trees.values() for node in ast.walk(tree))
    require = next(node for node in ast.walk(trees[package / "errors.py"])
                   if isinstance(node, ast.FunctionDef) and node.name == "require")
    require_raise = next(node for node in ast.walk(require) if isinstance(node, ast.Raise))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "untested_raises.py"), "-p", "no:cacheprovider",
         "tests/test_errors.py"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(rf"\d+ of {total} raise statements not reached by a test", lines[-1])
    assert f"src/semimatch/errors.py:{require_raise.lineno}: " not in proc.stdout
    assert any(line.startswith("src/semimatch/cli.py:") for line in lines)
