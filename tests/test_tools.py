"""The scripts under ``tools/`` run against the package as it stands."""

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
