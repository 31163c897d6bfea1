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
