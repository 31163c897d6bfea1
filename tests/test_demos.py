"""The demos run to completion as scripts (demo 01, the gradient check
over many random batches, is left to be run by hand)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "02_loss_stack_walkthrough.py",
    "03_augmentation_gallery.py",
    "04_synthetic_corpus.py",
    "05_ssl_training.py",
    "06_late_fusion.py",
])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
