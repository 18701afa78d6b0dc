"""Smoke test: the quick demo scripts run to completion against the library.

Demo 03 trains a model for about 18 s and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*argv) -> str:
    """The stdout of ``python argv...`` run from the repository root."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", ["01_routing_basics.py",
                                    "02_attribute_alignment.py",
                                    "04_gradcheck_and_ablation.py"])
def test_demo_runs(script):
    stdout = run(str(ROOT / "demos" / script))
    if script.startswith("04"):
        # demo 04 opens with the report `hrt gradcheck` prints at its defaults
        assert stdout.startswith(run("-m", "hrt.cli", "gradcheck",
                                     "--seed", "0"))
