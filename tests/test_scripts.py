"""The scripts run end to end, not only import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def test_survey_script_passes_on_a_small_family():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "survey_reciprocity.py"), "--count", "24"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout
