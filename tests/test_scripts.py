"""The experiment scripts print exactly what their golden files recorded."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["curve_report", "reproduce_saturations"])
def test_script_output_matches_golden_file(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")], capture_output=True, check=True
    )
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{name}.txt").read_bytes()
