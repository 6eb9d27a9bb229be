"""Each example script under scripts/ runs to completion."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("run_*.py"))


def test_the_example_scripts_are_found():
    assert [s.name for s in SCRIPTS] == [
        "run_cardio_demo.py", "run_heart_stop.py", "run_waterfall_variants.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_script_runs_without_a_traceback(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout
