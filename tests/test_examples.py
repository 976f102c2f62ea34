"""The example scripts run end to end (each prints its walkthrough)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("script", ["quickstart.py", "lm_walkthrough.py"])
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert "query" in capsys.readouterr().out
