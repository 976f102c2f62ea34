"""Every example script runs end to end."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES.glob("*.py"))
# The two walkthroughs that resolve a location query print it.
PRINTS_QUERY = {"quickstart.py", "lm_walkthrough.py"}


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys, monkeypatch, tmp_path):
    """Run as ``python examples/<script>`` with no arguments, from an
    empty working directory (``visualize_network.py`` writes its SVGs
    there)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(EXAMPLES / script)])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if script in PRINTS_QUERY:
        assert "query" in out
