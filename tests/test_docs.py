"""Documentation executability: the tutorial's Python snippets must run.

Parses ``docs/TUTORIAL.md``, concatenates its python code fences, and
executes them in one namespace — so the tutorial can never drift from
the API.
"""

import re
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestTutorial:
    def test_tutorial_exists(self):
        assert (DOCS / "TUTORIAL.md").exists()

    def test_python_snippets_execute(self):
        blocks = python_blocks(DOCS / "TUTORIAL.md")
        assert len(blocks) >= 5
        namespace: dict = {}
        for i, block in enumerate(blocks):
            # Shrink the expensive steps so the doc test stays fast.
            block = block.replace("steps=60", "steps=8")
            block = block.replace("steps=40", "steps=6")
            block = block.replace("[100, 200, 400, 800]", "[100, 200, 400]")
            try:
                exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - failure detail
                pytest.fail(f"tutorial block {i} failed: {exc}\n{block}")

    def test_mentions_core_documents(self):
        text = (DOCS / "TUTORIAL.md").read_text()
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "PAPER_MAP.md"):
            assert doc in text


class TestPaperMap:
    def test_exists_and_covers_sections(self):
        text = (DOCS / "PAPER_MAP.md").read_text()
        for section in ("Section 1.1", "Section 2", "Section 3",
                        "Section 4", "Section 5", "Section 6"):
            assert section in text

    def test_referenced_symbols_importable(self):
        """Spot-check that code references in the map resolve."""
        import repro.analysis
        import repro.clustering
        import repro.core
        import repro.gls
        import repro.radio

        for symbol in ("recursion_quantities", "StateTracker"):
            assert hasattr(repro.clustering, symbol)
        for symbol in ("rendezvous_choice", "lm_levels", "resolve"):
            assert hasattr(repro.core, symbol)
        assert hasattr(repro.radio, "gupta_kumar_radius")
        assert hasattr(repro.gls, "GridHierarchy")


class TestObservability:
    def test_phase_table_lists_exactly_the_timer_phases(self):
        """The documented phase table is `repro.obs.timers.PHASES`, in
        pipeline order (it once silently omitted `delta`)."""
        from repro.obs.timers import PHASES

        text = (DOCS / "OBSERVABILITY.md").read_text()
        table = text[text.index("| phase | covers |"):]
        table = table[:table.index("\n\n")]
        documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
        assert tuple(documented) == PHASES
