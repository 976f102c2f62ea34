"""Tests for the experiment result container and the catalogue."""

import pytest

from repro.experiments import ExperimentResult


@pytest.fixture
def result():
    r = ExperimentResult(
        exp_id="EXP-X", title="demo", columns=["n", "value"]
    )
    r.add_row(100, 1.2345)
    r.add_row(200, 0.0001234)
    r.add_note("a note")
    return r


class TestExperimentResult:
    def test_row_arity_checked(self, result):
        with pytest.raises(ValueError):
            result.add_row(1, 2, 3)

    def test_to_text_contains_everything(self, result):
        text = result.to_text()
        assert "EXP-X" in text
        assert "demo" in text
        assert "100" in text
        assert "a note" in text

    def test_alignment(self, result):
        lines = result.to_text().splitlines()
        header = lines[1]
        assert header.startswith("n")
        # All data lines at least as wide as their content columns.
        assert len(lines) >= 5

    def test_small_floats_compact(self, result):
        text = result.to_text()
        assert "0.000123" in text  # 3 significant digits

    def test_empty_table_renders(self):
        r = ExperimentResult(exp_id="E", title="t", columns=["a"])
        text = r.to_text()
        assert "a" in text


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import ALL_EXPERIMENTS

        expected = (
            {f"EXP-F{i}" for i in range(1, 4)}
            | {f"EXP-T{i}" for i in range(1, 11)}
            | {f"EXP-A{i}" for i in range(1, 12)}
            | {"EXP-S1"}
        )
        assert set(ALL_EXPERIMENTS) == expected
        assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())


class TestRunExperiment:
    """The CLI and the report runner both go through
    :func:`repro.experiments.run_experiment`, which decides from the
    signature whether a run takes seeds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """EXP-T1 replaced by a stub whose body raises ``TypeError`` on
        any seeds but its defaults."""
        from repro.experiments import ALL_EXPERIMENTS

        calls = []

        def run(quick=True, seeds=(0, 1)):
            calls.append(tuple(seeds))
            if tuple(seeds) != (0, 1):
                raise TypeError("a bug inside the experiment")
            return ExperimentResult(exp_id="EXP-T1", title="stub",
                                    columns=["a"])

        monkeypatch.setitem(ALL_EXPERIMENTS, "EXP-T1", run)
        return calls

    def test_cli_propagates_an_experiments_type_error(self, calls):
        from repro.cli import main

        with pytest.raises(TypeError, match="inside the experiment"):
            main(["experiment", "EXP-T1", "--seeds", "3,4"])
        assert calls == [(3, 4)]  # never silently rerun on the defaults

    def test_report_propagates_an_experiments_type_error(self, calls):
        from repro.analysis import generate_report

        with pytest.raises(TypeError, match="inside the experiment"):
            generate_report(exp_ids=["EXP-T1"], seeds=(3, 4))
        assert calls == [(3, 4)]

    def test_seeds_reach_a_seeded_run(self, calls):
        from repro.experiments import run_experiment

        run_experiment("EXP-T1", seeds=(0, 1))
        run_experiment("EXP-T1")
        assert calls == [(0, 1), (0, 1)]

    def test_figure_experiment_runs_without_seeds(self, capsys):
        """EXP-F1's run takes no seeds; ``--seeds`` is not forwarded."""
        from repro.cli import main

        assert main(["experiment", "EXP-F1", "--seeds", "0"]) == 0
        assert "EXP-F1" in capsys.readouterr().out
