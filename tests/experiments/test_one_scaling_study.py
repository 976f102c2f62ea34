"""The scaling study: one grid, each cell simulated once per process."""

import pickle

import pytest

from repro.experiments import ALL_EXPERIMENTS, study
from repro.sim import Simulator, scenario_key

SCALING = ("EXP-T3", "EXP-T4", "EXP-T5", "EXP-T6", "EXP-T10", "EXP-A1",
           "EXP-A2", "EXP-A5")


@pytest.fixture
def simulated(monkeypatch) -> list[str]:
    """The scenario key of every simulator built during the test, which
    runs in-process and without the on-disk cache."""
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
    keys: list[str] = []
    init = Simulator.__init__

    def counted(self, scenario, *args, **kwargs):
        keys.append(scenario_key(scenario))
        init(self, scenario, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counted)
    return keys


def test_eight_quick_tables_simulate_each_cell_once(simulated):
    """Memoryless n = 100 … 1 600 plus sticky at 200 and 400,
    contraction at 800 and persistent at every n, two seeds each: 26
    runs, where eight hand-built sweeps made 64.  A second pass runs
    nothing and leaves every shared result as it was.  The count starts
    from an empty study; the results it leaves serve the goldens after
    it."""
    study._DONE.clear()
    for exp_id in SCALING:
        ALL_EXPERIMENTS[exp_id](quick=True, seeds=(0, 1))
    assert len(simulated) == 26
    assert len(set(simulated)) == 26
    held = {key: pickle.dumps(res) for key, res in study._DONE.items()}
    for exp_id in SCALING:
        ALL_EXPERIMENTS[exp_id](quick=True, seeds=(0, 1))
    assert len(simulated) == 26
    assert {key: pickle.dumps(res) for key, res in study._DONE.items()} == held


def test_runs_come_in_seed_order_and_are_kept(simulated):
    first = study.runs("sticky", (100,), True, (3, 2))
    assert [(res.scenario.n, res.scenario.seed) for res in first] == [
        (100, 3), (100, 2)]
    assert {res.scenario.election_mode for res in first} == {"sticky"}
    again = study.runs("sticky", (100,), True, (2,))
    assert again[0] is first[1]
    assert len(simulated) == 2
