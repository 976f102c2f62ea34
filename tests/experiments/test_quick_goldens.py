"""Exact golden tables for the quick experiments no other golden file
pins.

EXP-A3, A4, A8 and A11 sweep a fault, speed or degree axis; EXP-S1
and T1 run size grids; EXP-T2, T7 and A6 meter hops, load and query
staleness; EXP-F1 and F2 draw one fixed instance.  With the scaling,
ledger and routing goldens, every quick table of the catalogue is
pinned, so a change to how the experiments run their grids or average
their seeds must leave every number where it was.  Quick grid, the
CLI's default seeds (0, 1).  EXP-S1's last note is a queries-per-second
timing and is left unpinned.
"""

import pytest

from repro.experiments import run_experiment

A3_ROWS = [
    [0.0, 0.859, 4.33, 5.189, "1.00x", 0.0],
    [0.001, 0.797, 4.174, 4.971, "0.96x", 3.3],
    [0.005, 0.756, 4.301, 5.058, "0.97x", 17.4],
    [0.01, 0.649, 3.962, 4.611, "0.89x", 32.1],
]
A3_NOTES = [
    "Finding: failures reduce phi.  A crashed node sits frozen for the "
    "whole repair window, contributing zero mobility churn, so phi falls "
    "as the frozen fraction (the nodes-down column over n) grows.  gamma "
    "absorbs each crash's burst of forced elections/rejections and moves a "
    "few percent either way, so the total stays below the control or "
    "within a few percent of it, and is not monotone in the rate over two "
    "seeds.  The paper's exclusion of birth/death is therefore "
    "*conservative*: adding rare failures does not break the Theta(log^2 "
    "n) bound.",
]
A4_ROWS = [
    [0.5, 1, 18.2, 0.0549, 9.1],
    [0.5, 2, 17.0, 0.0589, 8.5],
    [0.5, 3, 15.1, 0.0661, 7.6],
    [1.0, 1, 8.8, 0.1134, 8.8],
    [1.0, 2, 8.4, 0.1185, 8.4],
    [1.0, 3, 9.7, 0.103, 9.7],
    [2.0, 1, 4.6, 0.2165, 9.2],
    [2.0, 2, 4.3, 0.2311, 8.7],
    [2.0, 3, 4.9, 0.2023, 9.9],
]
A4_NOTES = [
    "mu=0.5: lifetimes by level ['18', '17', '15']",
    "mu=1.0: lifetimes by level ['9', '8', '10']",
    "mu=2.0: lifetimes by level ['5', '4', '5']",
    "Finding: lifetimes are level-FLAT, not growing ~h_k as pure "
    "boundary-crossing (Eq. 7) would give.  Cause: clusters are named by "
    "head ID (Fig. 1 convention), so a head replacement renames the "
    "component for every member without anyone moving — the same "
    "high-level churn as EXPERIMENTS.md deviation 1.  A cluster-ID "
    "persistence scheme (IDs surviving head handover) would recover the "
    "Theta(sqrt(c_k)) growth; with head-named clusters, feature (c)'s "
    "saving comes from the update *path length*, not frequency.",
    "level 1: lifetime*mu across speeds = 9, 9, 9 (constancy => lifetime = "
    "Theta(delta_k / mu), Eq. 7/8)",
    "level 2: lifetime*mu across speeds = 8, 8, 9 (constancy => lifetime = "
    "Theta(delta_k / mu), Eq. 7/8)",
    "level 3: lifetime*mu across speeds = 8, 10, 10 (constancy => lifetime "
    "= Theta(delta_k / mu), Eq. 7/8)",
]
A6_ROWS = [
    [0.5, 0.895, 0.952, 0.048, 0.0],
    [1.0, 0.768, 0.895, 0.105, 0.0],
    [2.0, 0.59, 0.764, 0.236, 0.0],
    [4.0, 0.453, 0.632, 0.368, 0.0],
]
A6_NOTES = [
    "Reading: 'exact+routable' is the fraction of sessions a one-step lag "
    "cannot break — the operational content of the paper's claim that "
    "query overhead is absorbed into the session.  It should degrade "
    "gracefully (not collapse) as speed rises.",
]
A8_ROWS = [
    [4.0, 0.879, 9.69, 1.139, 3.19, 5.941],
    [6.0, 0.97, 7.18, 1.386, 4.03, 5.48],
    [9.0, 0.983, 5.4, 1.675, 5.16, 5.225],
    [12.0, 0.996, 4.55, 1.903, 6.25, 4.289],
    [16.0, 0.998, 4.11, 2.157, 7.6, 2.712],
]
A8_NOTES = [
    "Reading: below ~6 the giant component crumbles (connectivity fails "
    "before anything else).  Raising the degree buys shorter paths and "
    "slightly cheaper handoff, but every extra link also churns — f_0 "
    "grows ~linearly with degree (|E|/|V| in Eq. 4's numerator) — so total "
    "control traffic per node keeps rising.  The usable band starts right "
    "at the reference's magic number: degree 6-9 is the first regime that "
    "is connected, short-pathed, and not yet churn-dominated.",
]
A11_ROWS = [
    ["control", 282.0, 48.5, 0.0, 0.0, 2.5, "1.000"],
    ["ch-kill", 845.5, 105.0, 4.0, 8.5, 5.5, "1.000"],
    ["partition", 2003.5, 208.0, 0.0, 2.5, 5.5, "1.000"],
    ["burst", 197.0, 37.5, 0.0, 1.0, 12.5, "1.000"],
]
A11_NOTES = [
    "Finding: every fault regime reconverges in finite time once its "
    "episode ends — the hierarchy is self-healing, as the memoryless "
    "re-election argument predicts.  But the *location layer* lags the "
    "hierarchy: partitions strand cross-cut server pointers for the whole "
    "cut (violations track the cut window, not the re-election time), and "
    "bursts stretch the stale-location window far past the loss window "
    "itself.  Read fault rows against the control row: its nonzero count "
    "is the mobility-induced fragmentation baseline, not an injected fault.",
]
F1_ROWS = [
    [0, 100, 381, 1.0, 1.0, 7.62],
    [1, 21, 51, 4.76, 4.76, 4.86],
    [2, 6, 12, 3.5, 16.67, 4.0],
    [3, 1, 0, 6.0, 100.0, 0.0],
]
F1_NOTES = [
    "L = 3 levels of clustering",
    "address(0) = (99, 87, 87, 0)",
    "address(25) = (99, 98, 94, 25)",
    "address(50) = (99, 97, 97, 50)",
    "address(75) = (99, 97, 75, 75)",
    "8 clusterheads are not the max of their own neighborhood (the paper's "
    "'node 68' case): [56, 73, 78, 82, 83]",
]
F2_ROWS = [
    [1, "(4, 5)", "[(4, 4), (5, 4), (5, 5)]", "[82, 130, 137]"],
    [2, "(2, 2)", "[(2, 3), (3, 2), (3, 3)]", "[68, 71, 136]"],
    [3, "(1, 1)", "[(0, 0), (0, 1), (1, 0)]", "[64, 65, 70]"],
]
F2_NOTES = [
    "server load across 252 serving nodes: mean=9.14, max=26",
    "grid: L=4 levels, level-1 side 14.1 m, area side 113.1 m",
    "server density decays with distance: one server per sibling square "
    "per level (features (a)-(b) of Section 3.1)",
]
S1_ROWS = [
    [1000, 5.072, 1.448, 5.128, 0.989],
    [3000, 6.75, 0.328, 6.888, 0.98],
    [10000, 9.251, 0.534, 9.116, 1.015],
]
S1_FIT_NOTE = [
    "fitted c = 0.1075; measured growth over the grid is 1.03x the log^2 "
    "reference's (1.0 = perfect Eq. 6c scaling).",
]
T1_ROWS = [
    [100, 1.8867, 0.0093, 22.58],
    [200, 1.6463, 0.098, 19.704],
    [400, 1.5603, 0.0022, 18.674],
    [800, 1.3962, 0.0237, 16.71],
]
T1_NOTES = [
    "best shape: log; ranking: ['log', 'sqrt', 'linear', 'const']",
    "Eq. (4) check — f_0 = Theta(1) means *no growth* with |V|: max/min = "
    "1.351, trend flat/declining (consistent with O(1)). The mild decline "
    "comes from RWP legs lengthening with the region.",
    "f_0 / mu at n=200 for mu in {0.5, 1, 2}: 1.413, 1.810, 1.875 "
    "(constant => f_0 = Theta(mu/R_tx))",
]
T2_ROWS = [
    [100, 3.327, 0.3327],
    [200, 5.418, 0.3831],
    [400, 7.582, 0.3791],
    [800, 10.98, 0.3882],
]
T2_NOTES = [
    "network h best shape: sqrt (expected: sqrt); ranking: ['sqrt', "
    "'log2', 'log', 'linear']",
    "n=800: level 1: c_k=4.8, h_k=1.18, h_k/sqrt(c_k)=0.540",
    "n=800: level 2: c_k=20.6, h_k=2.41, h_k/sqrt(c_k)=0.531",
    "n=800: level 3: c_k=68.1, h_k=4.25, h_k/sqrt(c_k)=0.515",
    "n=800: level 4: c_k=220.7, h_k=8.13, h_k/sqrt(c_k)=0.547",
    "h_k vs sqrt(c_k) fit: a=0.548, b=-0.094, R^2=0.998 (Eq. 3 predicts a "
    "clean sqrt law)",
]
T7_ROWS = [
    [500, "rendezvous", 3.0, 28.0, 9.33, 3.13, 0.334],
    [500, "naive", 3.0, 206.5, 68.83, 14.1, 0.82],
    [1000, "rendezvous", 4.0, 30.0, 7.5, 3.84, 0.321],
    [1000, "naive", 4.0, 439.5, 109.88, 21.83, 0.844],
]
T7_NOTES = [
    "n=500: naive max-load is 7.4x the rendezvous max-load (the paper's "
    "skew warning, quantified)",
    "n=1000: naive max-load is 14.7x the rendezvous max-load (the paper's "
    "skew warning, quantified)",
]


TABLES = {
    "EXP-A3": (A3_ROWS, A3_NOTES),
    "EXP-A4": (A4_ROWS, A4_NOTES),
    "EXP-A6": (A6_ROWS, A6_NOTES),
    "EXP-A8": (A8_ROWS, A8_NOTES),
    "EXP-A11": (A11_ROWS, A11_NOTES),
    "EXP-F1": (F1_ROWS, F1_NOTES),
    "EXP-F2": (F2_ROWS, F2_NOTES),
    "EXP-S1": (S1_ROWS, S1_FIT_NOTE),
    "EXP-T1": (T1_ROWS, T1_NOTES),
    "EXP-T2": (T2_ROWS, T2_NOTES),
    "EXP-T7": (T7_ROWS, T7_NOTES),
}


@pytest.mark.parametrize("exp_id", TABLES)
def test_quick_table_is_pinned(exp_id):
    rows, notes = TABLES[exp_id]
    result = run_experiment(exp_id, quick=True, seeds=(0, 1))
    assert result.rows == rows
    if exp_id == "EXP-S1":
        # The second note times the batch resolver: pin its shape only.
        probe = result.notes.pop()
        assert probe.startswith("batch query probe at n=10000: ")
        assert probe.endswith(" hit fraction 1.000.")
    assert result.notes == notes
