"""Exact golden tables for the scaling experiments.

EXP-T3, T4, T5, T6, T10, A1, A2 and A5 all meter the same kind of run:
random waypoint at 1 m/s with L = levels_for(n), swept over n.  These
pins hold each quick table's rows and notes at the CLI's default seeds
(0, 1), so a change to how those runs are built, shared or aggregated
must leave every number where it was.
"""

import pytest

from repro.experiments import (
    e_a1_election_mode,
    e_a2_level_mode,
    e_a5_persistent_ids,
    e_t3_migration_freq,
    e_t4_migration_handoff,
    e_t5_reorg_handoff,
    e_t6_cluster_link_freq,
    e_t10_overhead_budget,
)

T3_ROWS = [
    [400, 1, 0.0637, 1.12, 0.0714],
    [400, 2, 0.0527, 2.48, 0.1308],
    [400, 3, 0.0296, 4.65, 0.1374],
    [800, 1, 0.0654, 1.19, 0.0778],
    [800, 2, 0.0555, 2.5, 0.139],
    [800, 3, 0.0329, 4.69, 0.1542],
    [800, 4, 0.0093, 8.87, 0.0827],
]
T3_NOTES = [
    "n=800: f_k vs h_k fit to a/sqrt(h_k): R^2=0.879 (crude; the "
    "sharper check is the flat product below)",
    "f_k * h_k across all levels/sizes: mean=0.1133, max/min=2.16 "
    "(Eq. 9 predicts a level-independent constant)",
    "f_k monotone decay at n=800: [0.0654, 0.0555, 0.0329, 0.0093] (yes)",
]
T4_ROWS = [
    [100, 3, 0.5517, 0.0005, 0.02602],
    [200, 3, 0.7041, 0.0336, 0.02508],
    [400, 3, 0.832, 0.0108, 0.02318],
    [800, 4, 1.3124, 0.0223, 0.02937],
    [1600, 4, 1.3072, 0.0583, 0.02402],
]
T4_NOTES = [
    "AIC best shape: log; ranking: ['log', 'log2', 'sqrt', 'linear']",
    "flatness ranking (CV of phi/g(n); robust to the integer-L "
    "staircase): [('log2', 0.084), ('sqrt', 0.169), ('log', 0.189), "
    "('linear', 0.609)] (paper predicts log2 flattest)",
    "power-law exponent: 0.339 (polylog drifts toward 0; sqrt growth "
    "would give ~0.5, linear ~1)",
    "phi_k at level 2 across n: log-fit R^2=0.31, better shape: log "
    "(paper: O(log n) per level)",
    "phi_k at level 3 across n: log-fit R^2=0.76, better shape: log "
    "(paper: O(log n) per level)",
    "phi_k at level 4 across n: log-fit R^2=0.90, better shape: sqrt "
    "(paper: O(log n) per level)",
    "phi_k at n=1600: k=2: 0.259, k=3: 0.334, k=4: 0.454, k=5: 0.318",
]
T5_ROWS = [
    [100, 3, 2.8289, 0.2379, 0.13339],
    [200, 3, 3.3961, 0.2624, 0.12098],
    [400, 3, 4.3693, 0.0688, 0.12172],
    [800, 4, 7.9363, 0.1098, 0.17761],
    [1600, 4, 7.9468, 0.7447, 0.146],
]
T5_NOTES = [
    "AIC best shape: log2; ranking: ['log2', 'log', 'sqrt', 'linear']",
    "flatness ranking (CV of gamma/g(n); robust to the integer-L "
    "staircase): [('sqrt', 0.137), ('log2', 0.15), ('log', 0.278), "
    "('linear', 0.563)] (paper predicts log2 flattest)",
    "power-law exponent: 0.420 (sqrt would be ~0.5)",
    "event rates at n=1600 by kind (events/node/s): (i) 0.0510, (ii) "
    "0.0488, (iii) 0.0146, (iv) 0.0156, (v) 0.0006, (vi) 0.0006, "
    "(vii) 0.0227",
    "gamma_k at n=1600: k=2: 0.820, k=3: 1.681, k=4: 3.316, k=5: 2.874",
]
T6_ROWS = [
    [1, 5.3, 151.2, 0.9047, 4.79, 0.0526, 0.3378, 0.063, 1.19],
    [2, 22.4, 35.9, 0.1817, 4.06, 0.0383, 0.268, 0.096, 2.5],
    [3, 93.0, 8.8, 0.0345, 3.21, 0.0311, 0.2712, 0.146, 4.69],
    [4, 488.4, 1.8, 0.0013, 0.62, 0.0, 0.2838, 0.0, 8.87],
]
T6_NOTES = [
    "(|E_k|/|V|) * c_k spread over non-degenerate levels: max/min = "
    "1.49 (Eq. 13b predicts a constant ~d_k/2)",
    "drift g'_k * h_k spread: max/min = 2.33 (Eq. 14 / Sec 5.3.1 "
    "predicts a constant)",
    "drift g'_k vs h_k inverse fit R^2 = 0.998",
    "election-churn share of link events per level: 84%, 86%, 89% "
    "(bounded via the Sec 5.3.2 recursion, not Eq. 14)",
]
T10_ROWS = [
    [200, 4.1, 0.493, 8.31, 19.66, 5.05],
    [400, 5.201, 0.662, 7.86, 23.25, 4.43],
    [800, 9.249, 0.943, 9.81, 31.12, 4.21],
]
T10_NOTES = [
    "handoff dominates registration at every size (ratio 7.9x-9.8x), "
    "as the log^2-vs-log budget of Section 6 predicts.",
    "query/session-path column: a small constant means query overhead"
    " is absorbed into the session it precedes (Section 6).",
]
A1_ROWS = [
    [200, "memoryless", 0.704, 3.396, 4.1, 0.1014, 0.0173],
    [200, "sticky", 0.453, 3.6, 4.054, 0.0696, 0.0126],
    [400, "memoryless", 0.832, 4.369, 5.201, 0.1048, 0.0165],
    [400, "sticky", 0.574, 6.695, 7.269, 0.0805, 0.0138],
]
A1_NOTES = [
    "n=200: sticky elections cut cluster-link events by 31% and "
    "change total handoff by +1% relative to memoryless",
    "n=400: sticky elections cut cluster-link events by 23% and "
    "change total handoff by -40% relative to memoryless",
    "Reading: hysteresis removes snapshot noise from head identities "
    "(fewer (i)/(ii) events and less phi), while necessity-driven "
    "reorganization — the component the paper's bound is about — "
    "remains.",
]
A2_ROWS = [
    ["radio", 1, 0.0526, 1.19, 0.063, 7.936],
    ["radio", 2, 0.0383, 2.5, 0.096, 7.936],
    ["radio", 3, 0.0311, 4.69, 0.146, 7.936],
    ["radio", 4, 0.0, 8.87, 0.0, 7.936],
    ["contraction", 1, 0.1598, 1.23, 0.196, 13.44],
    ["contraction", 2, 0.2046, 2.03, 0.416, 13.44],
    ["contraction", 3, 0.2334, 3.2, 0.746, 13.44],
    ["contraction", 4, 0.1364, 5.12, 0.698, 13.44],
]
A2_NOTES = [
    "radio: drift g'_k * h_k spread = 2.33 (1.0 would be the exact "
    "Eq. 14 constancy)",
    "contraction: drift g'_k * h_k spread = 3.80 (1.0 would be the "
    "exact Eq. 14 constancy)",
    "Reading: the radio model keeps g'_k ~ 1/h_k (small spread); "
    "contraction-mode adjacency flickers at high levels, inflating "
    "the spread and gamma — dropping the paper's geometric link "
    "assumption measurably breaks the bound's premise.",
]
A5_ROWS = [
    [100, "memoryless", 0.552, 2.829, 0.1334],
    [200, "memoryless", 0.704, 3.396, 0.121],
    [400, "memoryless", 0.832, 4.369, 0.1217],
    [800, "memoryless", 1.312, 7.936, 0.1776],
    [1600, "memoryless", 1.307, 7.947, 0.146],
    [100, "persistent", 0.278, 1.883, 0.0888],
    [200, "persistent", 0.375, 2.402, 0.0856],
    [400, "persistent", 0.44, 2.635, 0.0734],
    [800, "persistent", 0.67, 4.846, 0.1085],
    [1600, "persistent", 0.673, 5.234, 0.0962],
]
A5_NOTES = [
    "memoryless: gamma flatness CV — log2 0.150 vs sqrt 0.137 (flatter: sqrt)",
    "persistent: gamma flatness CV — log2 0.128 vs sqrt 0.146 (flatter: log2)",
    "gamma reduction from identity persistence per size: 1.50x, "
    "1.41x, 1.66x, 1.64x, 1.52x",
    "Reading: if the persistent rows' gamma/log^2 n column is flat "
    "where the memoryless rows drift up, the EXP-T5 deviation is "
    "causally explained by cluster *renaming*, not by reorganization "
    "itself — and the paper's gamma bound is recoverable with one "
    "protocol change the paper's model abstracts away.",
]


@pytest.mark.parametrize("module,rows,notes", [
    (e_t3_migration_freq, T3_ROWS, T3_NOTES),
    (e_t4_migration_handoff, T4_ROWS, T4_NOTES),
    (e_t5_reorg_handoff, T5_ROWS, T5_NOTES),
    (e_t6_cluster_link_freq, T6_ROWS, T6_NOTES),
    (e_t10_overhead_budget, T10_ROWS, T10_NOTES),
    (e_a1_election_mode, A1_ROWS, A1_NOTES),
    (e_a2_level_mode, A2_ROWS, A2_NOTES),
    (e_a5_persistent_ids, A5_ROWS, A5_NOTES),
], ids=["EXP-T3", "EXP-T4", "EXP-T5", "EXP-T6", "EXP-T10", "EXP-A1",
        "EXP-A2", "EXP-A5"])
def test_quick_table_is_pinned(module, rows, notes):
    result = module.run(quick=True, seeds=(0, 1))
    assert result.rows == rows
    assert result.notes == notes
