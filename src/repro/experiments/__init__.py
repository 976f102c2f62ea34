"""Experiment harness — one module per reproduced figure/claim.

See DESIGN.md Section 3 for the experiment index.  Each module exposes
``run(quick=True, ...) -> ExperimentResult``; ``repro experiment`` and
:func:`repro.analysis.report.generate_report` run it and print the
table.  EXP-T3, T4, T5, T6, T10, A1, A2 and A5 read their runs from one
grid, :mod:`repro.experiments.study`.
"""

import inspect

from repro.experiments import (
    e_a1_election_mode,
    e_a2_level_mode,
    e_a3_failures,
    e_a4_staleness,
    e_a5_persistent_ids,
    e_a6_query_staleness,
    e_a7_state_stretch,
    e_a8_magic_number,
    e_a9_end_to_end,
    e_a10_lossy_control,
    e_a11_chaos,
    e_f1_hierarchy,
    e_f2_gls_grid,
    e_f3_alca_states,
    e_s1_scaling,
    e_t1_link_freq,
    e_t2_hopcount,
    e_t3_migration_freq,
    e_t4_migration_handoff,
    e_t5_reorg_handoff,
    e_t6_cluster_link_freq,
    e_t7_load_balance,
    e_t8_gls_vs_chlm,
    e_t9_table_size,
    e_t10_overhead_budget,
)
from repro.experiments.common import ExperimentResult

ALL_EXPERIMENTS = {
    "EXP-F1": e_f1_hierarchy.run,
    "EXP-F2": e_f2_gls_grid.run,
    "EXP-F3": e_f3_alca_states.run,
    "EXP-T1": e_t1_link_freq.run,
    "EXP-T2": e_t2_hopcount.run,
    "EXP-T3": e_t3_migration_freq.run,
    "EXP-T4": e_t4_migration_handoff.run,
    "EXP-T5": e_t5_reorg_handoff.run,
    "EXP-T6": e_t6_cluster_link_freq.run,
    "EXP-T7": e_t7_load_balance.run,
    "EXP-T8": e_t8_gls_vs_chlm.run,
    "EXP-T9": e_t9_table_size.run,
    "EXP-T10": e_t10_overhead_budget.run,
    "EXP-A1": e_a1_election_mode.run,
    "EXP-A2": e_a2_level_mode.run,
    "EXP-A3": e_a3_failures.run,
    "EXP-A4": e_a4_staleness.run,
    "EXP-A5": e_a5_persistent_ids.run,
    "EXP-A6": e_a6_query_staleness.run,
    "EXP-A7": e_a7_state_stretch.run,
    "EXP-A8": e_a8_magic_number.run,
    "EXP-A9": e_a9_end_to_end.run,
    "EXP-A10": e_a10_lossy_control.run,
    "EXP-A11": e_a11_chaos.run,
    "EXP-S1": e_s1_scaling.run,
}


def run_experiment(exp_id: str, quick: bool = True,
                   seeds=None) -> ExperimentResult:
    """Run catalogue experiment ``exp_id`` on its quick or wide grid.

    ``seeds`` reaches only an experiment whose ``run`` takes a
    ``seeds`` parameter; the figure experiments draw one fixed instance
    and run without it.  The choice is read from the signature, so an
    error raised inside the experiment always propagates.
    """
    fn = ALL_EXPERIMENTS[exp_id]
    if seeds is not None and "seeds" in inspect.signature(fn).parameters:
        return fn(quick=quick, seeds=tuple(seeds))
    return fn(quick=quick)


__all__ = ["ExperimentResult", "ALL_EXPERIMENTS", "run_experiment"]
