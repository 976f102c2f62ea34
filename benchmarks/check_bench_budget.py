"""Assert the forwarding-fabric kernels stay inside their perf budget.

Reads a pytest-benchmark JSON file (``BENCH_kernels.json`` by default)
and enforces two ratios:

* full fabric construction (``test_bench_forwarding_fabric``) must stay
  within ``FABRIC_BUDGET``x of full CHLM assignment
  (``test_bench_full_assignment``) — before the batched CSR kernels the
  fabric took ~3.7 s; the budget pins the two-orders-of-magnitude win;
* one incremental fabric update (``test_bench_fabric_incremental``)
  must stay within ``INCREMENTAL_BUDGET``x of a simulator step
  (``test_bench_simulator_step``), the tentpole's steady-state target;
* a fully chaotic step (``test_bench_chaos_step``: active crash
  episode + partition cut + per-step invariant checking) must stay
  within ``CHAOS_BUDGET``x of the plain step — fault injection and
  invariant checking must never dominate the simulation itself;
* a server-mode step (``test_bench_service_step``: ~100 open-loop
  requests generated, admitted, resolved on the thread pool, and
  queued) must stay within ``SERVICE_BUDGET``x of the plain step —
  the front-end is an observer and must stay in the same cost class
  as the simulation it observes;
* one steady-state hierarchy patch (``test_bench_hierarchy_incremental``,
  n=400) must stay *under* ``HIERARCHY_BUDGET``x (< 1) of the full
  re-election it replaces (``test_bench_hierarchy_full_rebuild``) —
  the event-driven plane only earns its complexity by being cheaper
  than the rebuild.  Measured ~0.7x at introduction; 0.43-0.66x in 11
  of 14 ``make bench`` runs since the election state became two arrays
  (the numerator moved, 1.29 -> 0.66-1.1 ms; the denominator did not,
  1.75 -> 1.4-2.4 ms), and 0.83x, 0.91x and 1.51x in the other three,
  where an outlier among the numerator's five rounds multiplied its
  mean.  Budget unchanged;
* the vectorized query resolver (``test_bench_batch_query``, 1000
  lookups) must stay under ``BATCH_QUERY_BUDGET``x (<= 0.05, i.e. a
  >= 20x speedup) of the scalar oracle *per query*
  (``test_bench_scalar_query`` runs 100 lookups; the check normalizes
  by the per-benchmark query counts).  Measured ~130x at introduction;
* the shared-memory result transport
  (``test_bench_result_transport_shm``) must stay within
  ``SHM_BUDGET``x of an in-process pickle round-trip on the same
  ~48 MB payload (``test_bench_result_transport_pickle``).  The
  segment path inherently stages two extra copies (worker write-in,
  parent read-out), so ~2x in-process is expected — the budget pins
  that it never grows further; its end-to-end win (skipping the
  executor pipe's chunked transfer) is EXP-S1's job to demonstrate.

Re-anchoring (array-native handoff metering).  Two gates divide by a
benchmark that PR made several times faster, so their ratios rose with
no change in the numerators; each budget was rescaled to allow the same
numerator milliseconds as before (means from the committed
``BENCH_kernels.json`` before -> after):

* ``FABRIC_BUDGET`` 25 -> 230: ``full_assignment`` 31.24 -> 3.38 ms,
  ``forwarding_fabric`` 61.18 -> 56.74 ms, ratio 1.96x -> 16.8x; the old
  budget allowed 25 x 31.24 = 781 ms of fabric build = 231 x 3.38 ms.
* ``INCREMENTAL_BUDGET`` 2 -> 5: ``simulator_step`` 43.89 -> 17.63 ms,
  ``fabric_incremental`` 25.77 -> 25.44 ms, ratio 0.59x -> 1.44x; the
  old budget allowed 2 x 43.89 = 87.8 ms = 4.98 x 17.63 ms.
* ``CHAOS_BUDGET`` and ``SERVICE_BUDGET`` share that denominator but
  their numerators contain the step itself and shrank with it (1.14x ->
  1.00x, 1.10x -> 1.30x): unchanged, so both are stricter in
  milliseconds than they were.  ``HIERARCHY_BUDGET``,
  ``BATCH_QUERY_BUDGET`` and ``SHM_BUDGET`` are untouched.

Exit status is non-zero on violation, so CI fails the build.

Usage: ``python benchmarks/check_bench_budget.py [BENCH_kernels.json]``
"""

from __future__ import annotations

import json
import sys

FABRIC_BUDGET = 230.0
INCREMENTAL_BUDGET = 5.0
CHAOS_BUDGET = 2.0
SERVICE_BUDGET = 4.0
HIERARCHY_BUDGET = 0.85
BATCH_QUERY_BUDGET = 0.05
SHM_BUDGET = 2.5

# test_bench_batch_query resolves 1000 lookups per round while
# test_bench_scalar_query resolves 100, so the raw wall-clock ratio is
# scaled by 100/1000 to compare per-query costs.
_BATCH_QUERY_SCALE = 100 / 1000


#: Benchmarks that legitimately skip on some hosts (no /dev/shm); their
#: check is skipped rather than treated as a missing result.
OPTIONAL = {"test_bench_result_transport_shm"}


def mean_of(benchmarks: list[dict], name: str) -> float | None:
    for b in benchmarks:
        if b["name"] == name:
            return float(b["stats"]["mean"])
    if name in OPTIONAL:
        return None
    raise SystemExit(f"benchmark {name!r} missing from results")


def main(path: str) -> int:
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    checks = [
        ("test_bench_forwarding_fabric", "test_bench_full_assignment",
         FABRIC_BUDGET),
        ("test_bench_fabric_incremental", "test_bench_simulator_step",
         INCREMENTAL_BUDGET),
        ("test_bench_chaos_step", "test_bench_simulator_step",
         CHAOS_BUDGET),
        ("test_bench_service_step", "test_bench_simulator_step",
         SERVICE_BUDGET),
        ("test_bench_hierarchy_incremental", "test_bench_hierarchy_full_rebuild",
         HIERARCHY_BUDGET),
        ("test_bench_batch_query", "test_bench_scalar_query",
         BATCH_QUERY_BUDGET, _BATCH_QUERY_SCALE),
        ("test_bench_result_transport_shm", "test_bench_result_transport_pickle",
         SHM_BUDGET),
    ]
    failed = False
    for name, baseline, budget, *rest in checks:
        scale = rest[0] if rest else 1.0
        t, ref = mean_of(benchmarks, name), mean_of(benchmarks, baseline)
        if t is None or ref is None:
            print(f"SKIP: {name} (benchmark skipped on this host)")
            continue
        ratio = t / ref * scale
        status = "OK" if ratio <= budget else "FAIL"
        if ratio > budget:
            failed = True
        unit = " per query" if scale != 1.0 else ""
        print(f"{status}: {name} {t * 1e3:.1f} ms = {ratio:.3g}x{unit} "
              f"{baseline} (budget {budget:g}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_kernels.json"))
