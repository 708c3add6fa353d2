"""Experiment E4 — Figure 8: the TPC-H results table.

Paper: the table of all published 300 GB TPC-H results (system, QphH,
price/QphH).  Substitution (DESIGN.md §3): rows become optimizer
configurations of this engine; the throughput metric becomes the geometric
mean of per-query elapsed execution time over the supported query suite at
a fixed scale factor.

Expected shape: FULL posts the best geomean, DECORRELATE_ONLY close behind
(flattening alone already removes the quadratic blow-ups), CORRELATED far
behind — mirroring the paper's "fastest on a fraction of the processors"
headline.
"""

import math

import pytest

from repro import FULL
from repro.bench import CONFIGURATIONS, format_table, time_query, \
    tpch_database
from repro.tpch import QUERIES

SCALE_FACTOR = 0.005

#: Queries whose plans are shaped by the paper's techniques (subqueries
#: and/or reorderable aggregation).  The remaining queries are join-order
#: workloads where all configurations share the same technique set; their
#: times are reported but not asserted (join enumeration under the memo
#: budget has plan-quality noise — see EXPERIMENTS.md).
SUBQUERY_SET = ("Q2", "Q4", "Q11", "Q13", "Q15", "Q16", "Q17", "Q18",
                "Q20", "Q21", "Q22")


def geomean(values):
    return math.exp(sum(math.log(max(v, 1e-6)) for v in values)
                    / len(values))


def test_fig8_suite_table(benchmark):
    db = tpch_database(SCALE_FACTOR)
    per_query: dict[str, dict[str, float]] = {}
    for name, sql in QUERIES.items():
        per_query[name] = {}
        for mode in CONFIGURATIONS:
            _, exec_s, _ = time_query(db, sql, mode)
            per_query[name][mode.name] = exec_s

    mode_names = [m.name for m in CONFIGURATIONS]
    rows = []
    for name in QUERIES:
        rows.append([name] + [f"{per_query[name][m] * 1000:.1f}"
                              for m in mode_names])
    overall = {m: geomean([per_query[q][m] for q in QUERIES])
               for m in mode_names}
    subquery = {m: geomean([per_query[q][m] for q in SUBQUERY_SET])
                for m in mode_names}
    rows.append(["geomean (all 22)"]
                + [f"{overall[m] * 1000:.1f}" for m in mode_names])
    rows.append(["geomean (subquery/agg)"]
                + [f"{subquery[m] * 1000:.1f}" for m in mode_names])

    print()
    print(f"Figure 8 analog — per-query elapsed ms, TPC-H SF={SCALE_FACTOR}")
    print(format_table(["query"] + mode_names, rows))

    # Shape (asserted on the subquery/aggregation subset, where the
    # paper's techniques actually differentiate the configurations): the
    # full system leads, correlated execution trails clearly, and the gap
    # concentrates exactly on the queries the paper highlights (Q2/Q17).
    assert subquery["full"] <= subquery["decorrelate_only"] * 1.25
    assert subquery["full"] * 2 < subquery["correlated"]
    for highlighted in ("Q2", "Q17"):
        assert per_query[highlighted]["full"] * 5 < \
            per_query[highlighted]["correlated"]

    plan = db.plan(QUERIES["Q2"], FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
