"""Experiment E6 — Figure 9 (right): TPC-H Query 17 elapsed time.

Paper: elapsed power-run time for Q17 across published 300 GB results —
SQL Server fastest (79.7 s on 8 CPUs) with other systems slower on many
more processors.  Substitution (DESIGN.md §3): the processor-count axis
becomes the scale factor; the DBMS axis becomes optimizer configurations.

Expected shape: FULL (with SegmentApply + join pushdown + index lookup) is
fastest at every scale factor, an order of magnitude or more ahead of
correlated execution, with the gap growing with scale.
"""

import pytest

from repro import FULL
from repro.bench import (CONFIGURATIONS, run_matrix, series_table,
                         tpch_database)
from repro.tpch import QUERIES

SCALE_FACTORS = [0.002, 0.005, 0.01, 0.02]
HEADLINE_SF = 0.01


def test_fig9_query17_scaling(benchmark):
    measurements = run_matrix(QUERIES["Q17"], "Q17", SCALE_FACTORS,
                              CONFIGURATIONS, repeat=2)
    print()
    print("Figure 9 (right) — Q17 elapsed execution seconds")
    print(series_table(measurements))

    by_key = {(m.scale_factor, m.mode): m.elapsed_seconds
              for m in measurements}
    top = max(SCALE_FACTORS)
    # FULL beats correlated by a wide margin at every scale factor ≥ 0.005.
    for sf in SCALE_FACTORS:
        if sf >= 0.005:
            assert by_key[(sf, "full")] * 5 < by_key[(sf, "correlated")]
    # At the top scale, FULL is at least an order of magnitude ahead of
    # correlated execution and not slower than decorrelation alone.
    assert by_key[(top, "full")] * 10 < by_key[(top, "correlated")]
    assert by_key[(top, "full")] <= by_key[(top, "decorrelate_only")] * 1.5

    db = tpch_database(HEADLINE_SF)
    plan = db.plan(QUERIES["Q17"], FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
