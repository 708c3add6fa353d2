"""Experiment E5 — Figure 9 (left): TPC-H Query 2 elapsed time.

Paper: Q2 elapsed power-run times across published 300 GB results, SQL
Server fastest on the fewest processors.  Same substitutions as the Q17
bench (scale factor for processors, optimizer configurations for systems).

Expected shape: the decorrelating configurations (FULL and
DECORRELATE_ONLY) beat correlated execution by a growing factor; FULL
tracks the best.
"""

import pytest

from repro import FULL
from repro.bench import (CONFIGURATIONS, run_matrix, series_table,
                         tpch_database)
from repro.tpch import QUERIES

SCALE_FACTORS = [0.002, 0.005, 0.01, 0.02]
HEADLINE_SF = 0.01


def test_fig9_query2_scaling(benchmark):
    measurements = run_matrix(QUERIES["Q2"], "Q2", SCALE_FACTORS,
                              CONFIGURATIONS, repeat=2)
    print()
    print("Figure 9 (left) — Q2 elapsed execution seconds")
    print(series_table(measurements))

    by_key = {(m.scale_factor, m.mode): m.elapsed_seconds
              for m in measurements}
    top = max(SCALE_FACTORS)
    assert by_key[(top, "full")] * 5 < by_key[(top, "correlated")]
    # FULL and DECORRELATE_ONLY both pick flattened plans for Q2; small
    # join-order differences from the bounded exploration leave them within
    # a small constant factor of each other (see EXPERIMENTS.md).
    assert by_key[(top, "full")] <= by_key[(top, "decorrelate_only")] * 3

    db = tpch_database(HEADLINE_SF)
    plan = db.plan(QUERIES["Q2"], FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
