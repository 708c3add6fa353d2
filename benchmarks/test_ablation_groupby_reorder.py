"""Ablation A1 — Sections 3.1/3.2: GroupBy reordering on/off.

The paper: "it is these optimizations that make for the order-of-magnitude
performance improvements".  The probe query is the Section 1.1 example at a
threshold where the aggregate-then-join strategy prunes heavily, plus
TPC-H Q17, whose flattened form only becomes efficient once the GroupBy
moves below the join.
"""

import pytest

from repro import FULL
from repro.bench import (NO_GROUPBY_REORDER, format_table, time_query,
                         tpch_database)
from repro.tpch import QUERIES

SCALE_FACTOR = 0.01

PROBES = {
    "section 1.1 example": """
        select c_custkey from customer
        where 1000000 < (select sum(o_totalprice) from orders
                         where o_custkey = c_custkey)""",
    "TPC-H Q17": QUERIES["Q17"],
}


def test_ablation_groupby_reorder(benchmark):
    db = tpch_database(SCALE_FACTOR)
    rows = []
    for name, sql in PROBES.items():
        baseline = db.execute(sql, NO_GROUPBY_REORDER).rows
        optimized = db.execute(sql, FULL).rows
        assert sorted(map(repr, optimized)) == sorted(map(repr, baseline))
        _, exec_off, _ = time_query(db, sql, NO_GROUPBY_REORDER, repeat=2)
        _, exec_on, _ = time_query(db, sql, FULL, repeat=2)
        rows.append([name, f"{exec_on * 1000:.2f}", f"{exec_off * 1000:.2f}",
                     f"{exec_off / max(exec_on, 1e-9):.1f}x"])
    print()
    print(f"Ablation — GroupBy reordering (SF={SCALE_FACTOR})")
    print(format_table(
        ["query", "reorder on (ms)", "reorder off (ms)", "speedup"], rows))

    plan = db.plan(PROBES["section 1.1 example"], FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
