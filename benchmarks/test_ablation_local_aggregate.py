"""Ablation A2 — Section 3.3: local/global aggregate split on/off.

The probe groups a join result by a column that contains no key of either
side, so the *global* GroupBy cannot move below the join (condition 2 of
Section 3.1 fails) — exactly the case LocalGroupBy exists for: the local
aggregate can always push down, shrinking the join input.
"""

import pytest

from repro import FULL
from repro.bench import (NO_LOCAL_AGGREGATES, format_table, time_query,
                         tpch_database)
from repro.physical import PHashAggregate
from repro.tpch import QUERIES

SCALE_FACTOR = 0.01

PROBE = """
    select o_orderpriority, sum(l_quantity) as qty
    from orders, lineitem
    where l_orderkey = o_orderkey
    group by o_orderpriority
    order by o_orderpriority
"""


def _walk(plan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


def test_ablation_local_aggregates(benchmark):
    db = tpch_database(SCALE_FACTOR)

    assert db.execute(PROBE, FULL).rows == \
        db.execute(PROBE, NO_LOCAL_AGGREGATES).rows

    rows = []
    for label, mode in (("local aggregates on", FULL),
                        ("local aggregates off", NO_LOCAL_AGGREGATES)):
        plan_s, exec_s, count = time_query(db, PROBE, mode, repeat=3)
        plan = db.plan(PROBE, mode)
        local_aggs = sum(1 for n in _walk(plan)
                         if isinstance(n, PHashAggregate) and n.is_local)
        rows.append([label, f"{exec_s * 1000:.1f}", local_aggs, count])
    print()
    print(f"Ablation — Local/global aggregate split (SF={SCALE_FACTOR})")
    print(format_table(
        ["configuration", "exec (ms)", "local aggs in plan", "rows"], rows))

    plan = db.plan(PROBE, FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
