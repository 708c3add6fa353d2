"""Ablation A5 — Section 4: re-introduction of correlated execution
("the simplest and most common being index-lookup-join") on/off.

A selective outer input over an indexed inner table is the case where the
paper notes correlated execution "can actually be the best strategy, if
the outer table is small, and appropriate indices exist" (Section 1.1).
"""

import pytest

from repro import FULL
from repro.bench import (NO_INDEX_APPLY, format_table, time_query,
                         tpch_database)
from repro.tpch import QUERIES

SCALE_FACTOR = 0.01

PROBE = """
    select c_name, o_orderkey, o_totalprice
    from customer, orders
    where o_custkey = c_custkey
      and c_custkey = 41
"""


def test_ablation_index_apply(benchmark):
    db = tpch_database(SCALE_FACTOR)
    assert sorted(db.execute(PROBE, FULL).rows) == \
        sorted(db.execute(PROBE, NO_INDEX_APPLY).rows)

    rows = []
    for label, mode in (("index apply on", FULL),
                        ("index apply off", NO_INDEX_APPLY)):
        _, exec_s, count = time_query(db, PROBE, mode, repeat=3)
        rows.append([label, f"{exec_s * 1000:.2f}", count])
    print()
    print(f"Ablation — index-lookup join (selective outer, SF={SCALE_FACTOR})")
    print(format_table(["configuration", "exec (ms)", "rows"], rows))

    plan = db.plan(PROBE, FULL)
    from repro.executor import VectorizedExecutor
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
