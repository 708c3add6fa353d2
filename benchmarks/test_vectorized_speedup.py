"""Vectorized-engine speedup on Q17-shaped workloads.

The claim of the vectorized batch engine: the grouped aggregate at the
heart of Q17's inner subquery (avg of l_quantity per l_partkey over all
of lineitem) runs at least 3x faster than the naive interpreter, which
evaluates scalars per row by walking the expression tree — per-row
interpreter dispatch is replaced by whole-column loops.  The scan and
filter shapes gain less (they are dominated by Python-level data
movement either way) and are reported, not asserted; the full query is
quadratic under the naive interpreter, so its row reports the
vectorized time alone.

The run writes ``BENCH_vectorized.json`` to the working directory —
the repository's BENCH trajectory artifact, uploaded by CI.
"""

import json
import pathlib

from repro.bench import vectorized_speedup_report, vectorized_speedup_table

SCALE_FACTOR = 0.01
MIN_AGGREGATE_SPEEDUP = 3.0


def test_vectorized_speedup(benchmark):
    report = vectorized_speedup_report(SCALE_FACTOR, repeat=3)
    print()
    print(f"Vectorized engine vs naive interpreter, sf={SCALE_FACTOR}")
    print(vectorized_speedup_table(report))

    out = pathlib.Path("BENCH_vectorized.json")
    out.write_text(json.dumps(report, indent=2) + "\n")

    workloads = report["workloads"]
    headline = workloads[report["headline"]]
    assert headline["speedup"] >= MIN_AGGREGATE_SPEEDUP, \
        f"Q17 aggregate speedup {headline['speedup']:.2f}x < " \
        f"{MIN_AGGREGATE_SPEEDUP}x"

    from repro.bench import tpch_database
    from repro.executor import VectorizedExecutor
    from repro import FULL
    db = tpch_database(SCALE_FACTOR)
    plan = db.plan(workloads["q17_aggregate"]["sql"], FULL)
    executor = VectorizedExecutor(db.storage)
    benchmark(lambda: executor.run(plan))
