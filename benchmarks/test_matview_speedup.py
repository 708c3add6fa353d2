"""Materialized-view rewrite speedup on the Q17-shaped grouped aggregate.

The tentpole claim of the matview subsystem: a query aggregate a
materialized view answers runs at least 5x faster when the optimizer
substitutes a re-aggregation of the view's backing rows (a few
hundred groups) for the scan of ``lineitem``
(tens of thousands of rows).  Both sides go through the full
``Database.execute`` path with warm plan caches, so the measured gap is
the scan the view avoids — not compilation.

The run writes ``BENCH_matview.json`` to the working directory — the
repository's BENCH trajectory artifact, uploaded by CI.
"""

import json
import pathlib

from repro import FULL
from repro.bench import (matview_speedup_report, matview_speedup_table,
                         tpch_database)

SCALE_FACTOR = 0.01
MIN_MATVIEW_SPEEDUP = 5.0


def test_matview_speedup(benchmark):
    report = matview_speedup_report(SCALE_FACTOR, repeat=5)
    print()
    print(f"Materialized view vs base-table plan, sf={SCALE_FACTOR}")
    print(matview_speedup_table(report))

    out = pathlib.Path("BENCH_matview.json")
    out.write_text(json.dumps(report, indent=2) + "\n")

    assert report["matview_speedup"] >= MIN_MATVIEW_SPEEDUP, \
        f"matview speedup {report['matview_speedup']:.2f}x < " \
        f"{MIN_MATVIEW_SPEEDUP}x"

    db = tpch_database(SCALE_FACTOR)
    if not db.catalog.has_matview("mv_q17_qty"):
        db.matviews.create("mv_q17_qty", report["view_sql"])
    db.execute(report["sql"], FULL)  # warm the rewritten plan
    benchmark(lambda: db.execute(report["sql"], FULL).rows)
