"""Benchmark harness: engine-configuration matrix, timing, reporting.

The paper's evaluation (Section 5) compares published TPC-H results across
DBMSs and processor counts.  Our substitution (see DESIGN.md): the "system"
axis becomes optimizer configurations of this engine, and the "processors"
axis becomes the data scale factor.  This module provides the shared
machinery: building TPC-H databases per scale factor, timing queries under
each configuration, and printing paper-style tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..core.normalize import NormalizeConfig
from ..core.optimizer import OptimizerConfig
from ..database import (CORRELATED, DECORRELATE_ONLY, FULL, NAIVE,
                        Database, ExecutionMode)
from ..tpch import create_tpch_schema, generate_tpch

#: The benchmark "system" axis: the paper's system (FULL) against
#: progressively weaker configurations standing in for the comparators.
CONFIGURATIONS: tuple[ExecutionMode, ...] = (FULL, DECORRELATE_ONLY,
                                             CORRELATED)

#: Ablation modes for individual technique families (Section 3).
NO_GROUPBY_REORDER = ExecutionMode(
    "no_groupby_reorder",
    optimizer_config=OptimizerConfig(groupby_reorder=False,
                                     segment_apply=False,
                                     local_aggregates=False))
NO_SEGMENT_APPLY = ExecutionMode(
    "no_segment_apply",
    optimizer_config=OptimizerConfig(segment_apply=False))
NO_LOCAL_AGGREGATES = ExecutionMode(
    "no_local_aggregates",
    optimizer_config=OptimizerConfig(local_aggregates=False))
NO_INDEX_APPLY = ExecutionMode(
    "no_index_apply",
    optimizer_config=OptimizerConfig(index_apply=False))
NO_OJ_SIMPLIFY = ExecutionMode(
    "no_oj_simplify",
    normalize_config=NormalizeConfig(simplify_outerjoins=False),
    optimizer_config=OptimizerConfig(groupby_reorder=False,
                                     segment_apply=False,
                                     local_aggregates=False))


_DB_CACHE: dict[tuple[float, int, bool], Database] = {}


def tpch_database(scale_factor: float, seed: int = 20010521,
                  with_indexes: bool = True) -> Database:
    """A populated TPC-H database, cached per (scale, seed, indexes)."""
    key = (scale_factor, seed, with_indexes)
    if key not in _DB_CACHE:
        db = Database()
        create_tpch_schema(db, with_indexes=with_indexes)
        generate_tpch(db, scale_factor, seed)
        _DB_CACHE[key] = db
    return _DB_CACHE[key]


@dataclass
class Measurement:
    """One timed query: compile (plan) time and execution time.

    The paper's Figure 9 reports elapsed *power-run* execution time, where
    compilation is negligible against 300 GB of data; in this scaled-down
    reproduction compilation would otherwise mask the execution-strategy
    effect, so the two are measured separately and the series report
    ``elapsed_seconds`` (execution).
    """

    query: str
    mode: str
    scale_factor: float
    elapsed_seconds: float
    plan_seconds: float
    row_count: int


def time_query(db: Database, sql: str, mode: ExecutionMode,
               repeat: int = 1) -> tuple[float, float, int]:
    """(plan seconds, best-of-``repeat`` execution seconds, row count)."""
    from ..executor import NaiveInterpreter, VectorizedExecutor
    from ..sql import parse

    if mode.use_naive_interpreter:
        bound = db._binder.bind(parse(sql))
        interpreter = NaiveInterpreter(lambda name: db.storage.get(name).rows)
        best = float("inf")
        rows = 0
        for _ in range(repeat):
            start = time.perf_counter()
            result = interpreter.run(bound.rel)
            best = min(best, time.perf_counter() - start)
            rows = len(result)
        return 0.0, best, rows

    start = time.perf_counter()
    plan = db.plan(sql, mode)
    plan_seconds = time.perf_counter() - start
    executor = VectorizedExecutor(db.storage)
    best = float("inf")
    rows = 0
    for _ in range(repeat):
        start = time.perf_counter()
        result = executor.run(plan)
        best = min(best, time.perf_counter() - start)
        rows = len(result)
    return plan_seconds, best, rows


def run_matrix(sql: str, query_name: str, scale_factors: Sequence[float],
               modes: Sequence[ExecutionMode] = CONFIGURATIONS,
               repeat: int = 1) -> list[Measurement]:
    """Time one query across the scale-factor × configuration matrix."""
    measurements = []
    for scale_factor in scale_factors:
        db = tpch_database(scale_factor)
        for mode in modes:
            plan_s, exec_s, rows = time_query(db, sql, mode, repeat)
            measurements.append(Measurement(
                query_name, mode.name, scale_factor, exec_s, plan_s, rows))
    return measurements


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table (the benches print paper-style tables)."""
    materialized = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value * 1000:.1f}ms" if value < 0.1 else f"{value:.3f}"
    return str(value)


def series_table(measurements: Sequence[Measurement]) -> str:
    """Scale factor rows × configuration columns of elapsed seconds."""
    modes = []
    for m in measurements:
        if m.mode not in modes:
            modes.append(m.mode)
    scale_factors = sorted({m.scale_factor for m in measurements})
    lookup = {(m.scale_factor, m.mode): m for m in measurements}
    rows = []
    for sf in scale_factors:
        row: list[object] = [str(sf)]  # a scale factor, not a duration
        for mode in modes:
            m = lookup.get((sf, mode))
            row.append(m.elapsed_seconds if m else "-")
        rows.append(row)
    return format_table(["scale_factor"] + list(modes), rows)


# ---------------------------------------------------------------------------
# Vectorized-engine speedup report (BENCH_vectorized.json)
# ---------------------------------------------------------------------------

#: Q17-shaped workloads: the scan, the filter, the grouped aggregate that
#: dominates Q17's inner subquery, and the full query.  The aggregate row
#: is the headline number (the paper's SegmentApply strategy spends its
#: time exactly there).  The naive interpreter is the baseline of the
#: single-table shapes; the full query is quadratic under it, so that row
#: reports the vectorized time alone.
VECTORIZED_WORKLOADS: tuple[tuple[str, str | None, bool], ...] = (
    ("q17_scan", "select l_partkey, l_quantity from lineitem", True),
    ("q17_scan_filter",
     "select l_partkey, l_quantity from lineitem where l_quantity < 10",
     True),
    ("q17_aggregate",
     "select l_partkey, 0.2 * avg(l_quantity) from lineitem "
     "group by l_partkey", True),
    ("q17_full", None, False),  # resolved to tpch.QUERIES["Q17"]
)


def vectorized_speedup_report(scale_factor: float = 0.01,
                              repeat: int = 3) -> dict:
    """Time the Q17-shaped workloads on the vectorized engine and, where
    feasible, on the naive interpreter.

    Returns the ``BENCH_vectorized.json`` payload: per workload, the
    best-of-``repeat`` elapsed seconds, input rows/second (lineitem rows
    scanned over elapsed time) and, with a naive baseline, the
    naive→vectorized speedup (``None`` without one).
    """
    from ..tpch import QUERIES

    db = tpch_database(scale_factor)
    input_rows = len(db.storage.get("lineitem").rows)
    workloads = {}
    for name, sql, with_baseline in VECTORIZED_WORKLOADS:
        sql = sql if sql is not None else QUERIES["Q17"]
        _, vector_s, out_rows = time_query(db, sql, FULL, repeat)
        naive_s = None
        if with_baseline:
            _, naive_s, naive_rows = time_query(db, sql, NAIVE, repeat)
            assert naive_rows == out_rows, f"{name}: engines disagree"
        workloads[name] = {
            "sql": sql,
            "input_rows": input_rows,
            "output_rows": out_rows,
            "naive_seconds": naive_s,
            "vectorized_seconds": vector_s,
            "vectorized_rows_per_sec": input_rows / vector_s,
            "speedup": naive_s / vector_s if naive_s is not None else None,
        }
    return {
        "benchmark": "vectorized_engine",
        "baseline": "naive",
        "scale_factor": scale_factor,
        "repeat": repeat,
        "headline": "q17_aggregate",
        "workloads": workloads,
    }


def vectorized_speedup_table(report: dict) -> str:
    """Paper-style table for a :func:`vectorized_speedup_report`."""
    rows = []
    for name, w in report["workloads"].items():
        speedup = w["speedup"]
        rows.append([name,
                     w["naive_seconds"] if speedup is not None else "-",
                     w["vectorized_seconds"], w["vectorized_rows_per_sec"],
                     f"{speedup:.2f}x" if speedup is not None else "-"])
    return format_table(
        ["workload", "naive_s", "vectorized_s", "vec_rows/s", "speedup"],
        rows)


# -- columnar storage / morsel parallelism --------------------------------------

class _RowPivotTable:
    """A scan view that re-pivots the row façade on every scan — the
    pre-columnar (PR 4) cost model, where storage was row tuples and the
    vectorized engine paid a full pivot per query."""

    def __init__(self, table) -> None:
        self._table = table

    def scan_units(self):
        from ..storage.columnar import ScanUnit

        rows = list(self._table.rows)
        if rows:
            cols = [list(column) for column in zip(*rows)]
        else:
            cols = [[] for _ in self._table.columns()]
        return [ScanUnit((), len(rows), cols=cols)]

    def __getattr__(self, name):
        return getattr(self._table, name)


class _RowPivotStorage:
    """Storage view handing out :class:`_RowPivotTable` scan views."""

    def __init__(self, storage) -> None:
        self._storage = storage

    def get(self, name):
        return _RowPivotTable(self._storage.get(name))

    def __getattr__(self, name):
        return getattr(self._storage, name)


def _best_of(fn, repeat: int) -> tuple[float, list]:
    best = float("inf")
    rows: list = []
    for _ in range(repeat):
        start = time.perf_counter()
        rows = fn()
        best = min(best, time.perf_counter() - start)
    return best, rows


def columnar_speedup_report(scale_factor: float = 0.01,
                            repeat: int = 3,
                            morsel_workers: int = 4) -> dict:
    """Time the Q17-shaped grouped aggregate three ways.

    * ``row_pivot`` — the vectorized engine over a storage view that
      re-pivots ``table.rows`` per query (the pre-columnar baseline);
    * ``columnar`` — native encoded chunks with cached decode;
    * ``morsel`` — the same, with ``morsel_workers`` parallel workers.

    Returns the ``BENCH_columnar.json`` payload.  ``parallel_effective``
    reports whether this host can be *expected* to scale (≥4 cores and
    the GIL disabled) — on a small or GIL-bound host the morsel numbers
    are recorded but carry no speedup claim.
    """
    import os
    import sys

    from ..executor import VectorizedExecutor

    sql = ("select l_partkey, 0.2 * avg(l_quantity) from lineitem "
           "group by l_partkey")
    db = tpch_database(scale_factor)
    input_rows = len(db.storage.get("lineitem").rows)
    plan = db.plan(sql, FULL)

    serial = VectorizedExecutor(db.storage)
    prepared = serial.prepare(plan)
    serial.run_prepared(prepared)  # warm the per-chunk decode caches
    columnar_s, columnar_rows = _best_of(
        lambda: serial.run_prepared(prepared), repeat)

    pivot_view = _RowPivotStorage(db.storage)
    pivot_s, pivot_rows = _best_of(
        lambda: serial.run_prepared(prepared, storage=pivot_view), repeat)
    assert sorted(pivot_rows) == sorted(columnar_rows), "engines disagree"

    parallel = VectorizedExecutor(db.storage,
                                  morsel_workers=morsel_workers)
    prepared_parallel = parallel.prepare(plan)
    parallel.run_prepared(prepared_parallel)
    morsel_s, morsel_rows = _best_of(
        lambda: parallel.run_prepared(prepared_parallel), repeat)
    assert sorted(morsel_rows) == sorted(columnar_rows), \
        "morsel rows disagree"

    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    cores = os.cpu_count() or 1
    table = db.storage.get("lineitem")
    encodings = {}
    for unit in table.scan_units():
        chunk = getattr(unit, "_chunk", None)
        if chunk is not None:
            for column, kind in zip(table.definition.columns,
                                    chunk.encodings):
                encodings.setdefault(column.name, kind)
            break
    return {
        "benchmark": "columnar_storage",
        "scale_factor": scale_factor,
        "repeat": repeat,
        "sql": sql,
        "input_rows": input_rows,
        "output_rows": len(columnar_rows),
        "lineitem_encodings": encodings,
        "row_pivot_seconds": pivot_s,
        "columnar_seconds": columnar_s,
        "columnar_speedup": pivot_s / columnar_s,
        "morsel_workers": morsel_workers,
        "morsel_seconds": morsel_s,
        "morsel_scaling": columnar_s / morsel_s,
        "cpu_count": cores,
        "gil_enabled": gil_enabled,
        "parallel_effective": cores >= 4 and not gil_enabled,
    }


def columnar_speedup_table(report: dict) -> str:
    """Paper-style table for a :func:`columnar_speedup_report`."""
    rows = [
        ["row_pivot", report["row_pivot_seconds"], "1 (baseline)"],
        ["columnar", report["columnar_seconds"],
         f"{report['columnar_speedup']:.2f}x"],
        [f"morsel x{report['morsel_workers']}", report["morsel_seconds"],
         f"{report['morsel_scaling']:.2f}x vs columnar"],
    ]
    return format_table(["configuration", "seconds", "speedup"], rows)


def matview_speedup_report(scale_factor: float = 0.01,
                           repeat: int = 5) -> dict:
    """Time the Q17-shaped grouped aggregate with and without a
    materialized view answering it.

    The view stores the §3.3 local-aggregate form of the per-partkey
    quantity aggregate; the optimizer's view-substitution rule plans the
    query as a re-aggregation of the view's (partkey-grouped, so already
    tiny) backing rows instead of a scan of ``lineitem``.  Both sides run through ``Database.execute``
    with warmed plan caches, so the measured gap is purely the scan the
    view avoids.  Returns the ``BENCH_matview.json`` payload.
    """
    sql = ("select l_partkey, avg(l_quantity) as avg_qty, "
           "count(*) as order_count from lineitem group by l_partkey")
    view_sql = ("SELECT l_partkey, avg(l_quantity) AS avg_qty, "
                "count(*) AS order_count FROM lineitem "
                "GROUP BY l_partkey")
    db = tpch_database(scale_factor)
    input_rows = len(db.storage.get("lineitem").rows)

    db.execute(sql, FULL, use_matviews=False)  # warm the base plan
    base_s, base_rows = _best_of(
        lambda: db.execute(sql, FULL, use_matviews=False).rows, repeat)

    db.matviews.create("mv_q17_qty", view_sql)
    view_rows = len(db.storage.get("mv_q17_qty").rows)
    db.execute(sql, FULL)  # warm the rewritten plan
    rewritten_s, rewritten_rows = _best_of(
        lambda: db.execute(sql, FULL).rows, repeat)
    assert sorted(rewritten_rows) == sorted(base_rows), \
        "rewritten plan disagrees with the base-table plan"
    assert db.matviews.status()["rewrites"] > 0, "rewrite never fired"
    # The TPC-H database is cached per scale factor; leave it view-free
    # for whoever reuses it.
    db.matviews.drop("mv_q17_qty")

    return {
        "benchmark": "matview_rewrite",
        "scale_factor": scale_factor,
        "repeat": repeat,
        "sql": sql,
        "view_sql": view_sql,
        "input_rows": input_rows,
        "view_rows": view_rows,
        "output_rows": len(base_rows),
        "base_seconds": base_s,
        "rewritten_seconds": rewritten_s,
        "matview_speedup": base_s / rewritten_s,
    }


def matview_speedup_table(report: dict) -> str:
    """Paper-style table for a :func:`matview_speedup_report`."""
    rows = [
        [f"base scan ({report['input_rows']} rows)",
         report["base_seconds"], "1 (baseline)"],
        [f"view scan ({report['view_rows']} rows)",
         report["rewritten_seconds"],
         f"{report['matview_speedup']:.2f}x"],
    ]
    return format_table(["configuration", "seconds", "speedup"], rows)
