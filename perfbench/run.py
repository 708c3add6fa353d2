#!/usr/bin/env python3
"""The repository benchmark: TPC-H cold compile, TPC-H warm execute and a
durable refresh read/write mix, driven only through the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tpch_cold --seed 20010521 \\
        --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``tpch_cold``  -- the 22 TPC-H queries in order, plan cache invalidated
  before every pass, so every query is compiled again.
* ``tpch_warm``  -- the same 22 queries, every plan served from the plan
  cache that set-up filled.
* ``refresh_rw`` -- an RF1-style writer and a reader, each on its own
  ``ServerClient`` connection to a ``QueryServer`` over a durable database
  with one materialized view.

``BENCHMARK.json`` lists ``tpch_cold`` and ``refresh_rw``; ``tpch_warm``
is run by hand (the README says why).

The benchmark builds a default ``Database()`` (or ``Database(path=...)``
for the durable workload) and passes no engine, mode or tuning argument on
the measured path.  Every result it receives is checked.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, and a trace file is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Measure the checkout's own sources, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

from repro import Database, QueryServer, ServerClient  # noqa: E402
from repro.tpch import QUERIES, create_tpch_schema, generate_tpch  # noqa: E402

from tracing import END, NAME, START, Tracer, layer_breakdown  # noqa: E402

SCALE = 0.01
DEFAULT_SEED = 20010521
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Host speed drifts by 20% and more over tens of seconds, so a TPC-H run
#: measures at least this many passes whatever ``--seconds`` says.
MIN_PASSES = 2
#: Float results are compared at this many significant digits: plans that
#: aggregate in a different order may differ in the last bits.
SIGNIFICANT_DIGITS = 8
#: A float this close (relatively) to a rounding boundary may round either
#: way under another summation order, so both roundings are accepted.
FLOAT_TOLERANCE = 1e-9
DIGESTS = HERE / "expected_digests.json"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("tpch_cold", "tpch_warm", "refresh_rw")

END_TO_END = {  # name -> unit, in report order
    "setup_s": "s",
    "suite_s": "s",
    "query_geomean_ms": "ms",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but kept out of the JSON result,
#: whose metrics must each be steady and non-zero on every workload.  The
#: write metrics exist only on refresh_rw.  On tpch_cold the median of a
#: pass's 22 latencies falls in a gap between a fast and a slow query
#: (about 0.1 s and 0.18 s), so read_p50_ms jumps with small changes, and
#: read_p99_ms is the slowest query's compile, two samples per run.
REPORT_ONLY = {
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "writes_per_s": "1/s",
    "failed_share": "ratio",
}

#: Per-layer self-time metrics and the span each one sums.
LAYER_MS = {
    "sql.parse_ms": "sql.parse",
    "binder.bind_ms": "binder.bind",
    "core.normalize.normalize_ms": "core.normalize.normalize",
    "executor.prepare_ms": "executor.prepare",
    "core.optimizer.optimize_ms": "core.optimizer.optimize",
    "executor.run_ms": "executor.run",
    "plancache.get_ms": "plancache.get",
    "storage.snapshot_ms": "storage.snapshot",
    "storage.clone_ms": "storage.clone",
    "storage.insert_rows_ms": "storage.insert_rows",
    "storage.install_ms": "storage.install",
    "matview.maintain_ms": "matview.maintain",
    "durability.log_commit_ms": "durability.log_commit",
    "server.session_ms": "server.session",
    "server.wire_ms": "server.wire",
}
PER_QUERY = {"core.optimizer.optimize_ms": "core.optimizer.optimize",
             "executor.run_ms": "executor.run"}
PER_LAYER = dict(
    [(name, "ms") for name in LAYER_MS]
    + [(f"{name}.{query}", "ms") for name in PER_QUERY for query in QUERIES]
    + [("core.optimizer.optimize_share", "ratio"),
       ("catalog.stats_build_ms", "ms"),
       ("plancache.hit_ratio", "ratio"),
       ("storage.clone_calls", "count"),
       ("matview.rewrite_ratio", "ratio"),
       ("durability.fsync_calls", "count"),
       ("durability.wal_bytes_per_user_byte", "ratio"),
       ("durability.recover_s", "s"),
       ("unattributed_ms", "ms"),
       ("traced_end_to_end_ms", "ms"),
       ("trace_overhead", "ratio")])


# -- helpers ------------------------------------------------------------------


def _round(value: float) -> float:
    return float(f"{value + 0.0:.{SIGNIFICANT_DIGITS}g}")


def canonical(value):
    if isinstance(value, float):
        return _round(value)
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _digest(rows: list[list]) -> str:
    lines = sorted(json.dumps(row) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest(rows) -> str:
    """Order-insensitive fingerprint of a result with rounded floats."""
    return _digest([[canonical(v) for v in row] for row in rows])


def matches(rows, expected: str) -> bool:
    """True when ``rows`` digest to ``expected`` under some rounding of
    the floats that sit on a rounding boundary (at most 8 of them)."""
    canon = [[canonical(v) for v in row] for row in rows]
    if _digest(canon) == expected:
        return True
    ambiguous = []
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if isinstance(value, float):
                options = {_round(value * (1 - FLOAT_TOLERANCE)),
                           _round(value * (1 + FLOAT_TOLERANCE))}
                if len(options) > 1:
                    ambiguous.append((i, j, sorted(options)))
    ambiguous = ambiguous[:8]
    for choice in itertools.product(*(opts for _, _, opts in ambiguous)):
        for (i, j, _), value in zip(ambiguous, choice):
            canon[i][j] = value
        if _digest(canon) == expected:
            return True
    return False


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(build, teardown, repeats: int):
    """Run ``build`` ``repeats`` times, tearing down all but the last
    result; return that result and the median build time."""
    times = []
    built = None
    for _ in range(repeats):
        if built is not None:
            teardown(built)
            built = None
            gc.collect()
        start = perf_counter()
        built = build()
        times.append(perf_counter() - start)
    return built, statistics.median(times)


class Tally:
    """Operations attempted and failed, shared by the client threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)


def descriptor(args, clients: int, flush_policy) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scale_factor": SCALE, "nproc": os.cpu_count(),
            "gil_enabled": gil() if gil is not None else True,
            "python": platform.python_version(),
            "default_engine": Database().default_engine,
            "flush_policy": flush_policy,
            "clients": clients, "loop": "closed"}


# -- TPC-H workloads ---------------------------------------------------------


def build_tpch(seed: int) -> Database:
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, SCALE, seed)
    for name in db.table_names():
        db.table_statistics(name)
    return db


def expected_digests(db: Database, seed: int) -> tuple[dict, list[str]]:
    """Per-query expected digests, plus the queries on which the
    reference disagrees with the stored digests.

    The reference runs every query on the other engine with correlated
    (not decorrelated) plans, so it shares neither the executor nor the
    decorrelation rules with the measured path.  At the default seed the
    stored digests are authoritative and the reference is checked
    against them.
    """
    reference = {name: db.execute(sql, mode="correlated",
                                  engine="vectorized").rows
                 for name, sql in QUERIES.items()}
    db.plan_cache.invalidate()
    if seed != DEFAULT_SEED:
        return {name: digest(rows) for name, rows in reference.items()}, []
    stored = json.loads(DIGESTS.read_text())["digests"]
    return stored, [name for name in QUERIES
                    if not matches(reference[name], stored[name])]


def tpch_pass(db: Database, expected: dict, tally: Tally, cold: bool,
              tracer: Tracer | None = None):
    """One pass over the 22 queries: ``(wall seconds, {query: latency})``.
    Results are checked after the pass, outside its wall time."""
    if cold:
        db.plan_cache.invalidate()
    results = {}
    latencies = {}
    start = perf_counter()
    for name, sql in QUERIES.items():
        began = perf_counter()
        try:
            if tracer is None:
                result = db.execute(sql)
            else:
                result = tracer.request("bench.query", name, db.execute,
                                        sql)
        except Exception as exc:  # a failed query is counted, not fatal
            tally.fail(f"{name}: {type(exc).__name__}: {exc}")
            continue
        latencies[name] = perf_counter() - began
        results[name] = result.rows
    wall = perf_counter() - start
    for name, rows in results.items():
        if matches(rows, expected[name]):
            tally.ok()
        else:
            tally.fail(f"{name}: result differs from the expected digest")
            del latencies[name]
    return wall, latencies


def measure_passes(run_pass, seconds: float) -> list:
    """Run passes for about ``seconds``: at least ``MIN_PASSES``, and
    another only when the last one's duration says it will end in time."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        if (len(passes) >= MIN_PASSES
                and perf_counter() - start + passes[-1][0] > seconds):
            return passes


def tpch_metrics(passes: list) -> dict:
    per_query = defaultdict(list)
    for _, latencies in passes:
        for name, latency in latencies.items():
            per_query[name].append(latency)
    every = [v for values in per_query.values() for v in values]
    total = sum(wall for wall, _ in passes)
    return {
        "suite_s": statistics.median(wall for wall, _ in passes),
        "query_geomean_ms": geomean(1000 * statistics.median(v)
                                    for v in per_query.values()),
        "read_p50_ms": 1000 * statistics.median(every),
        "read_p99_ms": 1000 * percentile(every, 99),
        "reads_per_s": len(every) / total,
    }


def run_tpch(args, cold: bool, tracer: Tracer | None) -> dict:
    tally = Tally()
    if tracer is not None:
        tracer.install()
    db, setup_s = repeated_setup(lambda: build_tpch(args.seed),
                                 lambda db: None,
                                 1 if tracer else SETUP_REPEATS)
    setup_spans = tracer.take()[0] if tracer else []
    if tracer is not None:
        tracer.uninstall()
    # The reference is the benchmark's own cost: not part of setup_s.
    expected, disagreeing = expected_digests(db, args.seed)
    if not cold:
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        tpch_pass(db, expected, tally, cold=False)
        setup_s += perf_counter() - start
        if tracer is not None:
            setup_spans += tracer.take()[0]
            tracer.uninstall()

    passes = measure_passes(lambda: tpch_pass(db, expected, tally, cold),
                            args.seconds)
    result = {"tally": tally, "setup_s": setup_s,
              "metrics": tpch_metrics(passes),
              "problems": [f"reference disagrees with the stored digest on "
                           f"{name}" for name in disagreeing],
              "descriptor": descriptor(args, 1, "in-memory, no WAL"),
              "samples": (f"{len(passes)} passes of "
                          f"{sum(map(len, (p[1] for p in passes)))} queries;"
                          f" pass seconds "
                          f"{[round(p[0], 3) for p in passes]}")}
    if tracer is not None:
        tracer.install()
        traced = measure_passes(
            lambda: tpch_pass(db, expected, tally, cold, tracer),
            args.seconds)
        tracer.uninstall()
        spans, counts = tracer.take()
        breakdown = layer_breakdown(spans, {"bench.query"})
        overhead = (tpch_metrics(traced)["suite_s"]
                    / result["metrics"]["suite_s"])
        result["trace"] = {
            "spans": spans, "setup_spans": setup_spans, "counts": counts,
            "breakdown": breakdown, "per": len(traced),
            "per_what": "per 22-query pass", "overhead": overhead}
    return result


# -- refresh read/write workload ----------------------------------------------

VIEW_QUERY = ("select l_partkey, sum(l_quantity), count(*) "
              "from lineitem group by l_partkey")
VIEW_DDL = "create materialized view mv_part_qty as " + VIEW_QUERY
ORDER_COLUMNS = ("o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
                 "o_orderdate")
LINE_COLUMNS = "l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity"
READS = {
    "point": f"select {ORDER_COLUMNS} from orders where o_orderkey = ?",
    "recent": f"select {LINE_COLUMNS} from lineitem where l_orderkey = ?",
    "part": ("select sum(l_quantity), count(*) from lineitem "
             "where l_partkey = ?"),
}
#: The writer's rows, as the post-run checks read them back.
NEW_ORDERS = f"select {ORDER_COLUMNS} from orders where o_orderkey > ?"
NEW_LINES = f"select {LINE_COLUMNS} from lineitem where l_orderkey > ?"

#: One reader pass: the fixed ratio of the read mix, shuffled per pass.
READ_MIX = ("point",) * 10 + ("recent",) * 6 + ("part",) * 4
#: Recent lookups draw from this many most recently acknowledged orders.
RECENT_WINDOW = 16


class Ledger:
    """The writer's acknowledged transactions, and the expected answer
    to every read given what was acknowledged around it.

    One writer commits transactions in sequence, so a read's snapshot
    holds some prefix of them: at least those acknowledged before the
    read was sent, at most those acknowledged when its answer arrived
    plus the one then in flight.
    """

    def __init__(self, db: Database) -> None:
        self.lock = threading.Lock()
        self.orders = {row[0]: tuple(row) for row in db.execute(
            NEW_ORDERS, params=[0]).rows}
        self.base_max = max(self.orders)
        self.part_count = db.execute("select count(*) from part").scalar()
        self.supplier_count = db.execute(
            "select count(*) from supplier").scalar()
        self.parts = {row[0]: (row[1], row[2]) for row in db.execute(
            VIEW_QUERY, use_matviews=False).rows}
        self.lines: dict[int, list[tuple]] = defaultdict(list)
        for row in db.execute(NEW_LINES, params=[
                self.base_max - RECENT_WINDOW]).rows:
            self.lines[row[0]].append(tuple(row))
        self.recent = sorted(self.lines)
        self.next_key = self.base_max + 1
        self.committed: list[tuple] = []  # (order row, lineitem rows)
        self.in_flight: tuple | None = None
        self.part_history: dict[int, list[tuple]] = defaultdict(list)
        self.user_bytes = 0

    # -- writer side --------------------------------------------------------

    def new_order(self, rng: random.Random) -> tuple:
        """An RF1-style order with 1-7 lineitems under a fresh key (a
        failed write's key is never reused)."""
        key = self.next_key
        self.next_key += 1
        day = datetime.date(1998, 8, 3) + datetime.timedelta(
            days=rng.randrange(120))
        lines = []
        for number in range(1, rng.randint(1, 7) + 1):
            quantity = float(rng.randint(1, 50))
            lines.append((
                key, rng.randint(1, self.part_count),
                rng.randint(1, self.supplier_count), number, quantity,
                round(quantity * rng.uniform(9.0, 21.0), 2),
                rng.randrange(11) / 100.0, rng.randrange(9) / 100.0,
                "N", "O", day + datetime.timedelta(days=rng.randint(1, 120)),
                day + datetime.timedelta(days=rng.randint(30, 90)),
                day + datetime.timedelta(days=rng.randint(2, 150)),
                "DELIVER IN PERSON", "TRUCK", ""))
        total = round(sum(line[5] for line in lines), 2)
        order = (key, rng.randint(1, 1499), "O", total, day,
                 "3-MEDIUM", "Clerk#000000001", 0, "")
        with self.lock:
            self.in_flight = (order, lines)
            self.user_bytes += sum(len(json.dumps(row, default=str))
                                   for row in [order, *lines])
        return order, lines

    def ack(self) -> None:
        with self.lock:
            order, lines = self.in_flight
            index = len(self.committed)
            self.committed.append((order, lines))
            self.in_flight = None
            self.lines[order[0]] = [line[:5] for line in lines]
            self.recent.append(order[0])
            for line in lines:
                self.part_history[line[1]].append((index, line[4]))

    def abort(self) -> None:
        with self.lock:
            self.in_flight = None

    # -- reader side ----------------------------------------------------------

    def plan_read(self, kind: str, rng: random.Random):
        """``(parameter, check)`` for one read; ``check(rows)`` is True
        when the answer matches a snapshot the read could have seen."""
        if kind == "point":
            key = rng.randint(1, self.base_max)
            expected = [self.orders[key]]
            return key, lambda rows: rows == expected
        if kind == "recent":
            with self.lock:
                key = rng.choice(self.recent[-RECENT_WINDOW:])
                expected = sorted(self.lines[key])
            return key, lambda rows: sorted(rows) == expected
        part = rng.randint(1, self.part_count)
        with self.lock:
            low = len(self.committed)

        def check(rows) -> bool:
            return rows in self._part_answers(part, low)
        return part, check

    def _part_answers(self, part: int, low: int) -> list:
        with self.lock:
            high = len(self.committed)
            pending = self.in_flight
            history = list(self.part_history[part])
        total, count = self.parts.get(part, (None, 0))
        answers = []
        for prefix in range(high + 1):
            if prefix >= low:
                answers.append([(total, count)])
            for index, quantity in history:
                if index == prefix:
                    total = (total or 0.0) + quantity
                    count += 1
        if pending is not None:
            for line in pending[1]:
                if line[1] == part:
                    total = (total or 0.0) + line[4]
                    count += 1
            answers.append([(total, count)])
        return answers


def build_rw(seed: int, path: Path):
    shutil.rmtree(path, ignore_errors=True)
    db = Database(path=str(path))
    create_tpch_schema(db)
    generate_tpch(db, SCALE, seed)
    db.execute(VIEW_DDL)
    for name in db.table_names():
        db.table_statistics(name)
    for sql in READS.values():  # plan-cache warm-up
        db.execute(sql, params=[1])
    return db, QueryServer(db).start()


def teardown_rw(built, path: Path) -> None:
    db, server = built
    server.stop()
    db.close()
    shutil.rmtree(path, ignore_errors=True)


class RwStats:
    def __init__(self) -> None:
        self.reads: dict[str, list[float]] = defaultdict(list)
        self.writes: list[float] = []
        self.passes: list[float] = []
        self.errors: list[BaseException] = []
        self.elapsed = 0.0


def writer_loop(client: ServerClient, ledger: Ledger, rng: random.Random,
                deadline: float, tally: Tally, stats: RwStats,
                tracer: Tracer | None) -> None:
    def transaction(order, lines):
        client.begin()
        client.insert("orders", [order])
        client.insert("lineitem", lines)
        client.commit()

    while perf_counter() < deadline:
        order, lines = ledger.new_order(rng)
        began = perf_counter()
        try:
            if tracer is None:
                transaction(order, lines)
            else:
                tracer.request("bench.write", "write", transaction, order,
                               lines)
        except Exception as exc:  # counted as a failed write
            ledger.abort()
            tally.fail(f"write: {type(exc).__name__}: {exc}")
            try:
                client.rollback()
            except Exception:
                pass  # the failure is already counted
            continue
        stats.writes.append(perf_counter() - began)
        ledger.ack()
        tally.ok()


def reader_loop(client: ServerClient, ledger: Ledger, rng: random.Random,
                deadline: float, tally: Tally, stats: RwStats,
                tracer: Tracer | None) -> None:
    while perf_counter() < deadline:
        mix = list(READ_MIX)
        rng.shuffle(mix)
        started = perf_counter()
        complete = True
        for kind in mix:
            if perf_counter() >= deadline:
                complete = False
                break
            param, check = ledger.plan_read(kind, rng)
            began = perf_counter()
            try:
                if tracer is None:
                    result = client.query(READS[kind], [param])
                else:
                    result = tracer.request("bench.read", kind,
                                            client.query, READS[kind],
                                            [param])
            except Exception as exc:  # counted as a failed read
                tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - began
            if check([tuple(row) for row in result.rows]):
                stats.reads[kind].append(latency)
                tally.ok()
            else:
                tally.fail(f"{kind}({param}): unexpected {result.rows}")
        if complete:
            stats.passes.append(perf_counter() - started)


def rw_window(server: QueryServer, ledger: Ledger, rngs, seconds: float,
              tally: Tally, tracer: Tracer | None) -> RwStats:
    """Run the writer and the reader side by side for ``seconds``."""
    host, port = server.address[:2]
    stats = RwStats()
    clients = [ServerClient(host, port), ServerClient(host, port)]

    def guarded(loop, client, rng):
        def body():
            try:
                loop(client, ledger, rng, deadline, tally, stats, tracer)
            except BaseException as exc:  # re-raised by the main thread
                stats.errors.append(exc)
        return body

    threads = [threading.Thread(target=guarded(writer_loop, clients[0],
                                               rngs[0])),
               threading.Thread(target=guarded(reader_loop, clients[1],
                                               rngs[1]))]
    start = perf_counter()
    deadline = start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats.elapsed = perf_counter() - start
    for client in clients:
        client.close()
    if stats.errors:
        raise stats.errors[0]
    return stats


def rw_metrics(stats: RwStats) -> tuple[dict, dict]:
    reads = [v for values in stats.reads.values() for v in values]
    medians = [statistics.median(v) for v in stats.reads.values()]
    medians.append(statistics.median(stats.writes))
    metrics = {
        "suite_s": statistics.median(stats.passes),
        "query_geomean_ms": 1000 * geomean(medians),
        "read_p50_ms": 1000 * statistics.median(reads),
        "read_p99_ms": 1000 * percentile(reads, 99),
        "reads_per_s": len(reads) / stats.elapsed,
    }
    report = {
        "write_p50_ms": 1000 * statistics.median(stats.writes),
        "write_p90_ms": 1000 * percentile(stats.writes, 90),
        "writes_per_s": len(stats.writes) / stats.elapsed,
    }
    return metrics, report


def post_run_checks(path: Path, ledger: Ledger) -> tuple[float, list[str]]:
    """Reopen the database from its path and verify what survived.
    Returns the reopen (recovery) time and the problems found."""
    problems = []
    start = perf_counter()
    db = Database(path=str(path))
    recover_s = perf_counter() - start
    try:
        orders = {tuple(row) for row in db.execute(
            NEW_ORDERS, params=[ledger.base_max]).rows}
        lines = {tuple(row) for row in db.execute(
            NEW_LINES, params=[ledger.base_max]).rows}
        for order, order_lines in ledger.committed:
            if order[:5] not in orders:
                problems.append(f"acknowledged order {order[0]} missing "
                                f"after reopen")
            missing = [line[:5] for line in order_lines
                       if line[:5] not in lines]
            if missing:
                problems.append(f"{len(missing)} lineitems of order "
                                f"{order[0]} missing after reopen")
        rewrites = db.matviews.rewrites
        viewed = sorted(db.execute(VIEW_QUERY).rows)
        if db.matviews.rewrites == rewrites:
            problems.append("the view did not answer the per-part query")
        if viewed != sorted(db.execute(VIEW_QUERY, use_matviews=False).rows):
            problems.append("view answers differ from the base table")
    finally:
        db.close()
    return recover_s, problems


def run_rw(args, tracer: Tracer | None) -> dict:
    tally = Tally()
    work = OUT / f"rw-{os.getpid()}"
    path = work / "db"
    try:
        if tracer is not None:
            tracer.install()
        (db, server), setup_s = repeated_setup(
            lambda: build_rw(args.seed, path),
            lambda built: teardown_rw(built, path),
            1 if tracer else SETUP_REPEATS)
        setup_spans = tracer.take()[0] if tracer else []
        if tracer is not None:
            tracer.uninstall()
        flush = db.durability_status()
        flush_policy = (f"WAL on, fsync={flush['fsync']}, "
                        f"checkpoint_bytes={flush['checkpoint_bytes']}")
        # Expected answers are the benchmark's own cost: not in setup_s.
        ledger = Ledger(db)
        rngs = (random.Random(args.seed * 2 + 1),
                random.Random(args.seed * 2 + 2))
        stats = rw_window(server, ledger, rngs, args.seconds, tally, None)
        metrics, report = rw_metrics(stats)
        result = {"tally": tally, "setup_s": setup_s, "metrics": metrics,
                  "report": report, "problems": [],
                  "descriptor": descriptor(args, 2, flush_policy),
                  "samples": (f"{sum(map(len, stats.reads.values()))} "
                              f"reads in {len(stats.passes)} full passes, "
                              f"{len(stats.writes)} writes, "
                              f"{stats.elapsed:.2f} s window")}
        if tracer is not None:
            rewrites = db.matviews.rewrites
            user_bytes = ledger.user_bytes
            tracer.install()
            traced = rw_window(server, ledger, rngs, args.seconds, tally,
                               tracer)
            tracer.uninstall()
            spans, counts = tracer.take()
            ops = len(stats.writes) + sum(map(len, stats.reads.values()))
            traced_ops = (len(traced.writes)
                          + sum(map(len, traced.reads.values())))
            result["trace"] = {
                "spans": spans, "setup_spans": setup_spans,
                "counts": counts,
                "breakdown": layer_breakdown(spans,
                                             {"bench.read", "bench.write"}),
                "per": 1, "per_what": f"over the {args.seconds}s window",
                "overhead": ((ops / stats.elapsed)
                             / (traced_ops / traced.elapsed)),
                "rewrite_ratio": ((db.matviews.rewrites - rewrites)
                                  / max(1, len(traced.reads["part"]))),
                "user_bytes": ledger.user_bytes - user_bytes}
        server.stop()
        db.close()
        recover_s, problems = post_run_checks(path, ledger)
        result["problems"] += problems
        result["recover_s"] = recover_s
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- reporting ---------------------------------------------------------------


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    breakdown = trace["breakdown"]
    per = trace["per"]
    layers = breakdown["layers"]
    counts = trace["counts"]
    values = {name: 0.0 for name in PER_LAYER}
    for metric, span in LAYER_MS.items():
        values[metric] = 1000 * layers.get(span, 0.0) / per
    for metric, span in PER_QUERY.items():
        for (name, label), seconds in breakdown["by_label"].items():
            if name == span and label in QUERIES:
                values[f"{metric}.{label}"] = 1000 * seconds / per
    end_to_end = breakdown["end_to_end"]
    values["core.optimizer.optimize_share"] = (
        layers.get("core.optimizer.optimize", 0.0) / end_to_end)
    values["catalog.stats_build_ms"] = 1000 * sum(
        span[END] - span[START] for span in trace["setup_spans"]
        if span[NAME] == "catalog.stats_build")
    if counts["plancache.gets"]:
        values["plancache.hit_ratio"] = (counts["plancache.hits"]
                                         / counts["plancache.gets"])
    values["storage.clone_calls"] = (
        breakdown["calls"].get("storage.clone", 0) / per)
    values["matview.rewrite_ratio"] = trace.get("rewrite_ratio", 0.0)
    values["durability.fsync_calls"] = counts["durability.fsync_calls"] / per
    if trace.get("user_bytes"):
        values["durability.wal_bytes_per_user_byte"] = (
            counts["durability.wal_bytes"] / trace["user_bytes"])
    values["durability.recover_s"] = result.get("recover_s", 0.0)
    values["unattributed_ms"] = 1000 * breakdown["unattributed"] / per
    values["traced_end_to_end_ms"] = 1000 * end_to_end / per
    values["trace_overhead"] = trace["overhead"]
    return values


def print_layer_table(result: dict) -> None:
    trace = result["trace"]
    breakdown = trace["breakdown"]
    per = trace["per"]
    end_to_end = breakdown["end_to_end"]
    print(f"layer self time, {trace['per_what']} "
          f"(traced end-to-end {1000 * end_to_end / per:.1f} ms):")
    print(f"  {'layer':<28}{'calls':>10}{'self ms':>12}{'share':>8}")
    rows = sorted(breakdown["layers"].items(), key=lambda kv: -kv[1])
    for name, seconds in rows + [("unattributed",
                                  breakdown["unattributed"])]:
        calls = breakdown["calls"].get(name, "")
        calls = f"{calls / per:.0f}" if calls != "" else ""
        print(f"  {name:<28}{calls:>10}{1000 * seconds / per:>12.1f}"
              f"{seconds / end_to_end:>8.1%}")
    summed = sum(breakdown["layers"].values()) + breakdown["unattributed"]
    print(f"  layers + unattributed = {1000 * summed / per:.1f} ms "
          f"= traced end-to-end")
    print(f"tracing overhead (traced / untraced): {trace['overhead']:.3f}")


def write_trace(result: dict, args) -> Path:
    OUT.mkdir(exist_ok=True)
    target = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace = result["trace"]
    fields = ("id", "parent", "request", "name", "label", "start", "end")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump({"descriptor": result["descriptor"],
                   "span_fields": fields,
                   "setup_spans": trace["setup_spans"],
                   "spans": trace["spans"],
                   "counts": dict(trace["counts"])}, handle)
    return target


def write_digests() -> None:
    """Regenerate ``expected_digests.json`` at the default seed, after
    checking that the measured path and the reference agree."""
    db = build_tpch(DEFAULT_SEED)
    digests = {}
    for name, sql in QUERIES.items():
        measured = digest(db.execute(sql).rows)
        reference = db.execute(sql, mode="correlated",
                               engine="vectorized").rows
        if not matches(reference, measured):
            raise SystemExit(f"{name}: measured and reference disagree")
        digests[name] = measured
    DIGESTS.write_text(json.dumps(
        {"scale_factor": SCALE, "seed": DEFAULT_SEED,
         "significant_digits": SIGNIFICANT_DIGITS, "digests": digests},
        indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate the expected digests and exit")
    args = parser.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    tracer = Tracer() if args.trace else None
    if args.workload == "refresh_rw":
        result = run_rw(args, tracer)
    else:
        result = run_tpch(args, args.workload == "tpch_cold", tracer)
    tally = result["tally"]
    metrics = dict(result["metrics"], setup_s=result["setup_s"],
                   peak_rss_mb=peak_rss_mb())
    report = dict(result.get("report", {}),
                  failed_share=tally.failed / tally.attempted)
    print("descriptor " + json.dumps(result["descriptor"]))
    print(f"{args.workload}: {tally.attempted} operations, "
          f"{tally.failed} failed; measured {result['samples']}")
    for name, unit in {**END_TO_END, **REPORT_ONLY}.items():
        value = metrics.get(name, report.get(name))
        if value is not None:
            print(f"  {name:<18}{value:>14.4f} {unit}")
    if "recover_s" in result:
        print(f"  durability.recover_s {result['recover_s']:.3f} s "
              f"(post-run reopen)")
    for message in tally.messages + result["problems"]:
        print(f"  FAILED: {message}")
    correct = tally.failed == 0 and not result["problems"]
    if tracer is None:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    else:
        print_layer_table(result)
        print(f"trace written to {write_trace(result, args)}")
        values = per_layer_metrics(result)
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
