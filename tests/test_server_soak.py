"""Acceptance soak: the concurrency bar the server subsystem must clear.

Eight concurrent sessions each run 200 mixed queries (cost-based and
naive modes, reads over shared tables plus writes to session-private
tables)
with **zero errors**, and every per-query result is bit-identical to a
serial replay of the same per-session statement sequence.  At steady
state the plan cache must serve ≥90% of lookups, and with the queue
bound turned down the server must shed with ``ServerOverloaded`` rather
than deadlock.

Set ``REPRO_STRESS=1`` to multiply the rounds for CI stress sweeps.
"""

import os
import threading

import pytest

from repro import Database, DataType
from repro.errors import ServerOverloaded
from repro.server import QueryServer, ServerClient

SESSIONS = 8
QUERIES_PER_SESSION = 200
STRESS = int(os.environ.get("REPRO_STRESS", "0") or "0")
ROUNDS_SCALE = 3 if STRESS else 1

#: Read-only statements over the shared tables.  ``{p}`` is the
#: session-private table, so writes never collide across sessions and a
#: serial replay of one session's sequence is deterministic.
STATEMENTS = [
    ("shared", "select a from t where b = 1 order by a"),
    ("shared", "select b, count(*) from t group by b order by b"),
    ("shared", ("select a from t where exists "
                "(select * from u where ua = b) order by a")),
    ("shared", ("select a, (select count(*) from u where ua = b) "
                "from t where a < 40 order by a")),
    ("shared", "select max(a), min(b) from t"),
    ("private", "select count(*) from {p}"),
    ("insert", None),
    ("private", "select sum(k) from {p}"),
]
MODES = ("full", "full", "full", "naive")  # mostly cached cost-based plans


def build_db() -> Database:
    db = Database(plan_cache_shards=4)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, False)],
                    primary_key=("a",))
    db.create_table("u", [("uk", DataType.INTEGER, False),
                          ("ua", DataType.INTEGER, False)],
                    primary_key=("uk",))
    db.insert("t", [(i, i % 7) for i in range(80)])
    db.insert("u", [(i, i % 11) for i in range(60)])
    for n in range(SESSIONS):
        db.create_table(f"p{n}", [("k", DataType.INTEGER, False)],
                        primary_key=("k",))
    return db


def session_plan(seed: int) -> list:
    """The deterministic statement sequence for session ``seed``:
    (kind, sql, mode) tuples, with inserts materialized."""
    plan = []
    insert_key = iter(range(100_000))
    for step in range(QUERIES_PER_SESSION * ROUNDS_SCALE):
        kind, sql = STATEMENTS[(seed + step) % len(STATEMENTS)]
        mode = MODES[(seed * 3 + step) % len(MODES)]
        if kind == "insert":
            rows = [(next(insert_key),) for _ in range(2)]
            plan.append(("insert", rows, None))
        else:
            plan.append(("query", sql.format(p=f"p{seed}"), mode))
    return plan


def run_plan(session, seed: int, sink) -> None:
    for entry in session_plan(seed):
        if entry[0] == "insert":
            session.insert(f"p{seed}", entry[1])
        else:
            _, sql, mode = entry
            sink.append(session.execute(sql, mode=mode).rows)


def test_soak_eight_sessions_bit_identical_with_hot_cache():
    # Serial replay first: each session's sequence against a private
    # database gives the per-session expected results.
    expected: dict[int, list] = {}
    for seed in range(SESSIONS):
        db = build_db()
        with db.session() as session:
            sink: list = []
            run_plan(session, seed, sink)
            expected[seed] = sink

    # Now all eight concurrently against one shared database.
    db = build_db()
    warm = db.session()
    for seed in range(SESSIONS):  # warm the plan cache, then measure
        for entry in session_plan(seed)[:len(STATEMENTS)]:
            if entry[0] == "query":
                warm.execute(entry[1], mode=entry[2])
    warm.close()
    db.plan_cache.stats.reset()

    errors: list[str] = []
    barrier = threading.Barrier(SESSIONS)

    def drive(seed: int) -> None:
        try:
            barrier.wait()
            with db.session() as session:
                sink: list = []
                run_plan(session, seed, sink)
            if sink != expected[seed]:
                diverged = sum(a != b for a, b in zip(sink, expected[seed]))
                errors.append(
                    f"session {seed}: {diverged} results diverged "
                    f"from serial replay")
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(f"session {seed}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=drive, args=(seed,))
               for seed in range(SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not any(t.is_alive() for t in threads), "soak deadlocked"
    assert not errors, errors

    stats = db.plan_cache.stats
    assert stats.hits + stats.misses > 0
    assert stats.hit_rate >= 0.90, stats.as_dict()
    assert db.open_session_count == 0


def test_overload_sheds_instead_of_deadlocking():
    """With a tiny queue bound and one worker, a thundering herd gets a
    mix of served and shed requests — every client hears back, none
    hangs."""
    db = build_db()
    with QueryServer(db, max_workers=1, max_queue_depth=2) as server:
        host, port = server.address
        outcomes: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(10)

        def client_thread(n: int) -> None:
            try:
                barrier.wait()
                with ServerClient(host, port, timeout=120) as client:
                    for _ in range(5):
                        try:
                            client.query(
                                "select b, count(*) from t "
                                "group by b order by b")
                            with lock:
                                outcomes.append("ok")
                        except ServerOverloaded:
                            with lock:
                                outcomes.append("shed")
            except BaseException as exc:  # pragma: no cover
                with lock:
                    outcomes.append(f"unexpected: {exc!r}")

        threads = [threading.Thread(target=client_thread, args=(n,))
                   for n in range(10)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads), "clients hung"
        assert len(outcomes) == 50
        bad = [o for o in outcomes if o.startswith("unexpected")]
        assert not bad, bad
        assert outcomes.count("ok") >= 1  # the server kept serving
        metrics = server.metrics()
        assert metrics["shed"] == outcomes.count("shed")
