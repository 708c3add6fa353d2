"""Snapshot isolation, attacked two ways.

1. A hypothesis-driven interleaving test: random schedules of staged and
   autocommit inserts, DDL, begin/commit/rollback and reads across three
   sessions are replayed against a trivial Python shadow model.  The
   database's answer to every read must match the model exactly — the
   reader never sees uncommitted data, a pinned snapshot never moves,
   and read-your-own-writes holds inside a transaction.

2. A differential multi-thread TPC-H replay: eight concurrent sessions
   each run a query workload against a static database, and every single
   result must be bit-identical (values *and* row order) to the serial
   replay of the same workload.  Any torn read, stale cache entry or
   shared-executable race shows up as a diff.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DataType
from repro.tpch import QUERIES, create_tpch_schema, generate_tpch

# -- 1. model-checked interleavings ------------------------------------------------

OPS = st.lists(
    st.sampled_from(["w_insert", "o_insert", "begin", "commit", "rollback",
                     "read_r", "read_w", "ddl"]),
    min_size=4, max_size=24)


@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_interleavings_match_shadow_model(ops):
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.create_table("u", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    writer = db.session()
    other = db.session()
    reader = db.session()

    committed = {"t": 0, "u": 0}      # shadow model: committed row counts
    snap = None                       # writer's pinned counts at begin()
    pending_t = 0                     # rows the writer has staged into t
    next_key = iter(range(10_000))
    ddl_seq = iter(range(10_000))

    try:
        for op in ops:
            if op == "w_insert":
                rows = [(next(next_key),) for _ in range(2)]
                writer.insert("t", rows)
                if writer.in_transaction:
                    pending_t += len(rows)
                else:
                    committed["t"] += len(rows)
            elif op == "o_insert":
                # Autocommit from a different session, different table —
                # visible to new snapshots immediately, invisible to the
                # writer's pinned one.
                rows = [(next(next_key),) for _ in range(3)]
                other.insert("u", rows)
                committed["u"] += len(rows)
            elif op == "begin":
                if not writer.in_transaction:
                    writer.begin()
                    snap = dict(committed)
                    pending_t = 0
            elif op == "commit":
                if writer.in_transaction:
                    writer.commit()
                    committed["t"] += pending_t
                    snap, pending_t = None, 0
            elif op == "rollback":
                if writer.in_transaction:
                    writer.rollback()
                    snap, pending_t = None, 0
            elif op == "read_r":
                # The reader autocommits: every statement pins a fresh
                # snapshot and must see exactly the committed state.
                for table in ("t", "u"):
                    got = reader.execute(
                        f"select count(*) from {table}").scalar()
                    assert got == committed[table], (op, table, ops)
            elif op == "read_w":
                base = snap if writer.in_transaction else committed
                got_t = writer.execute("select count(*) from t").scalar()
                got_u = writer.execute("select count(*) from u").scalar()
                extra = pending_t if writer.in_transaction else 0
                assert got_t == base["t"] + extra, (op, ops)
                assert got_u == base["u"], (op, ops)
            elif op == "ddl":
                # DDL autocommits (from a session with no open txn) and
                # must not disturb anyone's pinned snapshot or the data.
                if not writer.in_transaction:
                    other.create_index(f"ix_u_{next(ddl_seq)}", "u", ["k"])
    finally:
        writer.close(); other.close(); reader.close()


def test_pinned_snapshot_survives_concurrent_ddl_and_inserts():
    """A transaction's reads are frozen even while another session
    inserts into the same table (the txn holds no lock until it
    writes)."""
    db = Database()
    db.create_table("t", [("k", DataType.INTEGER, False)],
                    primary_key=("k",))
    db.insert("t", [(i,) for i in range(5)])
    txn = db.session()
    txn.begin()
    assert txn.execute("select count(*) from t").scalar() == 5
    with db.session() as background:
        background.insert("t", [(100,), (101,)])
        background.create_index("ix_t_k", "t", ["k"])
    # Still the world as of begin(), despite two installs since.
    assert txn.execute("select count(*) from t").scalar() == 5
    txn.commit()
    assert txn.execute("select count(*) from t").scalar() == 7
    txn.close()


# -- 2. differential multi-thread TPC-H replay -------------------------------------

REPLAY_QUERIES = ["Q1", "Q3", "Q4", "Q6", "Q12", "Q14"]
THREADS = 8
ROUNDS = 3


@pytest.fixture(scope="module")
def tpch_db():
    db = Database()
    create_tpch_schema(db)
    generate_tpch(db, scale_factor=0.0005, seed=13)
    return db


def test_concurrent_replay_bit_identical_to_serial(tpch_db):
    db = tpch_db

    def workload(seed: int) -> list:
        """The exact statement sequence thread ``seed`` will run: the
        replay queries, rotated per thread and round."""
        plan = []
        for round_no in range(ROUNDS):
            shift = (seed + round_no) % len(REPLAY_QUERIES)
            plan.extend(REPLAY_QUERIES[shift:] + REPLAY_QUERIES[:shift])
        return plan

    serial = {name: db.execute(QUERIES[name]).rows
              for name in REPLAY_QUERIES}

    failures: list[str] = []
    barrier = threading.Barrier(THREADS)

    def replay(seed: int) -> None:
        try:
            barrier.wait()
            with db.session() as session:
                for name in workload(seed):
                    rows = session.execute(QUERIES[name]).rows
                    if rows != serial[name]:
                        failures.append(
                            f"thread {seed}: {name} diverged")
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(f"thread {seed}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=replay, args=(seed,))
               for seed in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not failures, failures
