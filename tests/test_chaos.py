"""Chaos tests: deterministic fault injection at every registered site.

For each site the contract is differential — the query must either
return exactly the rows the naive interpreter produces (possibly
flagged ``degraded``) or raise a governor/``ReproError`` error; it must
never silently return wrong rows.  Degraded plans must never enter the
plan cache.
"""

import os
from collections import Counter

import pytest

from repro import (FULL, Database, DataType, InjectedFault, NAIVE,
                   ReproError)
from repro.faultinject import (INJECTION_SITES, fail_always, fail_at,
                               fail_randomly, is_active)

QUERIES = [
    "select a from t where b > 3 order by a",
    "select b, count(*) from t group by b order by b",
    ("select a from t where exists "
     "(select * from u where ua = b) order by a"),
    ("select a, (select count(*) from u where ua = b) from t "
     "where a < 40 order by a"),
]

#: Sites on the server path (sessions, admission, wire); they never fire
#: during a plain ``db.execute`` and are exercised in TestServerChaos.
SERVER_SITES = {"admission.enqueue", "snapshot.install", "wire.decode"}

#: Sites on the durability path (WAL, checkpoint, recovery); they never
#: fire on an in-memory database and are exercised by the crash-recovery
#: harness in tests/test_durability_chaos.py.
DURABILITY_SITES = {"wal.append", "wal.fsync", "wal.checkpoint",
                    "recovery.replay"}

#: Sites whose failure is survivable — execute() degrades or shrugs and
#: still returns correct rows.  ``executor.naive`` is the last rung of
#: the ladder, so a fault there is allowed to surface as an error.
RECOVERABLE_SITES = sorted(INJECTION_SITES - {"executor.naive"}
                           - SERVER_SITES - DURABILITY_SITES)

#: Sites where recovery must mark the result degraded (the cost-based
#: plan was abandoned).  Plan-cache faults are absorbed silently.
DEGRADING_SITES = {"optimizer.explore", "optimizer.memo",
                   "optimizer.implement", "executor.open"}


@pytest.fixture
def db():
    database = Database()
    database.create_table("t", [("a", DataType.INTEGER, False),
                                ("b", DataType.INTEGER, False)],
                          primary_key=("a",))
    database.create_table("u", [("uk", DataType.INTEGER, False),
                                ("ua", DataType.INTEGER, False)],
                          primary_key=("uk",))
    database.insert("t", [(i, i % 7) for i in range(80)])
    database.insert("u", [(i, i % 11) for i in range(60)])
    return database


def reference_rows(db, sql):
    """Naive-interpreter reference, computed before any fault is armed."""
    return Counter(db.execute(sql, NAIVE).rows)


class TestSiteRegistry:
    def test_expected_sites_registered(self):
        assert INJECTION_SITES == {
            "optimizer.explore", "optimizer.memo", "optimizer.implement",
            "plancache.get", "plancache.put", "executor.open",
            "columnar.decode", "executor.naive", "analyzer.check",
            "admission.enqueue", "snapshot.install", "wire.decode",
            "feedback.record", "wal.append", "wal.fsync", "wal.checkpoint",
            "recovery.replay", "matview.refresh"}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            fail_at("no.such.site")

    def test_inactive_by_default(self):
        assert not is_active()


class TestSingleFaultRecovery:
    @pytest.mark.parametrize("site", RECOVERABLE_SITES)
    @pytest.mark.parametrize("sql", QUERIES)
    def test_one_shot_fault_recovers_with_correct_rows(self, db, site,
                                                       sql):
        expected = reference_rows(db, sql)
        db.plan_cache.invalidate()
        with fail_at(site, n=1) as (trigger,):
            result = db.execute(sql, FULL)
        assert not is_active()
        assert Counter(result.rows) == expected
        if trigger.fired and site in DEGRADING_SITES:
            assert result.degraded
            assert result.stats.fallback_reason
        if site.startswith("plancache."):
            assert not result.degraded  # cache faults are invisible

    @pytest.mark.parametrize("site", ["optimizer.explore",
                                      "optimizer.memo",
                                      "optimizer.implement"])
    def test_persistent_optimizer_fault_falls_to_naive_tier(self, db,
                                                            site):
        sql = QUERIES[1]
        expected = reference_rows(db, sql)
        db.plan_cache.invalidate()
        with fail_always(site):
            # Both the cost-based and the heuristic tier keep faulting,
            # so execution lands on the naive interpreter — still right.
            result = db.execute(sql, FULL)
        assert result.degraded
        assert Counter(result.rows) == expected

    def test_naive_tier_fault_surfaces(self, db):
        with fail_always("executor.naive"):
            with pytest.raises(InjectedFault):
                db.execute(QUERIES[0], NAIVE)

    def test_execution_fault_reruns_naively(self, db):
        sql = QUERIES[2]
        expected = reference_rows(db, sql)
        with fail_at("executor.open", n=1) as (trigger,):
            result = db.execute(sql, FULL)
        assert trigger.fired
        assert result.degraded
        assert "fault" in result.stats.fallback_reason
        assert Counter(result.rows) == expected


class TestCacheHygiene:
    @pytest.mark.parametrize("site", ["optimizer.explore",
                                      "optimizer.memo",
                                      "optimizer.implement"])
    def test_degraded_plans_never_cached(self, db, site):
        sql = QUERIES[3]
        db.plan_cache.invalidate()
        with fail_always(site):
            result = db.execute(sql, FULL)
        assert result.degraded
        assert len(db.plan_cache) == 0
        # The next clean run optimizes from scratch and does cache.
        clean = db.execute(sql, FULL)
        assert not clean.degraded
        assert len(db.plan_cache) == 1

    def test_execution_fault_keeps_the_healthy_plan_cached(self, db):
        # executor.open strikes after optimization succeeded: the result
        # degrades (naive rerun) but the cached plan is the good one.
        sql = QUERIES[3]
        db.plan_cache.invalidate()
        with fail_at("executor.open", n=1):
            result = db.execute(sql, FULL)
        assert result.degraded
        assert len(db.plan_cache) == 1
        clean = db.execute(sql, FULL)  # served from cache, healthy
        assert not clean.degraded

    def test_cache_put_fault_skips_admission(self, db):
        sql = QUERIES[0]
        db.plan_cache.invalidate()
        with fail_at("plancache.put", n=1):
            result = db.execute(sql, FULL)
        assert not result.degraded
        assert len(db.plan_cache) == 0

    def test_cache_get_fault_is_a_miss(self, db):
        sql = QUERIES[0]
        expected = reference_rows(db, sql)
        db.execute(sql, FULL)  # populate the cache
        with fail_at("plancache.get", n=1):
            result = db.execute(sql, FULL)
        assert Counter(result.rows) == expected


class TestAnalyzerFaults:
    """A fault inside the static analyzer must never take a query down:
    the analyzer skips its check and the pipeline proceeds untouched."""

    def test_analyzer_fault_skips_the_check_not_the_query(self, db,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "strict")
        sql = QUERIES[3]
        expected = reference_rows(db, sql)
        db.plan_cache.invalidate()
        with fail_always("analyzer.check"):
            result = db.execute(sql, FULL)
        assert not result.degraded
        assert Counter(result.rows) == expected
        assert len(db.plan_cache) == 1  # admission proceeded unchecked

    def test_analyzer_runs_once_the_fault_clears(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYZE", "strict")
        sql = QUERIES[0]
        expected = reference_rows(db, sql)
        db.plan_cache.invalidate()
        with fail_at("analyzer.check", n=1) as (trigger,):
            result = db.execute(sql, FULL)
        assert trigger.fired
        assert not result.degraded
        assert Counter(result.rows) == expected


class TestServerChaos:
    """Faults at the server-path sites: each takes down at most the one
    request it struck, never the session, connection or server."""

    def test_snapshot_install_fault_aborts_commit_atomically(self, db):
        before = db.execute("select count(*) from t", NAIVE).scalar()
        session = db.session()
        session.begin()
        session.insert("t", [(1000, 0), (1001, 1)])
        with fail_at("snapshot.install", n=1):
            with pytest.raises(InjectedFault):
                session.commit()
        # Nothing was installed and the writer lock was released: the
        # next transaction proceeds normally.
        assert db.execute("select count(*) from t", NAIVE).scalar() == before
        session.begin()
        session.insert("t", [(1000, 0)])
        session.commit()
        assert (db.execute("select count(*) from t", NAIVE).scalar()
                == before + 1)
        session.close()

    def test_admission_enqueue_fault_fails_one_request_only(self, db):
        from repro.server import QueryServer, ServerClient

        with QueryServer(db, max_workers=2) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                with fail_at("admission.enqueue", n=1):
                    with pytest.raises(ReproError):
                        client.query("select a from t where a < 3")
                # Same connection, next request: served normally.
                result = client.query(
                    "select a from t where a < 3 order by a")
                assert result.rows == [(0,), (1,), (2,)]

    def test_wire_decode_fault_fails_one_request_only(self, db):
        from repro.errors import ProtocolError
        from repro.server import QueryServer, ServerClient

        with QueryServer(db, max_workers=2) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                with fail_at("wire.decode", n=1):
                    with pytest.raises(ProtocolError):
                        client.ping()
                assert client.ping()  # connection survived the fault

    def test_killed_worker_degrades_one_query_never_the_server(self, db):
        from repro.server import QueryServer, ServerClient

        with QueryServer(db, max_workers=2) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                # A worker dying mid-query surfaces as executor faults;
                # the engine degrades to the naive tier and still answers
                # (or, at worst, errors that one request).
                with fail_always("executor.open"):
                    result = client.query(
                        "select a from t where a < 3 order by a")
                    assert result.degraded
                    assert result.rows == [(0,), (1,), (2,)]
                clean = client.query(
                    "select a from t where a < 3 order by a")
                assert not clean.degraded
                assert server.metrics()["admission"]["completed"] >= 2


class TestRandomChaos:
    RATE = 0.05
    SEEDS = range(8 if os.environ.get("REPRO_CHAOS") else 3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_faults_never_corrupt_results(self, db, seed):
        with fail_randomly(self.RATE, seed=seed):
            for sql in QUERIES:
                expected = None
                try:
                    expected = reference_rows(db, sql)
                    result = db.execute(sql, FULL)
                except ReproError:
                    continue  # an error is acceptable; wrong rows are not
                if expected is not None:
                    assert Counter(result.rows) == expected
        assert not is_active()
