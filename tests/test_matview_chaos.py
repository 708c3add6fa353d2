"""Crash-recovery chaos for materialized views.

Views are derived state: whatever fault fires — at ``matview.refresh``
(before every view recompute and before each per-commit delta merge) or
at any other registered site — recovery must never produce a view whose
contents disagree with recomputing its defining query over the
recovered base table.  The harness arms one fault, runs a workload of
view DDL plus base-table commits, "crashes" (closes without a
checkpoint), recovers, and compares every surviving view's backing rows
against a fresh recompute from base.
"""

from __future__ import annotations

import pytest

from repro import Database, DataType, InjectedFault, ReproError
from repro import faultinject

VIEW_SQL = ("SELECT g, count(*) AS n, sum(v) AS s, avg(v) AS a "
            "FROM t GROUP BY g")
#: VIEW_SQL's backing layout (g, cnt_star, sum_v, cnt_v), recomputed
#: from base as a plain query, independently of the view's own plan.
RECOMPUTE_SQL = "SELECT g, count(*), sum(v), count(v) FROM t GROUP BY g"

#: Sites exercised by this workload's paths (view build/refresh/merge,
#: WAL commit, checkpoint, recovery replay, executor open).
SITES = sorted(faultinject.sites())

TXN_COUNT = 4


def make_db(path, **kwargs):
    db = Database(path=str(path), **kwargs)
    if not db.catalog.has_table("t"):
        db.create_table("t", [("g", DataType.INTEGER, False),
                              ("v", DataType.INTEGER, True)])
    return db


def run_workload(db):
    """View create/refresh interleaved with base commits; every step is
    allowed to fail (the armed fault), never to corrupt."""
    steps = [
        lambda: db.execute("CREATE MATERIALIZED VIEW mv AS " + VIEW_SQL),
        lambda: db.insert("t", [(1, 10), (2, None), (1, 5)]),
        lambda: db.execute("REFRESH MATERIALIZED VIEW mv"),
    ]

    def txn(i):
        with db.session() as session:
            session.begin()
            session.insert("t", [(i % 3, 100 * i), (i % 3, None)])
            session.commit()

    for i in range(1, TXN_COUNT + 1):
        steps.append(lambda i=i: txn(i))
    survived = 0
    for step in steps:
        try:
            step()
        except (InjectedFault, ReproError):
            pass
        else:
            survived += 1
    return survived


def assert_views_consistent(db):
    """Every registered view's backing must equal a recompute from base."""
    for viewdef in db.catalog.matviews():
        stored = sorted(db.storage.get(viewdef.name).rows)
        recomputed = sorted(
            db.execute(RECOMPUTE_SQL, use_matviews=False).rows)
        assert stored == recomputed, (
            f"view {viewdef.name!r} inconsistent with base after "
            f"recovery: {stored} != {recomputed}")


class TestMatViewCrashSchedules:
    @pytest.mark.parametrize("site", SITES)
    def test_crash_at_every_site_leaves_views_consistent(self, tmp_path,
                                                         site):
        db = make_db(tmp_path)
        with faultinject.fail_at(site, n=1):
            run_workload(db)
        db.close()  # crash: no checkpoint, recovery does all the work

        reopened = make_db(tmp_path)
        assert_views_consistent(reopened)
        # The database stays fully usable: base writes keep maintaining
        # whatever views survived.
        reopened.insert("t", [(0, 777)])
        assert_views_consistent(reopened)
        reopened.close()

    @pytest.mark.parametrize("nth", range(1, TXN_COUNT + 2))
    def test_every_refresh_ordinal(self, tmp_path, nth):
        """`matview.refresh` fires per recompute *and* per delta merge;
        crash at each ordinal in turn."""
        db = make_db(tmp_path)
        with faultinject.fail_at("matview.refresh", n=nth):
            run_workload(db)
        db.close()

        reopened = make_db(tmp_path)
        assert_views_consistent(reopened)
        reopened.close()

    def test_failed_maintenance_fails_the_commit_atomically(self, tmp_path):
        """A fault during delta merge aborts the whole commit: neither
        the base rows nor the view change."""
        db = make_db(tmp_path)
        db.execute("CREATE MATERIALIZED VIEW mv AS " + VIEW_SQL)
        db.insert("t", [(1, 10)])
        base_before = sorted(db.storage.get("t").rows)
        view_before = sorted(db.storage.get("mv").rows)
        with faultinject.fail_always("matview.refresh"):
            with pytest.raises(InjectedFault):
                db.insert("t", [(1, 999)])
        assert sorted(db.storage.get("t").rows) == base_before
        assert sorted(db.storage.get("mv").rows) == view_before
        db.close()

    def test_recovery_rebuild_failure_is_a_recovery_error(self, tmp_path):
        """A fault during the end-of-recovery rebuild surfaces as a
        recovery failure instead of opening with a stale view."""
        from repro import RecoveryError
        db = make_db(tmp_path)
        db.execute("CREATE MATERIALIZED VIEW mv AS " + VIEW_SQL)
        db.insert("t", [(1, 10)])
        db.close()
        with faultinject.fail_at("matview.refresh", n=1):
            with pytest.raises(RecoveryError):
                make_db(tmp_path)
        # Disarmed, the same directory opens cleanly.
        reopened = make_db(tmp_path)
        assert_views_consistent(reopened)
        reopened.close()
