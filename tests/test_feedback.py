"""Adaptive optimization: cardinality feedback, Q-error, EXPLAIN ANALYZE.

Covers the full loop — executors count actual rows per operator, the
feedback loop computes Q-errors and persists corrections, misestimated
cached plans are flagged stale and re-optimized against corrected
statistics — plus the unified explain API (``ExplainOptions``, the
deprecated positional ``costs``, SQL-level ``EXPLAIN [ANALYZE]``, dict
format) and the wire-level ``stats`` round-trip.
"""

import json
import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings

from repro import (FULL, NAIVE, Database, DataType, ExplainOptions,
                   QueryResult, QueryServer, QueryStats, ServerClient,
                   SqlSyntaxError, q_error)
from repro.catalog.statistics import (CardinalityCorrection,
                                      CorrectionStore)
from repro.faultinject import fail_always, fail_at
from repro.stats_version import capture

from tests.test_differential import (build_db, query, s_rows_strategy,
                                     t_rows_strategy)

SKEW_SQL = "select a from t where b = 0 order by a"


def skewed_db(**kwargs) -> Database:
    """100 rows, 80 of them with ``b = 0``: the uniform equality model
    (1/distinct) estimates ~4.8 rows for ``b = 0`` against an actual 80,
    a Q-error around 17 — far past any reasonable threshold."""
    db = Database(**kwargs)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, True)],
                    primary_key=("a",))
    db.insert("t", [(i, 0 if i < 80 else i) for i in range(100)])
    return db


SKEW_EXPECTED = [(i,) for i in range(80)]


# -- q_error -------------------------------------------------------------------


class TestQError:
    def test_exact_estimate_is_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(1, 100) == q_error(100, 1) == 100.0

    def test_floored_at_one_row(self):
        # A fractional estimate against an empty actual is perfect, not
        # an infinity.
        assert q_error(0.04, 0) == 1.0
        assert q_error(0, 5) == 5.0


# -- correction store ----------------------------------------------------------


def _correction(table="t", key="b = 0", est=5.0, actual=80, counts=None):
    counts = counts if counts is not None else {table: 100}
    return CardinalityCorrection(
        table=table, predicate_key=key, estimated_rows=est,
        actual_rows=actual, q_error=q_error(est, actual),
        snapshot=capture(lambda name: counts[name], [table]))


class TestCorrectionStore:
    def test_record_and_lookup(self):
        store = CorrectionStore()
        store.record(_correction())
        found = store.lookup("T", "b = 0")  # table name case-folded
        assert found is not None
        assert found.actual_rows == 80
        assert store.lookup("t", "b = 1") is None

    def test_version_bumps_on_record(self):
        store = CorrectionStore()
        before = store.version
        store.record(_correction())
        assert store.version == before + 1

    def test_drifted_snapshot_evicts_on_lookup(self):
        counts = {"t": 100}
        store = CorrectionStore(row_count_of=lambda name: counts[name])
        store.record(_correction(counts=counts))
        assert store.lookup("t", "b = 0") is not None
        counts["t"] = 10_000  # the observation's world is gone
        assert store.lookup("t", "b = 0") is None
        assert len(store) == 0

    def test_invalidate_by_table(self):
        store = CorrectionStore()
        store.record(_correction(table="t"))
        store.record(_correction(table="u"))
        assert store.invalidate("t") == 1
        assert len(store) == 1
        assert store.invalidate() == 1
        assert len(store) == 0


# -- the feedback loop through Database.execute --------------------------------


class TestFeedbackLoop:
    def test_disabled_by_default(self):
        db = skewed_db()
        db.execute(SKEW_SQL, FULL)
        assert db.feedback.plans_recorded == 0
        assert len(db.corrections) == 0

    def test_misestimate_records_correction_and_flags_plan(self):
        db = skewed_db(feedback=True)
        result = db.execute(SKEW_SQL, FULL)
        assert result.rows == SKEW_EXPECTED
        assert result.stats.max_q_error is not None
        assert result.stats.max_q_error > 4.0
        assert db.feedback.plans_recorded == 1
        assert db.feedback.plans_invalidated == 1
        assert len(db.corrections) >= 1
        corr = db.corrections.entries()[0]
        assert corr.table == "t"
        assert corr.actual_rows == 80
        assert corr.q_error > 4.0

    def test_replanned_query_converges(self):
        db = skewed_db(feedback=True)
        first = db.execute(SKEW_SQL, FULL)
        assert first.stats.max_q_error > 4.0
        # The stale entry is discarded on the next lookup and the fresh
        # optimization consults the recorded correction: the estimate is
        # now the observed 80 rows and the Q-error collapses.
        second = db.execute(SKEW_SQL, FULL)
        assert second.rows == SKEW_EXPECTED
        assert db.plan_cache.stats.feedback_stale == 1
        assert second.stats.max_q_error is not None
        assert second.stats.max_q_error <= 2.0
        # Converged: the healthy plan stays cached, no more invalidation.
        third = db.execute(SKEW_SQL, FULL)
        assert third.rows == SKEW_EXPECTED
        assert db.feedback.plans_invalidated == 1
        assert db.plan_cache.stats.feedback_stale == 1

    def test_accurate_estimates_record_nothing(self):
        db = Database(feedback=True)
        db.create_table("t", [("a", DataType.INTEGER, False)],
                        primary_key=("a",))
        db.insert("t", [(i,) for i in range(50)])
        db.execute("select a from t order by a", FULL)
        assert db.feedback.plans_recorded == 1
        assert db.feedback.plans_invalidated == 0
        assert len(db.corrections) == 0

    def test_threshold_is_configurable(self):
        db = skewed_db(feedback=True, q_error_threshold=1e9)
        db.execute(SKEW_SQL, FULL)
        assert db.feedback.plans_invalidated == 0

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError):
            Database(feedback=True, q_error_threshold=0.5)

    def test_ddl_drops_corrections(self):
        db = skewed_db(feedback=True)
        db.execute(SKEW_SQL, FULL)
        assert len(db.corrections) >= 1
        db.drop_table("t")
        assert len(db.corrections) == 0

    def test_as_dict_counters(self):
        db = skewed_db(feedback=True)
        db.execute(SKEW_SQL, FULL)
        snap = db.feedback.as_dict()
        assert snap["plans_recorded"] == 1
        assert snap["plans_invalidated"] == 1
        assert snap["corrections_stored"] == len(db.corrections)
        assert snap["q_error_threshold"] == 4.0
        assert snap["dropped"] == 0


class TestFeedbackChaos:
    """A fault at ``feedback.record`` drops the observation — never the
    query."""

    def test_fault_drops_observation_not_query(self):
        db = skewed_db(feedback=True)
        with fail_always("feedback.record"):
            result = db.execute(SKEW_SQL, FULL)
        assert result.rows == SKEW_EXPECTED
        assert not result.degraded
        assert db.feedback.dropped == 1
        assert db.feedback.plans_recorded == 0
        assert len(db.corrections) == 0
        assert result.stats.max_q_error is None

    def test_recording_resumes_once_fault_clears(self):
        db = skewed_db(feedback=True)
        with fail_at("feedback.record", n=1) as (trigger,):
            db.execute(SKEW_SQL, FULL)
            db.execute(SKEW_SQL, FULL)
        assert trigger.fired
        assert db.feedback.dropped == 1
        assert db.feedback.plans_recorded == 1

    def test_explain_analyze_survives_the_fault(self):
        db = skewed_db()
        with fail_always("feedback.record"):
            rendered = db.explain(SKEW_SQL, FULL, analyze=True)
        # The tree still shows actual counts — only the persisted
        # observation was dropped.
        assert "actual=" in rendered
        assert db.feedback.dropped == 1


# -- unified explain API -------------------------------------------------------


def _reset_positional_warning():
    """The positional-costs deprecation warns once per process; reset
    the latch so each test observes a fresh first use."""
    import repro.database as _database
    _database._positional_costs_warned = False


class TestExplainApi:
    def test_positional_costs_deprecated(self):
        db = skewed_db()
        _reset_positional_warning()
        with pytest.warns(DeprecationWarning):
            rendered = db.explain(SKEW_SQL, FULL, True)
        assert "-- estimates --" in rendered

    def test_positional_costs_warns_once_per_process(self):
        db = skewed_db()
        _reset_positional_warning()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                db.explain(SKEW_SQL, FULL, True)
        deprecations = [w for w in caught
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1

    def test_keyword_costs_does_not_warn(self):
        db = skewed_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rendered = db.explain(SKEW_SQL, FULL, costs=True)
        assert "-- estimates --" in rendered

    def test_options_object_wins(self):
        db = skewed_db()
        rendered = db.explain(SKEW_SQL, FULL,
                              options=ExplainOptions(costs=True))
        assert "-- estimates --" in rendered

    def test_positional_plus_options_rejected(self):
        db = skewed_db()
        with pytest.raises(TypeError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                db.explain(SKEW_SQL, FULL, True,
                           options=ExplainOptions())

    def test_invalid_format_rejected(self):
        with pytest.raises(ValueError):
            ExplainOptions(format="xml")
        db = skewed_db()
        with pytest.raises(ValueError):
            db.explain(SKEW_SQL, FULL, format="xml")

    def test_prepared_explain_unified(self):
        db = skewed_db()
        prepared = db.prepare(SKEW_SQL)
        _reset_positional_warning()
        with pytest.warns(DeprecationWarning):
            prepared.explain(True)
        analyzed = prepared.explain(analyze=True)
        assert "-- execution --" in analyzed
        assert "actual=" in analyzed

    def test_analyze_text_sections(self):
        db = skewed_db()
        rendered = db.explain(SKEW_SQL, FULL, analyze=True)
        assert "-- physical (analyze) --" in rendered
        assert "rows: 80" in rendered
        assert "max q-error:" in rendered
        assert "est=" in rendered and "q=" in rendered

    def test_analyze_dict_shape(self):
        db = skewed_db()
        payload = db.explain(SKEW_SQL, FULL, analyze=True, format="dict")
        assert payload["analyze"] is True
        assert payload["row_count"] == 80
        assert set(payload["stats"]) == set(QueryStats.FIELDS)
        json.dumps(payload)  # wire-safe by construction

        def check(node):
            assert set(node) == {"op", "estimated_rows", "actual_rows",
                                 "q_error", "children"}
            for child in node["children"]:
                check(child)

        check(payload["plan"])
        assert payload["plan"]["actual_rows"] == 80

    def test_plain_dict_shape(self):
        db = skewed_db()
        payload = db.explain(SKEW_SQL, FULL, format="dict")
        assert payload["analyze"] is False
        assert payload["plan"]["actual_rows"] is None
        json.dumps(payload)

    def test_naive_analyze_estimates_logical_tree(self):
        db = skewed_db()
        payload = db.explain(SKEW_SQL, NAIVE, analyze=True, format="dict")
        assert payload["engine"] is None or payload["engine"]
        assert payload["plan"]["actual_rows"] == 80
        # Estimates come from an Estimator walk over the bound tree.
        found = []

        def walk(node):
            if node["estimated_rows"] is not None:
                found.append(node["estimated_rows"])
            for child in node["children"]:
                walk(child)

        walk(payload["plan"])
        assert found


class TestSqlExplain:
    def test_explain_returns_plan_rows(self):
        db = skewed_db()
        result = db.execute(f"EXPLAIN {SKEW_SQL}")
        assert result.names == ["plan"]
        assert result.types == [DataType.VARCHAR]
        text = "\n".join(row[0] for row in result.rows)
        assert "-- physical --" in text
        assert "actual=" not in text

    def test_explain_analyze_counts_rows(self):
        db = skewed_db()
        result = db.execute(f"explain analyze {SKEW_SQL}")
        text = "\n".join(row[0] for row in result.rows)
        assert "-- execution --" in text
        assert "actual=" in text
        # The profiled run fed the feedback loop like any other.
        assert db.feedback.plans_recorded == 1

    def test_explain_is_case_and_whitespace_insensitive(self):
        db = skewed_db()
        result = db.execute(f"  Explain\n  ANALYZE  {SKEW_SQL}")
        assert result.names == ["plan"]

    def test_explain_without_query_rejected(self):
        db = skewed_db()
        with pytest.raises(SqlSyntaxError):
            db.execute("explain analyze")

    def test_explain_with_params(self):
        db = skewed_db()
        result = db.execute("explain analyze select a from t where b = ?",
                            FULL, [0])
        text = "\n".join(row[0] for row in result.rows)
        assert "rows: 80" in text


# -- QueryResult / QueryStats contracts ----------------------------------------


class TestQueryResultValidation:
    def test_mismatched_types_rejected(self):
        with pytest.raises(ValueError):
            QueryResult(["a", "b"], [], [DataType.INTEGER])

    def test_matching_and_absent_types_accepted(self):
        assert QueryResult(["a"], [], [DataType.INTEGER]).names == ["a"]
        padded = QueryResult(["a", "b"], [])
        assert len(padded.types) == 2


class TestQueryStatsRoundTrip:
    def test_field_names_are_frozen(self):
        # The wire protocol and EXPLAIN ANALYZE dict output use these
        # verbatim; renaming one is a protocol break.
        assert QueryStats.FIELDS == (
            "elapsed_seconds", "degraded", "fallback_reason", "governed",
            "rows_examined", "peak_rows_buffered", "rule_applications",
            "memo_groups", "timeout", "row_budget", "memory_budget",
            "max_q_error")

    def test_round_trip(self):
        stats = QueryStats(elapsed_seconds=1.5, degraded=True,
                           fallback_reason="why", max_q_error=3.5)
        assert QueryStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_ignores_unknown_and_defaults_missing(self):
        rebuilt = QueryStats.from_dict({"elapsed_seconds": 2.0,
                                        "bogus_field": 1})
        assert rebuilt.elapsed_seconds == 2.0
        assert rebuilt.max_q_error is None


# -- wire round-trip -----------------------------------------------------------


class TestWireStats:
    def test_client_result_carries_stats(self):
        db = skewed_db(feedback=True)
        with QueryServer(db, max_workers=2) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                result = client.query(SKEW_SQL)
                assert result.rows == SKEW_EXPECTED
                assert isinstance(result.stats, QueryStats)
                assert result.stats.elapsed_seconds >= 0.0
                assert result.stats.max_q_error > 4.0
                metrics = client.metrics()
        assert metrics["feedback"]["plans_recorded"] >= 1
        assert metrics["feedback"]["corrections_stored"] >= 1

    def test_client_explain_analyze_dict(self):
        db = skewed_db()
        with QueryServer(db, max_workers=2) as server:
            host, port = server.address
            with ServerClient(host, port) as client:
                payload = client.explain(SKEW_SQL, analyze=True,
                                         format="dict")
                assert payload["analyze"] is True
                assert payload["plan"]["actual_rows"] == 80
                text = client.explain(SKEW_SQL)
                assert isinstance(text, str)
                assert "-- physical --" in text


# -- agreement of actual counts ------------------------------------------------


def _flatten(node):
    """Pre-order (op, actual) pairs — the per-operator execution trace.

    Binder-assigned column ids (``a#54``) differ between independent
    compilations of the same statement, so they are stripped before
    comparing traces across databases.
    """
    label = re.sub(r"#\d+", "", node["op"])
    return ([(label, node["actual_rows"])]
            + [pair for child in node["children"]
               for pair in _flatten(child)])


def _analyze(db, sql, mode):
    return db.explain(sql, mode, analyze=True, format="dict")


class TestCountAgreement:
    """Per-operator actual counts do not depend on the batch size, and
    the root count is the result size the naive interpreter agrees on."""

    def test_simple_query_counts_identical(self):
        vec = _analyze(skewed_db(), SKEW_SQL, FULL)
        one = _analyze(skewed_db(batch_size=1), SKEW_SQL, FULL)
        assert _flatten(one["plan"]) == _flatten(vec["plan"])
        assert one["row_count"] == vec["row_count"] == 80
        nai = _analyze(skewed_db(), SKEW_SQL, NAIVE)
        assert nai["plan"]["actual_rows"] == 80

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(t_rows=t_rows_strategy, s_rows=s_rows_strategy, sql=query())
    def test_generated_queries_counts_agree(self, t_rows, s_rows, sql):
        db = build_db(t_rows, s_rows)
        vec = _analyze(db, sql, FULL)
        one = _analyze(build_db(t_rows, s_rows, batch_size=1), sql, FULL)
        nai = _analyze(db, sql, NAIVE)
        # The root count is the result size, and results agree.
        assert vec["plan"]["actual_rows"] == vec["row_count"]
        assert one["plan"]["actual_rows"] == one["row_count"]
        assert nai["plan"]["actual_rows"] == nai["row_count"]
        assert one["row_count"] == vec["row_count"] == nai["row_count"]
        if "limit" not in sql:
            # Without LIMIT no operator terminates early, so the traces
            # are identical node for node.  (Under LIMIT operators below
            # the Top drain whole batches — per-node counts legitimately
            # depend on the batch size there.)
            assert _flatten(one["plan"]) == _flatten(vec["plan"])

    def test_tpch_q17_counts_identical_across_batch_sizes(self):
        from repro.bench import tpch_database
        from repro.tpch import QUERIES, create_tpch_schema, generate_tpch

        db = tpch_database(0.0001, seed=11)
        row_at_a_time = Database(batch_size=1)
        create_tpch_schema(row_at_a_time)
        generate_tpch(row_at_a_time, 0.0001, 11)
        sql = QUERIES["Q17"]
        vec = _analyze(db, sql, FULL)
        one = _analyze(row_at_a_time, sql, FULL)
        nai = _analyze(db, sql, NAIVE)
        assert _flatten(one["plan"]) == _flatten(vec["plan"])
        assert (one["row_count"] == vec["row_count"] == nai["row_count"]
                == 1)
        root = vec["plan"]
        assert root["estimated_rows"] is not None
        assert root["actual_rows"] == 1
        assert root["q_error"] is not None

    def test_results_unchanged_after_correction_replan(self):
        # The corrected plan (post-invalidation) still returns the same
        # rows — feedback changes costs, never results.
        db = skewed_db(feedback=True)
        db.execute(SKEW_SQL, FULL)  # record the misestimate
        expected = Counter(SKEW_EXPECTED)
        assert Counter(db.execute(SKEW_SQL, FULL).rows) == expected
        assert Counter(db.execute(SKEW_SQL, NAIVE).rows) == expected
