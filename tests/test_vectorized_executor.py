"""Unit tests for the vectorized batch engine's building blocks.

The differential oracle (test_differential.py) establishes end-to-end
agreement; this module pins the engine's own contracts — batch helpers,
batch-boundary behavior, error paths, and the execution decisions that
the oracle can only observe indirectly.  Operator shapes are checked
against the naive interpreter and against the same query at a batch
size of one row, so a batch-boundary bug cannot hide.
"""

import re
from collections import Counter

import pytest

from repro import (FULL, NAIVE, Database, DataType, ExecutionError,
                   ResourceExhausted)
from repro.errors import SubqueryReturnedMultipleRows
from repro.algebra import JoinKind
from repro.executor import Batch, VectorizedExecutor, vectorized
from repro.executor.vectorized import (_match_pairs as match_pairs,
                                       batch_rows, columns_to_batches,
                                       rows_to_batches, take_batch)


def make_db(batch_size=4) -> Database:
    db = Database(batch_size=batch_size)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, True)],
                    primary_key=("a",))
    db.insert("t", [(i, i % 3 if i % 4 else None) for i in range(1, 11)])
    return db


class TestBatchHelpers:
    def test_take_batch_full_selection_is_identity(self):
        batch = Batch([[1, 2, 3], [4, 5, 6]], 3)
        assert take_batch(batch, [0, 1, 2]) is batch

    def test_take_batch_selects_rows(self):
        batch = Batch([[1, 2, 3], [4, 5, 6]], 3)
        taken = take_batch(batch, [0, 2])
        assert taken.columns == [[1, 3], [4, 6]]
        assert taken.nrows == 2

    def test_batch_rows_zero_columns_keeps_cardinality(self):
        assert batch_rows(Batch([], 3)) == [(), (), ()]

    def test_rows_to_batches_chunks(self):
        batches = list(rows_to_batches(iter([(1,), (2,), (3,)]), 1, 2))
        assert [b.nrows for b in batches] == [2, 1]
        assert batches[0].columns == [[1, 2]]

    def test_rows_to_batches_zero_columns(self):
        batches = list(rows_to_batches(iter([(), (), ()]), 0, 2))
        assert [(b.columns, b.nrows) for b in batches] == [([], 2),
                                                           ([], 1)]

    def test_columns_to_batches_single_batch_shares_columns(self):
        cols = [[1, 2], [3, 4]]
        (only,) = columns_to_batches(cols, 2, 10)
        assert only.columns is cols

    def test_columns_to_batches_slices(self):
        batches = list(columns_to_batches([[1, 2, 3, 4, 5]], 5, 2))
        assert [b.columns[0] for b in batches] == [[1, 2], [3, 4], [5]]

    def test_columns_to_batches_empty(self):
        assert list(columns_to_batches([[]], 0, 4)) == []


class TestEngineContracts:
    def test_batch_size_must_be_positive(self):
        db = make_db()
        with pytest.raises(ExecutionError):
            VectorizedExecutor(db.storage, batch_size=0)

    def test_database_has_one_engine(self):
        with pytest.raises(TypeError):
            Database(default_engine="vectorized")
        assert Database().default_engine == "vectorized"

    def test_execute_rejects_unknown_engine(self):
        db = make_db()
        for engine in ("columnar", "tuple"):
            with pytest.raises(ValueError,
                               match="unknown execution engine"):
                db.execute("select a from t", engine=engine)

    def test_results_cross_batch_boundaries(self):
        # 10 rows, batch_size 4: scan yields 4+4+2.
        db = make_db(batch_size=4)
        rows = db.execute("select a from t where b is not null",
                          engine="vectorized").rows
        assert rows == [(1,), (2,), (3,), (5,), (6,), (7,), (9,), (10,)]

    def test_batch_size_one_degenerates_to_row_at_a_time(self):
        sql = "select b, count(*) from t group by b"
        assert make_db(batch_size=1).execute(sql).rows == \
            make_db(batch_size=1024).execute(sql).rows

    def test_max1row_violation_raises(self):
        db = make_db()
        sql = "select (select b from t) from t"
        with pytest.raises(SubqueryReturnedMultipleRows):
            db.execute(sql, engine="vectorized")

    def test_governor_row_budget_enforced_per_batch(self):
        db = make_db(batch_size=2)
        with pytest.raises(ResourceExhausted):
            db.execute("select a from t", engine="vectorized",
                       row_budget=3)

    def test_parameters_bind_in_vector_expressions(self):
        db = make_db()
        stmt = db.prepare("select a from t where a > ?",
                          engine="vectorized")
        assert len(stmt.execute([8]).rows) == 2
        assert len(stmt.execute([0]).rows) == 10

    def test_prepare_validates_engine(self):
        db = make_db()
        stmt = db.prepare("select a from t", engine="vectorized")
        assert len(stmt.execute().rows) == 10
        with pytest.raises(ValueError):
            db.prepare("select a from t", engine="tuple")

    def test_naive_mode_ignores_engine(self):
        db = make_db()
        rows = db.execute("select a from t", mode="naive",
                          engine="vectorized").rows
        assert sorted(rows) == [(i,) for i in range(1, 11)]


class TestOperatorPaths:
    """Shapes chosen to land on specific _prepare_* implementations."""

    def _db(self, batch_size=3):
        db = Database(batch_size=batch_size)
        db.create_table("l", [("id", DataType.INTEGER, False),
                              ("k", DataType.INTEGER, True),
                              ("v", DataType.INTEGER, True)],
                        primary_key=("id",))
        db.create_table("r", [("id", DataType.INTEGER, False),
                              ("k", DataType.INTEGER, True),
                              ("w", DataType.INTEGER, True)],
                        primary_key=("id",))
        db.insert("l", [(1, 1, 10), (2, 1, 20), (3, 2, 30), (4, None, 40),
                        (5, 3, None), (6, 2, 60), (7, 1, 70)])
        db.insert("r", [(1, 1, 100), (2, 2, 200), (3, 2, 201),
                        (4, None, 300), (5, 5, 500)])
        return db

    def _agree(self, db, sql):
        """Rows of ``sql`` on ``db``, checked against the naive
        interpreter and against a one-row-per-batch run."""
        rows = db.execute(sql, FULL).rows
        assert Counter(rows) == Counter(db.execute(sql, NAIVE).rows), sql
        assert self._db(batch_size=1).execute(sql, FULL).rows == rows, sql
        return rows

    def test_hash_join_null_keys_never_match(self):
        rows = self._agree(
            self._db(),
            "select l.id, r.id from l, r where l.k = r.k")
        assert all(pair[0] != 4 for pair in rows)  # l.k NULL row

    def test_left_outer_join_pads_unmatched(self):
        rows = self._agree(
            self._db(),
            "select l.id, r.w from l left outer join r on r.k = l.k")
        padded = [r for r in rows if r[1] is None and r[0] in (4, 5)]
        assert len(padded) == 2

    def test_distinct_aggregates(self):
        self._agree(self._db(),
                    "select l.k, count(distinct l.v), sum(l.v) from l"
                    " group by l.k")

    def test_union_all_and_except_all(self):
        db = self._db()
        self._agree(db, "select l.k from l union all select r.k from r")
        self._agree(db, "select l.k from l except all select r.k from r")

    def test_order_by_limit_offset(self):
        self._agree(self._db(),
                    "select l.v from l order by l.v limit 3")

    def test_in_list_and_case(self):
        self._agree(self._db(),
                    "select case when l.v > 20 then l.k else 0 end"
                    " from l where l.k in (1, 2)")

    def test_scalar_aggregate_on_empty_input(self):
        db = self._db()
        rows = self._agree(
            db, "select count(*), sum(l.v) from l where l.k = 99")
        assert rows == [(0, None)]

    def test_correlated_scalar_subquery(self):
        self._agree(self._db(),
                    "select l.id, (select sum(r.w) from r where r.k = l.k)"
                    " from l")

    @pytest.mark.parametrize("sql,kind", [
        ("select l.id from l where l.k in (select r.k from r)",
         JoinKind.LEFT_SEMI),
        ("select l.id from l where not exists"
         " (select r.id from r where r.k = l.k)", JoinKind.LEFT_ANTI),
    ])
    def test_semi_anti_hash_join_low_ndv_build(self, monkeypatch, sql,
                                               kind):
        # 600 build rows over two keys: a probe row that matches stands
        # for a 300-row bucket, but a semi or anti join only asks
        # whether the bucket exists — one candidate per probe row.
        db = self._db()
        db.insert("r", [(i, 1 + i % 2, i) for i in range(10, 610)])
        seen = []

        def recording(kind_, nrows, cli, cri, mask, pad):
            seen.append((kind_, nrows, len(cli), len(cri)))
            return match_pairs(kind_, nrows, cli, cri, mask, pad)
        monkeypatch.setattr(vectorized, "_match_pairs", recording)
        rows = db.execute(sql, FULL).rows
        monkeypatch.undo()
        assert Counter(rows) == Counter(db.execute(sql, NAIVE).rows)
        assert any(k is kind for k, *_ in seen), seen
        for _, nrows, candidates, right in seen:
            assert candidates <= nrows and right == 0


class TestMorselDeterminism:
    """Parallel morsel scans must be invisible: 1 worker vs N workers
    produce identical rows AND identical EXPLAIN ANALYZE actuals (a
    skipped or parallel-decoded chunk is still charged to the scan)."""

    QUERIES = (
        "select t.a, t.b from t",
        "select t.b, count(*), sum(t.a) from t where t.a > 25"
        " group by t.b",
        "select t.a from t where t.b = 3 order by 1",
        "select count(*) from t where t.a is not null",
    )

    def loaded(self, morsel_workers) -> Database:
        db = Database(batch_size=7, chunk_rows=16,
                      morsel_workers=morsel_workers)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i % 5 if i % 7 else None)
                        for i in range(150)])
        return db

    @staticmethod
    def actuals(node, out):
        # Column ids are globally unique, so strip the #id suffixes to
        # compare plans across independent Database instances.
        op = re.sub(r"#\d+", "", node["op"])
        out.append((op, node["actual_rows"]))
        for child in node.get("children", ()):
            TestMorselDeterminism.actuals(child, out)
        return out

    def test_parallel_scan_matches_serial(self):
        from repro import FULL
        serial = self.loaded(1)
        parallel = self.loaded(8)
        for sql in self.QUERIES:
            assert parallel.execute(sql, FULL).rows \
                == serial.execute(sql, FULL).rows, sql
            serial_plan = serial.explain(
                sql, FULL, analyze=True, format="dict",
                engine="vectorized")
            parallel_plan = parallel.explain(
                sql, FULL, analyze=True, format="dict",
                engine="vectorized")
            assert self.actuals(parallel_plan["plan"], []) \
                == self.actuals(serial_plan["plan"], []), sql

    def test_worker_count_is_validated(self):
        with pytest.raises(ExecutionError):
            VectorizedExecutor(Database().storage, morsel_workers=0)
