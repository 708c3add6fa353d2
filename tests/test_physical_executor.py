"""Unit tests for the physical executor, one per operator, plus a
hypothesis differential between the batch expression compiler and the
naive interpreter's scalar evaluator.

Plans run on a three-row batch size, so every operator crosses batch
boundaries on the five-row test table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (AggregateCall, AggregateFunction, Arithmetic,
                           And, Case, Column, ColumnRef, Comparison,
                           DataType, InList, IsNull, JoinKind, Like,
                           Literal, Negate, Not, Or, equals)
from repro.catalog import ColumnDef, TableDef
from repro.errors import ExecutionError, SubqueryReturnedMultipleRows
from repro.executor.naive import NaiveInterpreter
from repro.executor.vector_expressions import build_layout, compile_vector
from repro.executor.vectorized import Batch, VectorizedExecutor
from repro.physical.plan import (PConstantScan, PDifference, PFilter,
                                 PHashAggregate, PHashJoin, PIndexSeek,
                                 PMax1row, PNestedLoopsJoin, PNLApply,
                                 PProject, PScalarAggregate, PSegmentApply,
                                 PSegmentRef, PSort, PStreamAggregate,
                                 PTableScan, PTop, PUnionAll)
from repro.storage import Storage


def make_executor(storage):
    return VectorizedExecutor(storage, batch_size=3)


def make_storage():
    storage = Storage()
    table = storage.create(TableDef(
        "t",
        [ColumnDef("id", DataType.INTEGER, False),
         ColumnDef("grp", DataType.INTEGER, False),
         ColumnDef("val", DataType.INTEGER, True)],
        primary_key=("id",)))
    table.insert_many([
        (1, 10, 5), (2, 10, None), (3, 20, 7), (4, 20, 3), (5, 30, None)])
    return storage


def cols():
    return (Column("id", DataType.INTEGER, False),
            Column("grp", DataType.INTEGER, False),
            Column("val", DataType.INTEGER, True))


class TestScansAndFilters:
    def test_table_scan(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        plan = PTableScan("t", [cid, cgrp, cval])
        rows = make_executor(storage).run(plan)
        assert len(rows) == 5

    def test_constant_scan(self):
        c = Column("x", DataType.INTEGER, False)
        plan = PConstantScan([c], [(1,), (2,)])
        assert make_executor(Storage()).run(plan) == [(1,), (2,)]

    def test_filter_three_valued(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        plan = PFilter(scan, Comparison(">", ColumnRef(cval), Literal(4)))
        rows = make_executor(storage).run(plan)
        # NULL val rows are dropped (UNKNOWN ≠ TRUE)
        assert sorted(r[0] for r in rows) == [1, 3]

    def test_project_computes(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        doubled = Column("d", DataType.INTEGER)
        plan = PProject(scan, [(doubled, Arithmetic(
            "*", ColumnRef(cid), Literal(2)))])
        rows = make_executor(storage).run(plan)
        assert sorted(r[0] for r in rows) == [2, 4, 6, 8, 10]

    def test_index_seek_on_pk(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        plan = PIndexSeek("t", [cid, cgrp, cval], [cid], [Literal(3)])
        rows = make_executor(storage).run(plan)
        assert rows == [(3, 20, 7)]

    def test_index_seek_missing_index(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        plan = PIndexSeek("t", [cid, cgrp, cval], [cgrp], [Literal(10)])
        with pytest.raises(ExecutionError, match="no index"):
            make_executor(storage).run(plan)

    def test_index_seek_residual(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        plan = PIndexSeek("t", [cid, cgrp, cval], [cid], [Literal(2)],
                          residual=IsNull(ColumnRef(cval)))
        assert make_executor(storage).run(plan) == [(2, 10, None)]


class TestJoins:
    def _scan_pair(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        c2 = (Column("id", DataType.INTEGER, False),
              Column("grp", DataType.INTEGER, False),
              Column("val", DataType.INTEGER, True))
        left = PTableScan("t", [cid, cgrp, cval])
        right = PTableScan("t", list(c2))
        return storage, left, right, (cid, cgrp, cval), c2

    def test_hash_join_inner(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        plan = PHashJoin(JoinKind.INNER, left, right,
                         [ColumnRef(cgrp)], [ColumnRef(c2[1])])
        rows = make_executor(storage).run(plan)
        # groups of sizes 2,2,1 → 4+4+1 pairs
        assert len(rows) == 9

    def test_hash_join_null_keys_never_match(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        plan = PHashJoin(JoinKind.INNER, left, right,
                         [ColumnRef(cval)], [ColumnRef(c2[2])])
        rows = make_executor(storage).run(plan)
        # non-null vals are unique → each matches itself only
        assert len(rows) == 3

    def test_hash_join_left_outer_pads(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        plan = PHashJoin(JoinKind.LEFT_OUTER, left, right,
                         [ColumnRef(cval)], [ColumnRef(c2[2])])
        rows = make_executor(storage).run(plan)
        padded = [r for r in rows if r[3] is None]
        assert len(rows) == 5 and len(padded) == 2

    def test_hash_join_semi_anti(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        semi = PHashJoin(JoinKind.LEFT_SEMI, left, right,
                         [ColumnRef(cval)], [ColumnRef(c2[2])])
        anti = PHashJoin(JoinKind.LEFT_ANTI, left, right,
                         [ColumnRef(cval)], [ColumnRef(c2[2])])
        executor = make_executor(storage)
        assert len(executor.run(semi)) == 3
        assert len(executor.run(anti)) == 2
        assert len(executor.run(semi)[0]) == 3  # left schema only

    def test_hash_join_residual(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        plan = PHashJoin(JoinKind.INNER, left, right,
                         [ColumnRef(cgrp)], [ColumnRef(c2[1])],
                         residual=Comparison("<", ColumnRef(cid),
                                             ColumnRef(c2[0])))
        rows = make_executor(storage).run(plan)
        assert all(r[0] < r[3] for r in rows)

    def test_nested_loops_non_equi(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        plan = PNestedLoopsJoin(JoinKind.INNER, left, right,
                                Comparison("<", ColumnRef(cid),
                                           ColumnRef(c2[0])))
        rows = make_executor(storage).run(plan)
        assert len(rows) == 10  # C(5,2)

    def test_nl_apply_binds_parameters(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        # inner side: filter on the OUTER row's id (a parameter)
        inner = PFilter(right, Comparison("=", ColumnRef(c2[0]),
                                          ColumnRef(cid)))
        plan = PNLApply(JoinKind.INNER, left, inner)
        rows = make_executor(storage).run(plan)
        assert len(rows) == 5
        assert all(r[0] == r[3] for r in rows)

    def test_nl_apply_left_outer_guard(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        inner = PFilter(right, Comparison("=", ColumnRef(c2[0]),
                                          ColumnRef(cid)))
        guard = Comparison("<", ColumnRef(cid), Literal(3))
        plan = PNLApply(JoinKind.LEFT_OUTER, left, inner, guard=guard)
        rows = make_executor(storage).run(plan)
        assert len(rows) == 5
        matched = [r for r in rows if r[3] is not None]
        assert sorted(r[0] for r in matched) == [1, 2]  # guard passed only

    def test_nested_loops_kinds_across_batches(self):
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        pred = Comparison("<", ColumnRef(cval), ColumnRef(c2[2]))
        run = make_executor(storage).run
        assert [r[:3] for r in run(PNestedLoopsJoin(
            JoinKind.LEFT_OUTER, left, right, pred)) if r[3] is None] == \
            [(2, 10, None), (3, 20, 7), (5, 30, None)]
        assert [r[0] for r in run(PNestedLoopsJoin(
            JoinKind.LEFT_SEMI, left, right, pred))] == [1, 4]
        assert [r[0] for r in run(PNestedLoopsJoin(
            JoinKind.LEFT_ANTI, left, right, pred))] == [2, 3, 5]

    @pytest.mark.parametrize("kind", list(JoinKind))
    def test_nested_loops_equality_hashed_like_per_pair(self, kind):
        # An equality between the sides runs hashed; NOT (a <> b) is the
        # same predicate under three-valued logic but is evaluated on
        # every pair.  Both must give the same rows in the same order.
        storage, left, right, (cid, cgrp, cval), c2 = self._scan_pair()
        residual = Comparison("<", ColumnRef(cid), ColumnRef(c2[0]))
        hashed = And([equals(cval, c2[2]), residual])
        per_pair = And([Not(Comparison("<>", ColumnRef(cval),
                                       ColumnRef(c2[2]))), residual])
        run = make_executor(storage).run
        assert run(PNestedLoopsJoin(kind, left, right, hashed)) == \
            run(PNestedLoopsJoin(kind, left, right, per_pair))
        hashed = equals(cgrp, c2[1])
        per_pair = Not(Comparison("<>", ColumnRef(cgrp), ColumnRef(c2[1])))
        assert run(PNestedLoopsJoin(kind, left, right, hashed)) == \
            run(PNestedLoopsJoin(kind, left, right, per_pair))


class TestIndexLookupApply:
    """``NLApply`` over a bare ``IndexSeek`` runs as a batched lookup:
    every join kind, the seek residual, the Apply predicate and the
    guard, checked against the same inner side run per binding."""

    def _plan(self, kind, residual=None, predicate=None, guard=None,
              seek=True):
        storage = make_storage()
        cid, cgrp, cval = cols()
        inner_cols = [c.fresh_copy() for c in (cid, cgrp, cval)]
        left = PTableScan("t", [cid, cgrp, cval])
        # Probe t's primary key with the outer row's val.
        inner = PIndexSeek("t", inner_cols, [inner_cols[0]],
                           [ColumnRef(cval)], residual=residual(inner_cols)
                           if residual else None)
        if not seek:
            # The same lookup as a filter: the per-binding path.
            condition = Comparison("=", ColumnRef(inner_cols[0]),
                                   ColumnRef(cval))
            if residual:
                condition = And([condition, residual(inner_cols)])
            inner = PFilter(PTableScan("t", inner_cols), condition)
        plan = PNLApply(kind, left, inner,
                        predicate(cid, inner_cols) if predicate else None,
                        guard(cid) if guard else None)
        return storage, plan

    CASES = [
        (JoinKind.INNER, None, None, None),
        (JoinKind.LEFT_OUTER, None, None, None),
        (JoinKind.LEFT_SEMI, None, None, None),
        (JoinKind.LEFT_ANTI, None, None, None),
        (JoinKind.INNER, lambda ic: Comparison(">", ColumnRef(ic[1]),
                                               Literal(10)), None, None),
        (JoinKind.LEFT_OUTER, None,
         lambda c, ic: Comparison("<", ColumnRef(c), ColumnRef(ic[0])),
         None),
        (JoinKind.LEFT_SEMI, lambda ic: IsNull(ColumnRef(ic[2]), True),
         lambda c, ic: Comparison("<>", ColumnRef(c), ColumnRef(ic[0])),
         None),
        (JoinKind.LEFT_ANTI, lambda ic: IsNull(ColumnRef(ic[2]), True),
         None, None),
        (JoinKind.LEFT_OUTER, None, None,
         lambda c: Comparison(">", ColumnRef(c), Literal(2))),
    ]

    @pytest.mark.parametrize("kind,residual,predicate,guard", CASES)
    def test_matches_per_binding_execution(self, kind, residual,
                                           predicate, guard):
        storage, batched = self._plan(kind, residual, predicate, guard)
        _, per_binding = self._plan(kind, residual, predicate, guard,
                                    seek=False)
        expected = make_executor(storage).run(per_binding)
        assert make_executor(storage).run(batched) == expected
        assert VectorizedExecutor(storage, batch_size=1).run(batched) \
            == expected

    def test_inner_join_gathers_matches_in_left_order(self):
        storage, plan = self._plan(JoinKind.INNER)
        # vals 5 and 3 name existing ids; 7 does not, NULL never matches
        assert make_executor(storage).run(plan) == [
            (1, 10, 5, 5, 30, None), (4, 20, 3, 3, 20, 7)]

    def test_profile_counts_seek_rows(self):
        storage, plan = self._plan(
            JoinKind.LEFT_OUTER,
            residual=lambda ic: IsNull(ColumnRef(ic[2]), True))
        executor = make_executor(storage)
        profile = {}
        rows = executor.run_prepared(executor.prepare(plan),
                                     profile=profile)
        assert profile[id(plan)] == len(rows) == 5
        assert profile[id(plan.right)] == 1  # id 3 only: id 5 has NULL val
        assert profile[id(plan.left)] == 5

    @pytest.mark.parametrize("kind", [JoinKind.LEFT_SEMI, JoinKind.LEFT_ANTI])
    def test_profile_counts_seek_rows_of_existence_joins(self, kind):
        # Semi/anti with nothing to evaluate per match keep one candidate
        # per outer row, but the seek still reports every row it found.
        storage, plan = self._plan(kind)
        executor = make_executor(storage)
        profile = {}
        executor.run_prepared(executor.prepare(plan), profile=profile)
        assert profile[id(plan.right)] == 2  # vals 5 and 3

    def test_governor_charges_outer_and_fetched_rows(self):
        from repro.errors import ResourceExhausted
        from repro.governor import ResourceGovernor
        storage, plan = self._plan(JoinKind.INNER)
        executor = make_executor(storage)
        with pytest.raises(ResourceExhausted):
            executor.run(plan, governor=ResourceGovernor(row_budget=8))
        # 5 scanned + 5 outer + 2 fetched + 2 result rows
        assert len(executor.run(
            plan, governor=ResourceGovernor(row_budget=14))) == 2


class TestAggregation:
    def test_scalar_aggregate(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        out = Column("s", DataType.INTEGER)
        cnt = Column("c", DataType.INTEGER)
        plan = PScalarAggregate(scan, [
            (out, AggregateCall(AggregateFunction.SUM, ColumnRef(cval))),
            (cnt, AggregateCall(AggregateFunction.COUNT_STAR))])
        assert make_executor(storage).run(plan) == [(15, 5)]

    def test_scalar_aggregate_empty_input(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        filtered = PFilter(scan, Literal(False))
        out = Column("s", DataType.INTEGER)
        cnt = Column("c", DataType.INTEGER)
        plan = PScalarAggregate(filtered, [
            (out, AggregateCall(AggregateFunction.SUM, ColumnRef(cval))),
            (cnt, AggregateCall(AggregateFunction.COUNT_STAR))])
        assert make_executor(storage).run(plan) == [(None, 0)]

    def test_hash_aggregate_groups(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        out = Column("s", DataType.INTEGER)
        plan = PHashAggregate(scan, [cgrp], [
            (out, AggregateCall(AggregateFunction.SUM, ColumnRef(cval)))])
        rows = dict(make_executor(storage).run(plan))
        assert rows == {10: 5, 20: 10, 30: None}

    def test_stream_aggregate_matches_hash(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        out = Column("s", DataType.INTEGER)
        agg = [(out, AggregateCall(AggregateFunction.SUM, ColumnRef(cval)))]
        hashed = PHashAggregate(scan, [cgrp], agg)
        streamed = PStreamAggregate(
            PSort(scan, [(ColumnRef(cgrp), True)]), [cgrp], agg)
        executor = make_executor(storage)
        assert sorted(executor.run(hashed)) == sorted(executor.run(streamed))

    def test_stream_aggregate_empty(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PFilter(PTableScan("t", [cid, cgrp, cval]), Literal(False))
        out = Column("s", DataType.INTEGER)
        plan = PStreamAggregate(
            PSort(scan, [(ColumnRef(cgrp), True)]), [cgrp],
            [(out, AggregateCall(AggregateFunction.SUM, ColumnRef(cval)))])
        assert make_executor(storage).run(plan) == []

    def test_distinct_aggregate(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        out = Column("c", DataType.INTEGER)
        plan = PScalarAggregate(scan, [
            (out, AggregateCall(AggregateFunction.COUNT, ColumnRef(cgrp),
                                distinct=True))])
        assert make_executor(storage).run(plan) == [(3,)]


class TestMiscOperators:
    def test_sort_and_top(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        plan = PTop(PSort(scan, [(ColumnRef(cval), False)]), 2)
        rows = make_executor(storage).run(plan)
        assert [r[2] for r in rows] == [7, 5]

    def test_sort_nulls_first_ascending(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        plan = PSort(scan, [(ColumnRef(cval), True)])
        rows = make_executor(storage).run(plan)
        assert rows[0][2] is None and rows[1][2] is None

    def test_max1row(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        single = PMax1row(PFilter(scan, equals(cid, Literal(1))))
        assert len(make_executor(storage).run(single)) == 1
        multi = PMax1row(scan)
        with pytest.raises(SubqueryReturnedMultipleRows):
            make_executor(storage).run(multi)

    def test_union_all_remaps(self):
        c1 = Column("x", DataType.INTEGER, False)
        c2 = Column("y", DataType.INTEGER, False)
        out = Column("z", DataType.INTEGER, False)
        a = PConstantScan([c1], [(1,)])
        b = PConstantScan([c2], [(2,), (3,)])
        plan = PUnionAll([a, b], [out], [[c1], [c2]])
        assert sorted(make_executor(Storage()).run(plan)) == \
            [(1,), (2,), (3,)]

    def test_difference_bag_semantics(self):
        c1 = Column("x", DataType.INTEGER, False)
        c2 = Column("y", DataType.INTEGER, False)
        out = Column("z", DataType.INTEGER, False)
        a = PConstantScan([c1], [(1,), (1,), (2,)])
        b = PConstantScan([c2], [(1,)])
        plan = PDifference(a, b, [out], [c1], [c2])
        assert sorted(make_executor(Storage()).run(plan)) == \
            [(1,), (2,)]

    def test_segment_apply_per_segment(self):
        storage = make_storage()
        cid, cgrp, cval = cols()
        scan = PTableScan("t", [cid, cgrp, cval])
        mirrors = [c.fresh_copy() for c in (cid, cgrp, cval)]
        ref = PSegmentRef(mirrors)
        out = Column("c", DataType.INTEGER)
        inner = PScalarAggregate(ref, [
            (out, AggregateCall(AggregateFunction.COUNT_STAR))])
        plan = PSegmentApply(scan, inner, [cgrp], mirrors)
        rows = dict(make_executor(storage).run(plan))
        assert rows == {10: 2, 20: 2, 30: 1}

    def test_segment_ref_outside_raises(self):
        mirrors = [Column("m", DataType.INTEGER)]
        plan = PSegmentRef(mirrors)
        with pytest.raises(ExecutionError, match="segment"):
            make_executor(Storage()).run(plan)


# ---------------------------------------------------------------------------
# Compiled expressions vs. the naive interpreter's evaluator
# ---------------------------------------------------------------------------

values3 = st.one_of(st.none(), st.integers(-3, 3))


def expr_strategy(columns):
    refs = st.sampled_from([ColumnRef(c) for c in columns])
    literals = st.builds(Literal, st.one_of(st.integers(-3, 3),
                                            st.booleans()))
    base = st.one_of(refs, literals)

    def extend(children):
        ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
        arith = st.sampled_from(["+", "-", "*"])
        return st.one_of(
            st.builds(lambda o, l, r: Comparison(o, l, r), ops,
                      refs, refs),
            st.builds(lambda o, l, r: Arithmetic(o, l, r), arith,
                      refs, refs),
            st.builds(lambda a: IsNull(a), refs),
            st.builds(lambda a: Negate(a), refs),
            st.builds(lambda c, v, e: Case([(c, v)], e),
                      children.filter(_is_boolean), refs, refs),
            st.builds(lambda a, b: And([a, b]),
                      children.filter(_is_boolean),
                      children.filter(_is_boolean)),
            st.builds(lambda a, b: Or([a, b]),
                      children.filter(_is_boolean),
                      children.filter(_is_boolean)),
            st.builds(lambda a: Not(a), children.filter(_is_boolean)),
            st.builds(lambda a, vs: InList(a, vs),
                      refs, st.lists(values3, min_size=1, max_size=3)),
        )

    return st.recursive(
        st.builds(lambda c: Comparison("=", ColumnRef(columns[0]), c),
                  literals),
        extend, max_leaves=8)


def _is_boolean(expr):
    return expr.dtype is DataType.BOOLEAN


class TestExpressionCompilerDifferential:
    """``compile_vector`` against the naive interpreter's evaluator,
    over one-row and multi-row batches: every row's value must equal the
    naive value of that row alone."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           rows=st.lists(st.tuples(values3, values3, values3),
                         min_size=1, max_size=6))
    def test_compiled_matches_naive(self, data, rows):
        columns = [Column(n, DataType.INTEGER, True) for n in "abc"]
        expr = data.draw(expr_strategy(columns))
        compiled = compile_vector(expr, build_layout(columns))
        naive = NaiveInterpreter(lambda name: [])
        expected = [naive.scalar(expr, {c.cid: v
                                        for c, v in zip(columns, row)})
                    for row in rows]
        batch = Batch([list(col) for col in zip(*rows)], len(rows))
        assert compiled(batch, {}) == expected
        for row, value in zip(rows, expected):
            assert compiled(Batch([[v] for v in row], 1), {}) == [value]
