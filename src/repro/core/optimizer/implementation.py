"""Implementation pass: logical memo groups → costed physical plans.

Each logical expression offers one or more physical alternatives; the
cheapest per group is memoized.  Cost is a simple work metric: rows
touched, weighted per operator.  The alternatives include the paper's
"introduction of correlated execution (the simplest and most common being
index-lookup-join)": a join whose inner side is a table with a usable
index may run as a nested-loops Apply over an index seek.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ... import faultinject
from ...algebra import (Apply, ColumnRef, Comparison, ConstantScan,
                        Difference, Get, GroupBy, Join, JoinKind, Literal,
                        LocalGroupBy, Max1row, Project, RelationalOp,
                        ScalarExpr, ScalarGroupBy, SegmentApply, SegmentRef,
                        Select, Sort, Top, UnionAll, conjunction, conjuncts,
                        split_equi)
from ...errors import PlanError
from ...physical.plan import (PConstantScan, PDifference, PFilter,
                              PHashAggregate, PHashJoin, PIndexSeek,
                              PMax1row, PNestedLoopsJoin, PNLApply,
                              PProject, PScalarAggregate, PSegmentApply,
                              PSegmentRef, PSort, PStreamAggregate,
                              PTableScan, PTop, PTopN, PUnionAll,
                              PhysicalOp)
from .cardinality import Estimate
from .memo import GroupExpr, GroupRefLeaf, Memo


# Cost weights (arbitrary units ~ per-row work).
SCAN_ROW = 1.0
CPU_ROW = 0.2
HASH_BUILD_ROW = 2.0
HASH_PROBE_ROW = 1.2
OUTPUT_ROW = 0.05
SEEK_BASE = 6.0
SEEK_ROW = 1.5
APPLY_REOPEN = 2.0
SORT_ROW_FACTOR = 0.4
AGG_ROW = 1.5
STREAM_AGG_ROW = 0.6
GROUP_OUT = 0.5


@dataclass
class CostedPlan:
    cost: float
    plan: PhysicalOp


class Implementer:
    """Finds the cheapest physical plan per memo group."""

    def __init__(self, memo: Memo, context) -> None:
        self._memo = memo
        self._context = context
        self._active: set[int] = set()

    def best_plan(self, group_id: int) -> CostedPlan:
        faultinject.hit("optimizer.implement")
        group = self._memo.group(group_id)
        if group.best is not None:
            return group.best
        if group_id in self._active:
            # Cyclic derivation (push-down/pull-up pairs can make two
            # groups reference each other); a plan through the cycle is
            # never useful — prune with infinite cost.
            return CostedPlan(math.inf, PConstantScan(group.columns, []))
        self._active.add(group_id)
        try:
            best: Optional[CostedPlan] = None
            for expr in group.exprs:
                for candidate in self._alternatives(expr):
                    if best is None or candidate.cost < best.cost:
                        best = candidate
        finally:
            self._active.discard(group_id)
        if best is None:
            raise PlanError(
                f"no implementation for group {group_id} "
                f"({group.exprs[0].op.label() if group.exprs else 'empty'})")
        if math.isfinite(best.cost):
            group.best = best
        # Stamp the chosen plan root with the group's cardinality
        # estimate so runtime feedback (repro.feedback) can compare it
        # against actual row counts.  Only the group root is stamped —
        # interior enforcer nodes (e.g. the Sort under a StreamAggregate
        # alternative) have no group of their own and stay None.  A node
        # shared by several parent groups keeps its first (own-group)
        # estimate.
        if best.plan.estimated_rows is None:
            best.plan.estimated_rows = group.estimate.rows
        return best

    def _child(self, op: RelationalOp) -> CostedPlan:
        assert isinstance(op, GroupRefLeaf), "expr children must be grouped"
        return self.best_plan(op.group_id)

    def _rows(self, op: RelationalOp) -> float:
        if isinstance(op, GroupRefLeaf):
            return self._memo.group(op.group_id).estimate.rows
        raise AssertionError("row estimate requested for non-group child")

    def _group_rows(self, group_id: int) -> float:
        return self._memo.group(group_id).estimate.rows

    # -- alternative generation ---------------------------------------------------

    def _alternatives(self, expr: GroupExpr) -> Iterable[CostedPlan]:
        op = expr.op
        if isinstance(op, Get):
            yield self._implement_get(op)
        elif isinstance(op, ConstantScan):
            plan = PConstantScan(op.columns, op.rows)
            yield CostedPlan(len(op.rows) * CPU_ROW + CPU_ROW, plan)
        elif isinstance(op, SegmentRef):
            yield CostedPlan(CPU_ROW, PSegmentRef(op.columns))
        elif isinstance(op, Select):
            yield from self._implement_select(op)
        elif isinstance(op, Project):
            child = self._child(op.child)
            rows = self._rows(op.child)
            plan = PProject(child.plan, op.items)
            yield CostedPlan(child.cost + rows * CPU_ROW, plan)
        elif isinstance(op, (Join, Apply)):
            yield from self._implement_join(op)
        elif isinstance(op, ScalarGroupBy):
            child = self._child(op.child)
            rows = self._rows(op.child)
            plan = PScalarAggregate(child.plan, op.aggregates)
            yield CostedPlan(child.cost + rows * AGG_ROW, plan)
        elif isinstance(op, (GroupBy, LocalGroupBy)):
            child = self._child(op.child)
            rows = self._rows(op.child)
            groups = min(self._estimate_groups(op), max(rows, 1.0))
            plan = PHashAggregate(child.plan, op.group_columns,
                                  op.aggregates,
                                  is_local=isinstance(op, LocalGroupBy))
            yield CostedPlan(
                child.cost + rows * AGG_ROW + groups * GROUP_OUT, plan)
            # Sort-based alternative: explicit sort + streaming aggregation
            # (the classic sorted-aggregation strategy; wins when groups
            # are few relative to rows and hashing is disadvantaged).
            if op.group_columns and not isinstance(op, LocalGroupBy):
                sort_keys = [(ColumnRef(c), True) for c in op.group_columns]
                sorted_child = PSort(child.plan, sort_keys)
                stream = PStreamAggregate(sorted_child, op.group_columns,
                                          op.aggregates)
                sort_cost = max(rows, 1.0) * math.log2(rows + 2) \
                    * SORT_ROW_FACTOR
                yield CostedPlan(
                    child.cost + sort_cost + rows * STREAM_AGG_ROW
                    + groups * GROUP_OUT, stream)
        elif isinstance(op, Sort):
            child = self._child(op.child)
            rows = max(self._rows(op.child), 1.0)
            plan = PSort(child.plan, op.keys)
            yield CostedPlan(
                child.cost + rows * math.log2(rows + 2) * SORT_ROW_FACTOR,
                plan)
        elif isinstance(op, Top):
            child = self._child(op.child)
            yield CostedPlan(
                child.cost + (op.count + op.offset) * CPU_ROW,
                PTop(child.plan, op.count, op.offset))
            # Top-N: fuse with a Sort below into a bounded-heap operator,
            # replacing the full O(n log n) sort by O(n log k).
            if isinstance(op.child, GroupRefLeaf):
                for expr in self._memo.group(op.child.group_id).exprs:
                    if not isinstance(expr.op, Sort):
                        continue
                    sort_op = expr.op
                    inner = self._child(sort_op.child)
                    rows = self._rows(sort_op.child)
                    keep = op.count + op.offset
                    plan = PTopN(inner.plan, sort_op.keys, op.count,
                                 op.offset)
                    cost = (inner.cost
                            + max(rows, 1.0) * math.log2(keep + 2)
                            * SORT_ROW_FACTOR
                            + keep * CPU_ROW)
                    yield CostedPlan(cost, plan)
        elif isinstance(op, Max1row):
            child = self._child(op.child)
            yield CostedPlan(child.cost + CPU_ROW, PMax1row(child.plan))
        elif isinstance(op, UnionAll):
            children = [self._child(c) for c in op.children]
            rows = sum(self._rows(c) for c in op.children)
            plan = PUnionAll([c.plan for c in children], op.columns,
                             op.input_maps)
            yield CostedPlan(sum(c.cost for c in children)
                             + rows * CPU_ROW, plan)
        elif isinstance(op, Difference):
            left = self._child(op.left)
            right = self._child(op.right)
            rows = self._rows(op.left) + self._rows(op.right)
            plan = PDifference(left.plan, right.plan, op.columns,
                               op.left_map, op.right_map)
            yield CostedPlan(left.cost + right.cost
                             + rows * HASH_BUILD_ROW, plan)
        elif isinstance(op, SegmentApply):
            yield self._implement_segment_apply(op)
        else:
            raise PlanError(f"cannot implement {type(op).__name__}")

    # -- scans and filters ----------------------------------------------------------

    def _implement_get(self, op: Get) -> CostedPlan:
        rows = self._context.table_rows(op.table_name)
        return CostedPlan(rows * SCAN_ROW,
                          PTableScan(op.table_name, op.columns))

    def _implement_select(self, op: Select) -> Iterable[CostedPlan]:
        child = self._child(op.child)
        rows = self._rows(op.child)
        cost = child.cost + rows * CPU_ROW
        if isinstance(child.plan, PTableScan):
            # A filter directly over a stored scan executes as a fused
            # zone-skipping scan: chunks the zone maps prove empty for
            # the predicate are neither decoded nor filtered.  Discount
            # both the scan touch and the filter evaluation for them.
            skipped = self._context.zone_skip_rows(
                child.plan.table_name, op.predicate, child.plan.columns)
            if skipped > 0.0:
                cost = max(child.cost - skipped * SCAN_ROW, 0.0) \
                    + max(rows - skipped, 0.0) * CPU_ROW
        yield CostedPlan(cost, PFilter(child.plan, op.predicate))
        # Constant-equality index seek directly on a stored table.
        for get_op, extra in self._access_paths(op.child):
            seek = self._constant_seek(get_op, op.predicate, extra)
            if seek is not None:
                yield seek

    def _access_paths(self, ref: RelationalOp):
        """(Get, residual) pairs reachable in the referenced group."""
        if not isinstance(ref, GroupRefLeaf):
            return
        group = self._memo.group(ref.group_id)
        for expr in group.exprs:
            if isinstance(expr.op, Get):
                yield expr.op, None
            elif isinstance(expr.op, Select) and \
                    isinstance(expr.op.child, GroupRefLeaf):
                inner = self._memo.group(expr.op.child.group_id)
                for inner_expr in inner.exprs:
                    if isinstance(inner_expr.op, Get):
                        yield inner_expr.op, expr.op.predicate

    def _constant_seek(self, get_op: Get, predicate: ScalarExpr,
                       extra: Optional[ScalarExpr]) -> Optional[CostedPlan]:
        get_ids = {c.cid: c for c in get_op.columns}
        allow_parameters = self._context.config.index_apply
        const_eq: dict[int, ScalarExpr] = {}
        residual: list[ScalarExpr] = []
        for part in conjuncts(predicate):
            bound = _constant_equality(part, get_ids)
            if bound is not None and (allow_parameters
                                      or isinstance(bound[1], Literal)):
                const_eq[bound[0].cid] = bound[1]
            else:
                residual.append(part)
        if extra is not None:
            residual.extend(conjuncts(extra))
        if not const_eq:
            return None
        index_cols = self._context.pick_index(
            get_op.table_name, {get_ids[cid].name for cid in const_eq})
        if index_cols is None:
            return None
        by_name = {c.name: c for c in get_op.columns}
        key_columns = [by_name[n] for n in index_cols]
        key_exprs = [const_eq[c.cid] for c in key_columns]
        used = {c.cid for c in key_columns}
        for cid, value in const_eq.items():
            if cid not in used:
                residual.append(Comparison("=", ColumnRef(get_ids[cid]),
                                           value))
        plan = PIndexSeek(get_op.table_name, get_op.columns, key_columns,
                          key_exprs,
                          conjunction(residual) if residual else None)
        matches = max(self._context.table_rows(get_op.table_name)
                      / max(self._context.index_selectivity_denominator(
                          get_op.table_name, index_cols), 1.0), 1.0)
        return CostedPlan(SEEK_BASE + matches * SEEK_ROW, plan)

    # -- joins --------------------------------------------------------------------

    def _implement_join(self, op: Join | Apply) -> Iterable[CostedPlan]:
        left = self._child(op.left)
        right = self._child(op.right)
        left_rows = self._rows(op.left)
        right_rows = self._rows(op.right)
        out_rows = self._output_rows(op)
        predicate = op.predicate
        correlated = isinstance(op, Apply) and bool(
            op.right.outer_references().ids()
            & frozenset(c.cid for c in op.left.output_columns()))

        if isinstance(op, Apply):
            # Correlated execution: nested loops with parameter binding.
            yield CostedPlan(
                left.cost + left_rows * (right.cost + APPLY_REOPEN)
                + out_rows * OUTPUT_ROW,
                PNLApply(op.kind, left.plan, right.plan, predicate,
                         op.guard))
            if op.guard is not None:
                return  # conditional execution admits no other form
            if not correlated:
                yield from self._uncorrelated_join_plans(
                    op, left, right, left_rows, right_rows, out_rows)
            yield from self._index_apply_plans(op, left, left_rows, out_rows)
            return

        yield from self._uncorrelated_join_plans(
            op, left, right, left_rows, right_rows, out_rows)
        yield from self._index_apply_plans(op, left, left_rows, out_rows)

    def _uncorrelated_join_plans(self, op, left, right, left_rows,
                                 right_rows, out_rows):
        predicate = op.predicate
        left_ids = frozenset(c.cid for c in op.left.output_columns())
        right_ids = frozenset(c.cid for c in op.right.output_columns())
        equi, residual = split_equi(predicate, left_ids, right_ids)
        if equi:
            left_keys = [ColumnRef(l) for l, _ in equi]
            right_keys = [ColumnRef(r) for _, r in equi]
            plan = PHashJoin(op.kind, left.plan, right.plan, left_keys,
                             right_keys,
                             conjunction(residual) if residual else None)
            cost = (left.cost + right.cost
                    + right_rows * HASH_BUILD_ROW
                    + left_rows * HASH_PROBE_ROW
                    + out_rows * OUTPUT_ROW)
            yield CostedPlan(cost, plan)
        plan = PNestedLoopsJoin(op.kind, left.plan, right.plan, predicate)
        cost = (left.cost + right.cost
                + left_rows * max(right_rows, 1.0) * CPU_ROW
                + out_rows * OUTPUT_ROW)
        yield CostedPlan(cost, plan)

    def _index_apply_plans(self, op, left, left_rows, out_rows):
        """Index-lookup join: re-introduced correlated execution."""
        if not self._context.config.index_apply:
            return
        predicate = op.predicate
        if predicate is None:
            return
        left_ids = {c.cid: c for c in op.left.output_columns()}
        for get_op, extra in self._access_paths(op.right):
            get_ids = {c.cid: c for c in get_op.columns}
            pairs: dict[int, ScalarExpr] = {}
            residual: list[ScalarExpr] = []
            for part in conjuncts(predicate):
                pair = _cross_equality(part, left_ids, get_ids)
                if pair is not None and pair[1].cid not in pairs:
                    pairs[pair[1].cid] = ColumnRef(pair[0])
                else:
                    residual.append(part)
            if not pairs:
                continue
            names = {get_ids[cid].name for cid in pairs}
            index_cols = self._context.pick_index(get_op.table_name, names)
            if index_cols is None:
                continue
            by_name = {c.name: c for c in get_op.columns}
            key_columns = [by_name[n] for n in index_cols]
            key_exprs = [pairs[c.cid] for c in key_columns]
            used = {c.cid for c in key_columns}
            for cid, expr in pairs.items():
                if cid not in used:
                    residual.append(
                        Comparison("=", expr, ColumnRef(get_ids[cid])))
            seek_residual = list(conjuncts(extra)) if extra is not None else []
            seek = PIndexSeek(get_op.table_name, get_op.columns,
                              key_columns, key_exprs,
                              conjunction(seek_residual)
                              if seek_residual else None)
            matches = max(self._context.table_rows(get_op.table_name)
                          / max(self._context.index_selectivity_denominator(
                              get_op.table_name, index_cols), 1.0), 1.0)
            plan = PNLApply(op.kind, left.plan, seek,
                            conjunction(residual) if residual else None)
            cost = (left.cost
                    + left_rows * (SEEK_BASE + matches * SEEK_ROW)
                    + out_rows * OUTPUT_ROW)
            yield CostedPlan(cost, plan)

    def _output_rows(self, op) -> float:
        estimator = self._context.make_estimator(
            group_lookup=lambda ref: self._memo.group(
                ref.group_id).estimate)
        return estimator.estimate(op).rows

    def _estimate_groups(self, op: GroupBy | LocalGroupBy) -> float:
        estimator = self._context.make_estimator(
            group_lookup=lambda ref: self._memo.group(
                ref.group_id).estimate)
        return estimator.estimate(op).rows

    # -- segmented execution ---------------------------------------------------------

    def _implement_segment_apply(self, op: SegmentApply) -> CostedPlan:
        left = self._child(op.left)
        left_est = self._memo.group(op.left.group_id).estimate
        segments = 1.0
        for column in op.segment_columns:
            segments *= left_est.ndv(column.cid)
        segments = max(min(segments, max(left_est.rows, 1.0)), 1.0)
        per_segment_rows = left_est.rows / segments

        from .cardinality import ColumnEstimate, Estimate as Est
        seg_columns = {}
        left_cols = self._memo.group(op.left.group_id).columns
        for left_col, inner_col in zip(left_cols, op.inner_columns):
            info = left_est.columns.get(left_col.cid)
            ndv = min(info.ndv, per_segment_rows) if info else per_segment_rows
            seg_columns[inner_col.cid] = ColumnEstimate(max(ndv, 1.0))
        segment_estimate = Est(per_segment_rows, seg_columns)
        key = frozenset(c.cid for c in op.inner_columns)

        inner = self._context.optimize_subtree(
            op.right, {key: segment_estimate})
        plan = PSegmentApply(left.plan, inner.plan, op.segment_columns,
                             op.inner_columns)
        cost = (left.cost + left_est.rows * HASH_BUILD_ROW
                + segments * (inner.cost + APPLY_REOPEN))
        return CostedPlan(cost, plan)


# ---------------------------------------------------------------------------
# predicate decomposition helpers
# ---------------------------------------------------------------------------

def _constant_equality(part: ScalarExpr, get_ids: dict):
    """Match ``col = probe`` where col belongs to the Get and the probe is
    a constant or an outer parameter (correlated index lookup — the
    paper's per-row "appropriate indices" execution)."""
    from ...algebra import Literal, Parameter

    if not (isinstance(part, Comparison) and part.op == "="):
        return None

    def probe(expr: ScalarExpr) -> bool:
        if isinstance(expr, (Literal, Parameter)):
            # Literals are constants; query parameters are constant per
            # execution (bound before the plan runs), so both can drive
            # an index seek.
            return True
        # A column not produced by the scanned table is a correlation
        # parameter bound by an enclosing NLApply.
        return (isinstance(expr, ColumnRef)
                and expr.column.cid not in get_ids)

    left, right = part.left, part.right
    if isinstance(left, ColumnRef) and left.column.cid in get_ids \
            and probe(right):
        return left.column, right
    if isinstance(right, ColumnRef) and right.column.cid in get_ids \
            and probe(left):
        return right.column, left
    return None


def _cross_equality(part: ScalarExpr, left_ids: dict, get_ids: dict):
    """Match ``left_col = get_col`` in either order."""
    if not (isinstance(part, Comparison) and part.op == "="):
        return None
    left, right = part.left, part.right
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        if left.column.cid in left_ids and right.column.cid in get_ids:
            return left.column, right.column
        if right.column.cid in left_ids and left.column.cid in get_ids:
            return right.column, left.column
    return None
