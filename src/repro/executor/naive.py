"""Naive logical-tree interpreter.

Directly interprets a *logical* operator tree, including the
pre-normalization form with relational subtrees embedded in scalar
expressions — the "straightforward execution ... 'nested loops style' ...
mutual recursion between the relational and the scalar execution
components" of paper Section 2.1.

It plays two roles in this reproduction:

* the **correlated execution** baseline of Figure 1 (and of the benchmark
  configurations), and
* the **correctness oracle**: it is an independent implementation of SQL
  semantics against which the normalized/optimized pipeline is
  differentially tested.

Rows are dictionaries from column id to value; clarity over speed is the
point here.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterable, Iterator

from ..algebra.aggregates import descriptor
from ..algebra.columns import Column
from ..algebra.datatypes import (ARITHMETIC_FUNCTIONS, sql_and, sql_compare,
                                 sql_not, sql_or)
from ..algebra.relational import (Apply, ConstantScan, Difference, Get,
                                  GroupBy, Join, JoinKind, LocalGroupBy,
                                  Max1row, Project, RelationalOp,
                                  ScalarGroupBy, SegmentApply, SegmentRef,
                                  Select, Sort, Top, UnionAll)
from ..algebra.scalar import (AggregateCall, And, Arithmetic, Case,
                              ColumnRef, Comparison, ExistsSubquery,
                              Extract, InList, InSubquery, IsNull, Like,
                              Literal, Negate, Not, Or, Parameter,
                              QuantifiedComparison, ScalarExpr,
                              ScalarSubquery, parameter_slot)
from ..errors import ExecutionError, SubqueryReturnedMultipleRows

Row = dict[int, Any]


class NaiveInterpreter:
    """Evaluates logical trees against a table provider.

    ``table_provider`` maps a table name to an iterable of value tuples in
    declaration order (e.g. ``storage.get(name).rows``).
    """

    def __init__(self, table_provider: Callable[[str], Iterable[tuple]],
                 governor=None, profile: dict | None = None) -> None:
        self._table_provider = table_provider
        self._segments: dict[frozenset[int], list[Row]] = {}
        #: Optional ResourceGovernor; base-table scans are metered, which
        #: also covers correlated re-evaluation (each re-open rescans).
        self._governor = governor
        #: Optional ``dict[int, int]``: actual rows produced per logical
        #: node (keyed by ``id(node)``), for EXPLAIN ANALYZE in naive
        #: mode.  ``None`` disables counting — ``rows`` then forwards
        #: straight to the dispatch with no per-row wrapper.
        self._profile = profile

    # -- public API --------------------------------------------------------------

    def run(self, rel: RelationalOp,
            params: Iterable[Any] | None = None) -> list[tuple]:
        """Execute and return rows as tuples in output-column order.

        ``params`` binds query parameters (slot order); they live in the
        environment under negative keys (``parameter_slot``), disjoint
        from column ids.
        """
        from .. import faultinject
        faultinject.hit("executor.naive")
        governor = self._governor
        if governor is not None:
            governor.start()
        env: Row = {}
        if params is not None:
            for i, value in enumerate(params):
                env[parameter_slot(i)] = value
        columns = rel.output_columns()
        source = self.rows(rel, env)
        if governor is not None:
            source = governor.guard(source)
        result = [tuple(row[c.cid] for c in columns) for row in source]
        if governor is not None:
            governor.check_deadline()
        return result

    # -- relational evaluation ----------------------------------------------------

    def rows(self, rel: RelationalOp, env: Row) -> Iterator[Row]:
        """Evaluate ``rel`` with outer parameter bindings ``env``.

        With profiling enabled the produced rows are counted per logical
        node (correlated re-evaluation accumulates, mirroring the
        physical engine's per-binding accumulation under NLApply).
        """
        source = self._rows(rel, env)
        if self._profile is None:
            return source
        return self._counted(source, id(rel))

    def _counted(self, source: Iterable[Row], key: int) -> Iterator[Row]:
        n = 0
        try:
            for row in source:
                n += 1
                yield row
        finally:
            profile = self._profile
            if profile is not None:
                profile[key] = profile.get(key, 0) + n

    def _rows(self, rel: RelationalOp, env: Row) -> Iterator[Row]:
        """Dispatch: evaluate one logical operator.

        Yields rows lazily: a Select over a cross product filters row by
        row instead of materializing the product (still naive — no
        indexes, no reordering — but not needlessly exploding memory).
        """
        if isinstance(rel, Get):
            return self._scan(rel)
        if isinstance(rel, ConstantScan):
            return (dict(zip((c.cid for c in rel.columns), row))
                    for row in rel.rows)
        if isinstance(rel, SegmentRef):
            key = frozenset(c.cid for c in rel.columns)
            try:
                return (dict(r) for r in self._segments[key])
            except KeyError:
                raise ExecutionError(
                    "SegmentRef evaluated outside SegmentApply") from None
        if isinstance(rel, Select):
            return (row for row in self.rows(rel.child, env)
                    if self.scalar(rel.predicate, {**env, **row}) is True)
        if isinstance(rel, Project):
            def project():
                for row in self.rows(rel.child, env):
                    merged = {**env, **row}
                    yield {c.cid: self.scalar(e, merged)
                           for c, e in rel.items}
            return project()
        if isinstance(rel, Join):
            return self._join(rel, env)
        if isinstance(rel, Apply):
            return self._apply(rel, env)
        if isinstance(rel, SegmentApply):
            return self._segment_apply(rel, env)
        if isinstance(rel, ScalarGroupBy):
            return self._scalar_groupby(rel, env)
        if isinstance(rel, (GroupBy, LocalGroupBy)):
            return self._groupby(rel, env)
        if isinstance(rel, Max1row):
            def max1():
                produced = 0
                for row in self.rows(rel.child, env):
                    produced += 1
                    if produced > 1:
                        raise SubqueryReturnedMultipleRows()
                    yield row
            return max1()
        if isinstance(rel, Sort):
            return self._sort(rel, env)
        if isinstance(rel, Top):
            import itertools
            return itertools.islice(self.rows(rel.child, env),
                                    rel.offset, rel.offset + rel.count)
        if isinstance(rel, UnionAll):
            return self._union_all(rel, env)
        if isinstance(rel, Difference):
            return self._difference(rel, env)
        raise ExecutionError(f"naive interpreter: unsupported operator "
                             f"{type(rel).__name__}")

    def _scan(self, rel: Get) -> Iterator[Row]:
        cids = [c.cid for c in rel.columns]
        source = self._table_provider(rel.table_name)
        if self._governor is not None:
            source = self._governor.guard_scan(source)
        for values in source:
            yield dict(zip(cids, values))

    def _join(self, rel: Join, env: Row) -> Iterator[Row]:
        right_rows = list(self.rows(rel.right, env))
        for left_row in self.rows(rel.left, env):
            yield from _combine(
                rel.kind, [left_row], right_rows, rel.predicate,
                rel.right.output_columns(),
                lambda pred, row: self.scalar(pred, {**env, **row}))

    def _apply(self, rel: Apply, env: Row) -> Iterator[Row]:
        right_cids = [c.cid for c in rel.right.output_columns()]
        for left_row in self.rows(rel.left, env):
            inner_env = {**env, **left_row}
            if rel.guard is not None and \
                    self.scalar(rel.guard, inner_env) is not True:
                # Conditional execution (paper §2.4): the subexpression is
                # not evaluated at all; the row is NULL-padded.
                padded = dict(left_row)
                padded.update({cid: None for cid in right_cids})
                yield padded
                continue
            right_rows = list(self.rows(rel.right, inner_env))
            yield from _combine(
                rel.kind, [left_row], right_rows, rel.predicate,
                rel.right.output_columns(),
                lambda pred, row: self.scalar(pred, {**inner_env, **row}))

    def _segment_apply(self, rel: SegmentApply, env: Row) -> list[Row]:
        left_rows = self.rows(rel.left, env)
        seg_cids = [c.cid for c in rel.segment_columns]
        left_cids = [c.cid for c in rel.left.output_columns()]
        inner_cids = [c.cid for c in rel.inner_columns]
        ref_key = frozenset(inner_cids)

        segments: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in left_rows:
            key = tuple(row[cid] for cid in seg_cids)
            if key not in segments:
                segments[key] = []
                order.append(key)
            segments[key].append(
                {ic: row[lc] for lc, ic in zip(left_cids, inner_cids)})

        result: list[Row] = []
        previous = self._segments.get(ref_key)
        try:
            for key in order:
                self._segments[ref_key] = segments[key]
                for right_row in self.rows(rel.right, env):
                    out = dict(zip(seg_cids, key))
                    out.update(right_row)
                    result.append(out)
        finally:
            if previous is None:
                self._segments.pop(ref_key, None)
            else:
                self._segments[ref_key] = previous
        return result

    def _scalar_groupby(self, rel: ScalarGroupBy, env: Row) -> list[Row]:
        rows = list(self.rows(rel.child, env))
        out: Row = {}
        for column, call in rel.aggregates:
            out[column.cid] = self._fold(call, rows, env)
        return [out]

    def _groupby(self, rel: GroupBy | LocalGroupBy, env: Row) -> list[Row]:
        rows = self.rows(rel.child, env)
        group_cids = [c.cid for c in rel.group_columns]
        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(row[cid] for cid in group_cids)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        result = []
        for key in order:
            out = dict(zip(group_cids, key))
            for column, call in rel.aggregates:
                out[column.cid] = self._fold(call, groups[key], env)
            result.append(out)
        return result

    def _fold(self, call: AggregateCall, rows: list[Row], env: Row) -> Any:
        desc = descriptor(call.func)
        state = desc.initial()
        seen: set | None = set() if call.distinct else None
        for row in rows:
            if call.argument is None:
                value = None  # count(*): value ignored
            else:
                value = self.scalar(call.argument, {**env, **row})
            if seen is not None:
                if value in seen:
                    continue
                seen.add(value)
            state = desc.step(state, value)
        return desc.final(state)

    def _sort(self, rel: Sort, env: Row) -> list[Row]:
        rows = self.rows(rel.child, env)

        def sort_key(row: Row):
            parts = []
            for expr, ascending in rel.keys:
                value = self.scalar(expr, {**env, **row})
                parts.append(_SortValue(value, ascending))
            return parts

        return sorted(rows, key=sort_key)

    def _union_all(self, rel: UnionAll, env: Row) -> list[Row]:
        out_cids = [c.cid for c in rel.columns]
        result = []
        for source, imap in zip(rel.inputs, rel.input_maps):
            source_cids = [c.cid for c in imap]
            for row in self.rows(source, env):
                result.append({out: row[src]
                               for out, src in zip(out_cids, source_cids)})
        return result

    def _difference(self, rel: Difference, env: Row) -> list[Row]:
        out_cids = [c.cid for c in rel.columns]
        left_cids = [c.cid for c in rel.left_map]
        right_cids = [c.cid for c in rel.right_map]
        from collections import Counter

        right_counter: Counter = Counter()
        for row in self.rows(rel.right, env):
            right_counter[tuple(_hashable(row[cid]) for cid in right_cids)] += 1
        result = []
        for row in self.rows(rel.left, env):
            key = tuple(_hashable(row[cid]) for cid in left_cids)
            if right_counter[key] > 0:
                right_counter[key] -= 1
                continue
            result.append({out: row[src]
                           for out, src in zip(out_cids, left_cids)})
        return result

    # -- scalar evaluation -----------------------------------------------------

    def scalar(self, expr: ScalarExpr, env: Row) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Parameter):
            try:
                return env[parameter_slot(expr.index)]
            except KeyError:
                raise ExecutionError(
                    f"unbound query parameter {expr.sql()}") from None
        if isinstance(expr, ColumnRef):
            try:
                return env[expr.column.cid]
            except KeyError:
                raise ExecutionError(
                    f"unbound column {expr.column!r}") from None
        if isinstance(expr, Comparison):
            return sql_compare(expr.op, self.scalar(expr.left, env),
                               self.scalar(expr.right, env))
        if isinstance(expr, And):
            result: Any = True
            for arg in expr.args:
                result = sql_and(result, self.scalar(arg, env))
                if result is False:
                    return False
            return result
        if isinstance(expr, Or):
            result = False
            for arg in expr.args:
                result = sql_or(result, self.scalar(arg, env))
                if result is True:
                    return True
            return result
        if isinstance(expr, Not):
            return sql_not(self.scalar(expr.arg, env))
        if isinstance(expr, IsNull):
            is_null = self.scalar(expr.arg, env) is None
            return not is_null if expr.negated else is_null
        if isinstance(expr, Arithmetic):
            return ARITHMETIC_FUNCTIONS[expr.op](
                self.scalar(expr.left, env), self.scalar(expr.right, env))
        if isinstance(expr, Negate):
            value = self.scalar(expr.arg, env)
            return None if value is None else -value
        if isinstance(expr, Case):
            for condition, value in expr.whens:
                if self.scalar(condition, env) is True:
                    return self.scalar(value, env)
            if expr.otherwise is not None:
                return self.scalar(expr.otherwise, env)
            return None
        if isinstance(expr, Like):
            value = self.scalar(expr.arg, env)
            if value is None:
                return None
            matched = like_match(expr.pattern, value)
            return not matched if expr.negated else matched
        if isinstance(expr, Extract):
            value = self.scalar(expr.arg, env)
            if value is None:
                return None
            return getattr(value, expr.part)
        if isinstance(expr, InList):
            return self._in_list(expr, env)
        if isinstance(expr, ScalarSubquery):
            rows = list(self.rows(expr.query, env))
            if len(rows) > 1:
                raise SubqueryReturnedMultipleRows()
            if not rows:
                return None
            (column,) = expr.query.output_columns()
            return rows[0][column.cid]
        if isinstance(expr, ExistsSubquery):
            exists = any(True for _ in self.rows(expr.query, env))
            return not exists if expr.negated else exists
        if isinstance(expr, InSubquery):
            return self._in_subquery(expr, env)
        if isinstance(expr, QuantifiedComparison):
            return self._quantified(expr, env)
        if isinstance(expr, AggregateCall):
            raise ExecutionError(
                "aggregate evaluated outside a GroupBy operator")
        raise ExecutionError(f"naive interpreter: unsupported expression "
                             f"{type(expr).__name__}")

    def _in_list(self, expr: InList, env: Row) -> Any:
        needle = self.scalar(expr.arg, env)
        result: Any = False
        for value in expr.values:
            result = sql_or(result, sql_compare("=", needle, value))
            if result is True:
                break
        return sql_not(result) if expr.negated else result

    def _in_subquery(self, expr: InSubquery, env: Row) -> Any:
        needle = self.scalar(expr.needle, env)
        (column,) = expr.query.output_columns()
        result: Any = False
        for row in self.rows(expr.query, env):
            result = sql_or(result, sql_compare("=", needle, row[column.cid]))
            if result is True:
                break
        return sql_not(result) if expr.negated else result

    def _quantified(self, expr: QuantifiedComparison, env: Row) -> Any:
        needle = self.scalar(expr.needle, env)
        (column,) = expr.query.output_columns()
        if expr.quantifier == "ANY":
            result: Any = False
            for row in self.rows(expr.query, env):
                result = sql_or(result, sql_compare(
                    expr.op, needle, row[column.cid]))
                if result is True:
                    break
            return result
        result = True
        for row in self.rows(expr.query, env):
            result = sql_and(result, sql_compare(
                expr.op, needle, row[column.cid]))
            if result is False:
                break
        return result


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _combine(kind: JoinKind, left_rows: list[Row], right_rows: list[Row],
             predicate, right_columns: list[Column],
             evaluate) -> list[Row]:
    """Combine left and right row sets under a join kind + predicate."""
    result: list[Row] = []
    right_cids = [c.cid for c in right_columns]
    for left_row in left_rows:
        matches = []
        for right_row in right_rows:
            combined = {**left_row, **right_row}
            if predicate is None or evaluate(predicate, combined) is True:
                matches.append(combined)
        if kind is JoinKind.INNER:
            result.extend(matches)
        elif kind is JoinKind.LEFT_OUTER:
            if matches:
                result.extend(matches)
            else:
                padded = dict(left_row)
                padded.update({cid: None for cid in right_cids})
                result.append(padded)
        elif kind is JoinKind.LEFT_SEMI:
            if matches:
                result.append(dict(left_row))
        elif kind is JoinKind.LEFT_ANTI:
            if not matches:
                result.append(dict(left_row))
        else:  # pragma: no cover
            raise ExecutionError(f"unsupported join kind {kind}")
    return result


class _SortValue:
    """Sort wrapper: NULLs first on ascending, last on descending."""

    __slots__ = ("value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        self.value = value
        self.ascending = ascending

    def __lt__(self, other: "_SortValue") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return self.ascending
        if b is None:
            return not self.ascending
        if self.ascending:
            return a < b
        return b < a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortValue) and other.value == self.value


def _hashable(value: Any) -> Any:
    return value


def like_match(pattern: str, value: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    regex = _like_regex(pattern)
    return regex.fullmatch(value) is not None


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like_regex(pattern: str) -> re.Pattern:
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("".join(parts), re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled
