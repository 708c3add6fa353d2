"""Scalar expression compilation for the vectorized executor.

``compile_vector`` turns a scalar expression into a closure
``fn(batch, params) -> list`` that evaluates the expression over a whole
column batch at once and returns one output value per row.  ``batch`` is a
:class:`~repro.executor.vectorized.Batch` (list-of-columns), ``params``
maps correlation-parameter column ids / query-parameter slots to values.

Semantics are those of the naive interpreter's scalar evaluator
(:meth:`~repro.executor.naive.NaiveInterpreter.scalar`): the same
three-valued-logic helpers and NULL-propagating arithmetic are applied
elementwise.  The speed comes from the evaluation shape: one Python-level
loop (a list comprehension or a C-level ``map``) per operator per batch
instead of a closure-call tree per row.

Returned column lists must be treated as immutable — a compiled
``ColumnRef`` hands back the batch's own column list without copying, and
combinators always allocate fresh output lists.

Conditional evaluation (CASE) is preserved at batch granularity: branch
values are evaluated only over the rows whose condition selected them
(via gather/scatter), so a guarded division never runs on rows its guard
excludes — the batched analogue of the paper's Section 2.4 conditional
scalar execution.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from ..algebra.datatypes import (ARITHMETIC_FUNCTIONS, sql_and, sql_compare,
                                 sql_not, sql_or)
from ..algebra.scalar import (AggregateCall, And, Arithmetic, Case,
                              ColumnRef, Comparison, Extract, InList,
                              IsNull, Like, Literal, Negate, Not, Or,
                              Parameter, ScalarExpr, parameter_slot)
from ..errors import ExecutionError
from .naive import _like_regex

if TYPE_CHECKING:  # pragma: no cover
    from .vectorized import Batch

Layout = Mapping[int, int]
CompiledVector = Callable[["Batch", Mapping[int, Any]], list]

_COMPARE_FUNCTIONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_vector(expr: ScalarExpr, layout: Layout) -> CompiledVector:
    """Compile ``expr`` against a batch layout (column id → column position)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda batch, params: [value] * batch.nrows

    if isinstance(expr, ColumnRef):
        cid = expr.column.cid
        if cid in layout:
            position = layout[cid]
            return lambda batch, params: batch.columns[position]

        def read_param(batch: "Batch", params: Mapping[int, Any]) -> list:
            try:
                return [params[cid]] * batch.nrows
            except KeyError:
                raise ExecutionError(
                    f"unbound column/parameter {expr.column!r}") from None
        return read_param

    if isinstance(expr, Parameter):
        slot = parameter_slot(expr.index)
        label = expr.sql()

        def read_query_param(batch: "Batch",
                             params: Mapping[int, Any]) -> list:
            try:
                return [params[slot]] * batch.nrows
            except KeyError:
                raise ExecutionError(
                    f"unbound query parameter {label}") from None
        return read_query_param

    if isinstance(expr, Comparison):
        fn = _COMPARE_FUNCTIONS[expr.op]
        # Literal operands are common (filter constants) and hoistable.
        if isinstance(expr.right, Literal):
            rv = expr.right.value
            left = compile_vector(expr.left, layout)
            if rv is None:
                return lambda batch, params: [None] * batch.nrows
            return lambda batch, params: [
                None if a is None else fn(a, rv)
                for a in left(batch, params)]
        if isinstance(expr.left, Literal):
            lv = expr.left.value
            right = compile_vector(expr.right, layout)
            if lv is None:
                return lambda batch, params: [None] * batch.nrows
            return lambda batch, params: [
                None if b is None else fn(lv, b)
                for b in right(batch, params)]
        left = compile_vector(expr.left, layout)
        right = compile_vector(expr.right, layout)
        return lambda batch, params: [
            None if a is None or b is None else fn(a, b)
            for a, b in zip(left(batch, params), right(batch, params))]

    if isinstance(expr, And):
        compiled = [compile_vector(a, layout) for a in expr.args]

        def eval_and(batch: "Batch", params: Mapping[int, Any]) -> list:
            acc = list(compiled[0](batch, params))
            for fn in compiled[1:]:
                # batch-level short-circuit: all rows already FALSE
                if all(v is False for v in acc):
                    return acc
                acc = [sql_and(x, y)
                       for x, y in zip(acc, fn(batch, params))]
            return acc
        return eval_and

    if isinstance(expr, Or):
        compiled = [compile_vector(a, layout) for a in expr.args]

        def eval_or(batch: "Batch", params: Mapping[int, Any]) -> list:
            acc = list(compiled[0](batch, params))
            for fn in compiled[1:]:
                if all(v is True for v in acc):
                    return acc
                acc = [sql_or(x, y)
                       for x, y in zip(acc, fn(batch, params))]
            return acc
        return eval_or

    if isinstance(expr, Not):
        inner = compile_vector(expr.arg, layout)
        return lambda batch, params: [sql_not(v)
                                      for v in inner(batch, params)]

    if isinstance(expr, IsNull):
        inner = compile_vector(expr.arg, layout)
        if expr.negated:
            return lambda batch, params: [v is not None
                                          for v in inner(batch, params)]
        return lambda batch, params: [v is None
                                      for v in inner(batch, params)]

    if isinstance(expr, Arithmetic):
        fn = ARITHMETIC_FUNCTIONS[expr.op]
        if isinstance(expr.right, Literal) and expr.right.value is not None:
            rv = expr.right.value
            left = compile_vector(expr.left, layout)
            return lambda batch, params: [fn(a, rv)
                                          for a in left(batch, params)]
        if isinstance(expr.left, Literal) and expr.left.value is not None:
            lv = expr.left.value
            right = compile_vector(expr.right, layout)
            return lambda batch, params: [fn(lv, b)
                                          for b in right(batch, params)]
        left = compile_vector(expr.left, layout)
        right = compile_vector(expr.right, layout)
        return lambda batch, params: [
            fn(a, b)
            for a, b in zip(left(batch, params), right(batch, params))]

    if isinstance(expr, Negate):
        inner = compile_vector(expr.arg, layout)
        return lambda batch, params: [None if v is None else -v
                                      for v in inner(batch, params)]

    if isinstance(expr, Case):
        compiled_whens = [(compile_vector(c, layout),
                           compile_vector(v, layout))
                          for c, v in expr.whens]
        otherwise = (compile_vector(expr.otherwise, layout)
                     if expr.otherwise is not None else None)

        def eval_case(batch: "Batch", params: Mapping[int, Any]) -> list:
            from .vectorized import take_batch

            result: list = [None] * batch.nrows
            remaining = list(range(batch.nrows))
            for cond, value in compiled_whens:
                if not remaining:
                    break
                sub = take_batch(batch, remaining)
                conds = cond(sub, params)
                chosen = [row for row, v in zip(remaining, conds)
                          if v is True]
                if chosen:
                    values = value(take_batch(batch, chosen), params)
                    for row, v in zip(chosen, values):
                        result[row] = v
                remaining = [row for row, v in zip(remaining, conds)
                             if v is not True]
            if otherwise is not None and remaining:
                values = otherwise(take_batch(batch, remaining), params)
                for row, v in zip(remaining, values):
                    result[row] = v
            return result
        return eval_case

    if isinstance(expr, Extract):
        inner = compile_vector(expr.arg, layout)
        part = expr.part
        return lambda batch, params: [
            None if v is None else getattr(v, part)
            for v in inner(batch, params)]

    if isinstance(expr, Like):
        inner = compile_vector(expr.arg, layout)
        match = _like_regex(expr.pattern).fullmatch
        if expr.negated:
            return lambda batch, params: [
                None if v is None else match(v) is None
                for v in inner(batch, params)]
        return lambda batch, params: [
            None if v is None else match(v) is not None
            for v in inner(batch, params)]

    if isinstance(expr, InList):
        inner = compile_vector(expr.arg, layout)
        values = expr.values
        has_null = any(v is None for v in values)
        non_null = frozenset(v for v in values if v is not None)
        negated = expr.negated

        # A value outside the list is FALSE, or UNKNOWN when the list
        # holds a NULL; NOT IN flips TRUE and FALSE.
        hit = not negated
        miss = None if has_null else negated
        return lambda batch, params: [
            None if v is None else hit if v in non_null else miss
            for v in inner(batch, params)]

    if isinstance(expr, AggregateCall):
        raise ExecutionError(
            "aggregate call cannot be compiled as a batch expression")

    raise ExecutionError(
        f"cannot compile {type(expr).__name__} for batched execution; "
        f"physical plans must be normalized (no embedded subqueries)")


def build_layout(columns) -> dict[int, int]:
    """Column id → column position for an operator's output."""
    return {c.cid: i for i, c in enumerate(columns)}


def split_conjuncts(expr: Optional[ScalarExpr]) -> list[ScalarExpr]:
    """Flatten nested ANDs into a conjunct list (none for no predicate).

    Filtering keeps only rows where the whole predicate is TRUE, and an
    AND is TRUE exactly when every conjunct is TRUE — so a filter may
    apply conjuncts one at a time, compacting the batch between them
    (predicate short-circuiting at batch granularity).
    """
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[ScalarExpr] = []
        for arg in expr.args:
            out.extend(split_conjuncts(arg))
        return out
    return [expr]
