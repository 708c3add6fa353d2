"""View substitution: one more memo rule beside ``LocalGlobalSplit``.

A materialized view stores the §3.3 local aggregate of its definition,
so a query aggregate the view subsumes (:func:`~repro.matview.shape.match`)
is the *global* aggregate over the view's backing rows:

    G_{A,F} (σ_p Get(base))  =  [π_fin] G_{A,Fg} (σ_r Get(backing))

where ``r`` are the query conjuncts the view does not apply (over view
group columns only) and ``Fg`` combines stored partials: ``sum`` of
``sum_c``/``cnt_c``/``cnt_star`` for sum and counts, ``min``/``max`` of
``min_c``/``max_c``.  The finalizing projection ``π_fin`` derives
``avg`` as ``sum(sum_c) / sum(cnt_c)`` and — for a scalar aggregate —
turns the ``NULL`` that ``sum`` gives over no backing rows into the
``0`` that ``count`` must return.  The alternative joins the aggregate's
memo group and the cost model chooses, so among several usable views
the one with the fewest rows wins by costing alone.

The optimizer carries this rule only when the catalog has materialized
views and the statement allows them; NAIVE mode and the heuristic
fallback never explore, so they always read base tables.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..algebra import (AggregateCall, AggregateFunction, Arithmetic, Case,
                       Column, ColumnRef, Get, GroupBy, IsNull, Literal,
                       Project, RelationalOp, ScalarExpr, ScalarGroupBy,
                       Select, conjunction)
from ..core.optimizer.memo import GroupRefLeaf, Memo
from ..core.optimizer.rules import Rule
from .definition import MatViewDef
from .shape import AggregateShape, ViewMatch, aggregate_shapes, match

F = AggregateFunction


class ViewSubstitution(Rule):
    """Answer an aggregate by re-aggregating a materialized view."""

    name = "matview_substitution"

    def __init__(self, views: Sequence[MatViewDef]) -> None:
        self.views = tuple(views)

    def apply(self, op: RelationalOp, memo: Memo) -> list[RelationalOp]:
        def expand(child: RelationalOp) -> Iterable[RelationalOp]:
            if isinstance(child, GroupRefLeaf):
                return [e.op for e in memo.group(child.group_id).exprs]
            return (child,)

        results: list[RelationalOp] = []
        for shape in aggregate_shapes(op, expand):
            for view in self.views:
                found = match(view, shape)
                if found is not None:
                    results.append(substitute(view, shape, found))
        return results


def substitute(view: MatViewDef, shape: AggregateShape,
               found: ViewMatch) -> RelationalOp:
    """The global aggregate over ``view``'s backing rows, with the exact
    output columns of ``shape.aggregate``."""
    backing = view.backing
    # The scan reuses the query's columns for the view's group columns,
    # so the residual filter and the grouping read them unchanged; the
    # partial columns are fresh.
    width = len(found.group)
    columns = list(found.group) + [
        Column(c.name, c.dtype, c.nullable)
        for c in backing.columns[width:]]
    stored = {c.name: ColumnRef(c) for c in columns[width:]}
    child: RelationalOp = Get(backing.name, columns, [found.group], backing)
    if found.residual:
        child = Select(child, conjunction(found.residual))

    aggregate = shape.aggregate
    scalar = isinstance(aggregate, ScalarGroupBy)
    combined: list[tuple[Column, AggregateCall]] = []
    finals: dict[int, ScalarExpr] = {}
    for column, call in aggregate.aggregates:
        if not isinstance(call.argument, ColumnRef):  # count(*)
            counted = stored["cnt_star"]
        else:
            base = call.argument.column.name
            if call.func is F.AVG:
                total = _partial(combined, stored[f"sum_{base}"])
                count = _partial(combined, stored[f"cnt_{base}"])
                # AVG is a float even when integer sums divide evenly.
                finals[column.cid] = Arithmetic(
                    "/", Arithmetic("*", total, Literal(1.0)), count)
                continue
            if call.func is not F.COUNT:
                combined.append((column, AggregateCall(
                    call.func, stored[f"{call.func.value}_{base}"])))
                continue
            counted = stored[f"cnt_{base}"]
        if scalar:
            # No backing row at all: sum() is NULL where count() is 0.
            summed = _partial(combined, counted)
            finals[column.cid] = Case([(IsNull(summed), Literal(0))],
                                      summed)
        else:
            combined.append((column, AggregateCall(F.SUM, counted)))

    top: RelationalOp
    if scalar:
        top = ScalarGroupBy(child, combined)
    else:
        top = GroupBy(child, aggregate.group_columns, combined)
    if not finals:
        return top
    return Project(top, [(c, finals.get(c.cid, ColumnRef(c)))
                         for c in aggregate.output_columns()])


def _partial(combined: list[tuple[Column, AggregateCall]],
             source: ColumnRef) -> ColumnRef:
    """``sum(source)`` into a fresh column, for a finalizer to read."""
    column = Column(source.column.name, source.dtype)
    combined.append((column, AggregateCall(F.SUM, source)))
    return ColumnRef(column)
