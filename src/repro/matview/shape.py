"""The aggregate shape a materialized view stores or answers, on bound trees.

One extractor serves every place that reasons about view usability —
CREATE (a definition's shape), the optimizer's view-substitution rule (a
memo group's shape) and the advisor (a cached plan's shape):

    GroupBy / ScalarGroupBy
      [Select]
        Get(base)

with every aggregate either ``count(*)`` or a non-DISTINCT aggregate of a
plain base column.  :func:`match` is the containment test of Cohen & Nutt
("Algorithms for Rewriting Aggregate Queries Using Views") stated on those
shapes; base columns of two bindings correspond by position, so
conjuncts compare structurally after renaming one side's columns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from ..algebra import (Column, ColumnRef, Get, GroupBy, RelationalOp,
                       ScalarExpr, ScalarGroupBy, Select, conjuncts)
from ..algebra.relational import _GroupByBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .definition import MatViewDef

#: Lists the alternatives a child operator stands for: a memo group's
#: expressions during exploration, or just the child in a plain tree.
Expand = Callable[[RelationalOp], Iterable[RelationalOp]]


def _itself(child: RelationalOp) -> Iterable[RelationalOp]:
    return (child,)


@dataclass(frozen=True)
class AggregateShape:
    """An aggregate over an optionally filtered base-table scan."""

    aggregate: _GroupByBase            # GroupBy or ScalarGroupBy
    get: Get
    conjuncts: tuple[ScalarExpr, ...]  # the Select's, over ``get``'s columns

    @property
    def table(self) -> str:
        return self.get.table_name.lower()


@dataclass(frozen=True)
class ViewMatch:
    """How a view answers a query shape."""

    #: Query conjuncts the view does not apply; they reference only the
    #: view's group columns (and correlation or parameter values).
    residual: tuple[ScalarExpr, ...]
    #: The query's base columns standing for the view's group columns,
    #: in the view's order.
    group: tuple[Column, ...]


def aggregate_shapes(op: RelationalOp,
                     expand: Expand = _itself) -> Iterator[AggregateShape]:
    """Every shape rooted at ``op`` (none when ``op`` does not fit)."""
    if not isinstance(op, (GroupBy, ScalarGroupBy)) or not op.aggregates:
        return
    for child in expand(op.child):
        found: list[tuple[Get, tuple[ScalarExpr, ...]]]
        if isinstance(child, Get):
            found = [(child, ())]
        elif isinstance(child, Select):
            parts = tuple(conjuncts(child.predicate))
            found = [(inner, parts) for inner in expand(child.child)
                     if isinstance(inner, Get)]
        else:
            continue
        for get, parts in found:
            if _plain_aggregates(op, get):
                yield AggregateShape(op, get, parts)


def _plain_aggregates(op: _GroupByBase, get: Get) -> bool:
    ids = {c.cid for c in get.columns}
    for _, call in op.aggregates:
        if call.distinct:
            return False
        argument = call.argument
        if argument is not None and not (
                isinstance(argument, ColumnRef)
                and argument.column.cid in ids):
            return False
    return True


def match(view: "MatViewDef", shape: AggregateShape) -> Optional[ViewMatch]:
    """The containment test, or ``None`` when the view cannot answer:

    * same base table;
    * the view's conjuncts are a sub-multiset of the query's;
    * the residual conjuncts reference only the view's group columns;
    * the query's grouping is equal to or coarser than the view's;
    * every query aggregate derives from the stored partials.
    """
    stored = view.shape
    if shape.table != stored.table:
        return None
    query_columns = shape.get.columns
    view_columns = stored.get.columns
    if len(query_columns) != len(view_columns):
        return None
    to_view = {q.cid: v for q, v in zip(query_columns, view_columns)}
    to_query = {v.cid: q for q, v in zip(query_columns, view_columns)}
    needed = Counter(stored.conjuncts)
    residual = []
    for part in shape.conjuncts:
        key = part.remap_columns(to_view)
        if needed[key] > 0:
            needed[key] -= 1
        else:
            residual.append(part)
    if +needed:
        return None  # the view filters rows the query keeps
    group = tuple(to_query[c.cid]
                  for c in stored.aggregate.group_columns)
    group_ids = {c.cid for c in group}
    base_ids = frozenset(to_view)
    for part in residual:
        if not (part.free_columns().ids() & base_ids) <= group_ids:
            return None
    if not {c.cid for c in shape.aggregate.group_columns} <= group_ids:
        return None
    if not all(view.supports(call) for _, call in
               shape.aggregate.aggregates):
        return None
    return ViewMatch(tuple(residual), group)
