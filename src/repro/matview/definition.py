"""Materialized-view definitions and their backing-table schemas.

A materialized view stores the §3.3 *local-aggregate* form of its
defining query: one backing row per group, carrying ``count(*)`` plus
per-column partial aggregates (``sum``/``count``/``min``/``max``).
Carrying counts alongside sums is what makes the stored form
*composable*: a query's ``AVG`` re-derives as ``sum(sum_c)/sum(cnt_c)``
and its ``COUNT`` as ``sum(cnt_c)``, so a query grouping *coarser* than
the view can still be answered by re-aggregating view rows (the
global-aggregate step of the paper's segmented execution).

The definition is kept as its bound, normalized logical tree: the
:class:`~repro.matview.shape.AggregateShape` the optimizer matches
queries against, and the local-aggregate tree (:attr:`MatViewDef.local`)
whose output *is* the backing table's layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algebra import (AggregateCall, AggregateFunction, Column, ColumnRef,
                       DataType, GroupBy, Project, RelationalOp,
                       ScalarGroupBy, Select, Sort, Top, conjunction)
from ..catalog import ColumnDef, TableDef
from ..core.normalize import normalize
from ..errors import BindError, ReproError, SqlSyntaxError
from ..sql import ast, parse
from .shape import AggregateShape, aggregate_shapes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..binder import Binder

F = AggregateFunction

#: The partials stored per aggregated base column, in backing-column
#: order: ``(prefix, partial aggregate, query aggregates it serves)``.
_PARTIALS = (
    ("sum", F.SUM, frozenset({F.SUM, F.AVG})),
    ("cnt", F.COUNT, frozenset({F.SUM, F.AVG, F.COUNT})),
    ("min", F.MIN, frozenset({F.MIN})),
    ("max", F.MAX, frozenset({F.MAX})),
)


class MatViewError(ReproError):
    """Invalid materialized-view definition or operation."""


@dataclass(frozen=True, eq=False)
class MatViewDef:
    """A registered materialized view."""

    name: str                # lowered view name
    sql: str                 # defining SELECT text (verbatim)
    shape: AggregateShape    # the definition's bound, normalized shape
    local: GroupBy           # base rows -> backing rows (§3.3 local form)
    backing: TableDef        # the backing table: ``local``'s output

    @property
    def table(self) -> str:
        """The base table, lowered."""
        return self.shape.table

    @classmethod
    def from_sql(cls, name: str, sql: str,
                 binder: "Binder") -> "MatViewDef":
        """Bind, normalize and validate a defining query.

        An unknown base table raises
        :class:`~repro.errors.CatalogError`; every other invalid
        definition raises :class:`MatViewError`.
        """
        try:
            bound = binder.bind(parse(sql))
        except (SqlSyntaxError, BindError) as exc:
            raise MatViewError(
                f"materialized view {name!r}: {exc}") from exc
        if bound.parameters:
            raise MatViewError(
                f"materialized view {name!r}: defining query cannot "
                "take parameters")
        return cls.from_tree(name, sql, bound.rel)

    @classmethod
    def from_tree(cls, name: str, sql: str,
                  rel: RelationalOp) -> "MatViewDef":
        """A view over a bound defining tree.  The tree is normalized
        here, so its conjuncts take the form queries reach the
        optimizer in."""
        def invalid(reason: str) -> MatViewError:
            return MatViewError(f"materialized view {name!r}: {reason}")

        node = normalize(rel)
        while isinstance(node, (Project, Sort, Top)):
            if not isinstance(node, Project):
                raise invalid("ORDER BY / LIMIT have no meaning in a "
                              "stored view definition")
            if not all(isinstance(e, ColumnRef) for _, e in node.items):
                break
            node = node.child
        if isinstance(node, ScalarGroupBy):
            raise invalid("defining query needs a GROUP BY clause")
        if isinstance(node, GroupBy) and not node.aggregates:
            raise invalid("defining query needs at least one aggregate "
                          "output")
        shape = next(aggregate_shapes(node), None)
        if shape is None:
            raise invalid(
                "defining query must be a single-table GROUP BY over "
                "plain columns with count/sum/avg/min/max aggregates (no "
                "joins, DISTINCT, HAVING, or expression grouping)")
        local = _local_aggregate(shape)
        columns = [ColumnDef(c.name, c.dtype, c.nullable)
                   for c in local.output_columns()]
        try:
            backing = TableDef(
                name.lower(), columns,
                primary_key=[c.name for c in local.group_columns])
        except ReproError as exc:
            raise invalid(f"generated backing columns collide: "
                          f"{sorted(c.name for c in columns)}") from exc
        return cls(name.lower(), sql.strip(), shape, local, backing)

    def supports(self, call: AggregateCall) -> bool:
        """Can the backing table answer aggregate ``call``?"""
        if not isinstance(call.argument, ColumnRef):
            return call.argument is None  # count(*)
        column = call.argument.column.name
        return all(self.backing.has_column(f"{prefix}_{column}")
                   for prefix, _, serves in _PARTIALS
                   if call.func in serves)


def base_table(name: str, sql: str) -> str:
    """The one table a defining query's FROM names, read off the parse
    tree (so CREATE can lock the base before binding)."""
    try:
        statement = parse(sql)
    except SqlSyntaxError as exc:
        raise MatViewError(f"materialized view {name!r}: {exc}") from exc
    sources = getattr(statement, "from_items", ())
    if len(sources) != 1 or not isinstance(sources[0], ast.TableRef):
        raise MatViewError(f"materialized view {name!r}: defining query "
                           "must read exactly one base table")
    return sources[0].name.lower()


def _local_aggregate(shape: AggregateShape) -> GroupBy:
    """``count(*)`` plus the partials every aggregated column needs,
    grouped like the view; the output is the backing-table layout."""
    get = shape.get
    by_name = {c.name: c for c in get.columns}
    used: dict[str, set[AggregateFunction]] = {}
    for _, call in shape.aggregate.aggregates:
        if isinstance(call.argument, ColumnRef):
            used.setdefault(call.argument.column.name, set()).add(call.func)
    partials = [(Column("cnt_star", DataType.INTEGER, nullable=False),
                 AggregateCall(F.COUNT_STAR))]
    for name in sorted(used):
        column = by_name[name]
        for prefix, func, serves in _PARTIALS:
            if not used[name] & serves:
                continue
            counted = func is F.COUNT
            partials.append((
                Column(f"{prefix}_{name}",
                       DataType.INTEGER if counted else column.dtype,
                       nullable=not counted),
                AggregateCall(func, ColumnRef(column))))
    child: RelationalOp = get
    if shape.conjuncts:
        child = Select(get, conjunction(shape.conjuncts))
    return GroupBy(child, shape.aggregate.group_columns, partials)
