"""Workload-driven view selection: mine the plan cache for hot aggregates.

The plan cache keeps every compiled statement's bound tree
(:attr:`~repro.plancache.CachedPlan.rel`) and counts hits per entry, so
the advisor needs no separate workload log: it walks the cached entries,
reads each hot entry's aggregate shapes through the same extractor the
optimizer's substitution rule uses (:mod:`repro.matview.shape`), keeps
the shapes no existing view answers, and generalizes each into a view
definition:

* a conjunct free of parameters and correlation becomes part of the
  view's WHERE (rows the view can pre-filter for good) — but only when
  its rendering re-parses and re-binds to the same conjunct;
* every other conjunct cannot be baked in — its columns join the view's
  GROUP BY instead, so the substitution re-applies it as a residual
  filter over backing rows;
* the aggregate set is carried as-is (counts ride along automatically,
  see :mod:`repro.matview.definition`).

``recommend`` returns suggestions; ``auto_materialize`` creates them
through the normal CREATE path (WAL-logged, checkpointed, maintained).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..algebra import (ColumnRef, Get, Parameter, ScalarExpr, Select,
                       conjuncts)
from ..algebra.relational import collect_nodes
from ..errors import ReproError
from ..sql import parse
from .definition import MatViewDef, MatViewError
from .manager import Recommendation
from .shape import AggregateShape, aggregate_shapes, match

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database

#: An entry must have served at least this many cache hits before the
#: advisor considers its shape worth materializing.
DEFAULT_MIN_HITS = 3


def recommend(database: "Database",
              min_hits: int = DEFAULT_MIN_HITS) -> list[Recommendation]:
    """Hot aggregate shapes from the plan cache, most-hit first."""
    catalog = database.catalog
    views = [v for v in catalog.matviews() if isinstance(v, MatViewDef)]
    best: dict[tuple, Recommendation] = {}
    for entry in database.plan_cache.entries():
        if entry.matviews or entry.hits < min_hits:
            continue
        for node in collect_nodes(entry.rel):
            for shape in aggregate_shapes(node):
                if catalog.has_matview(shape.table):
                    continue
                if any(match(view, shape) for view in views):
                    continue  # an existing view already answers it
                sql = _view_sql(database, shape)
                if sql is None:
                    continue
                key = (shape.table, sql)
                seen = best.get(key)
                if seen is None:
                    best[key] = Recommendation(name="", table=shape.table,
                                               sql=sql, hits=entry.hits)
                else:
                    seen.hits = max(seen.hits, entry.hits)
    ranked = sorted(best.values(), key=lambda r: -r.hits)
    taken: set[str] = set()
    for suggestion in ranked:
        suggestion.name = _unique_name(database, taken)
        taken.add(suggestion.name)
    return ranked


def auto_materialize(database: "Database",
                     min_hits: int = DEFAULT_MIN_HITS
                     ) -> list[Recommendation]:
    """Create every current recommendation; returns what was created."""
    created = []
    for suggestion in recommend(database, min_hits=min_hits):
        try:
            database.matviews.create(suggestion.name, suggestion.sql)
        except MatViewError:
            continue  # a shape the definition validator refuses
        database.matviews.note_auto_created()
        created.append(suggestion)
    return created


def _view_sql(database: "Database", shape: AggregateShape) -> str | None:
    """Generalize a query shape into a defining SELECT."""
    base_ids = {c.cid for c in shape.get.columns}
    group_cols = [c.name for c in shape.aggregate.group_columns]
    stored = []
    for part in shape.conjuncts:
        text = _baked(database, shape, part)
        if text is not None:
            stored.append(text)
            continue
        # Cannot bake the predicate into stored contents: group by its
        # columns so the substitution can re-filter.
        for column in sorted(c.name for c in part.free_columns()
                             if c.cid in base_ids):
            if column not in group_cols:
                group_cols.append(column)
    if not group_cols:
        return None  # a global aggregate has no grouping to store
    items = [_quote(col) for col in group_cols]
    for _, call in shape.aggregate.aggregates:
        if not isinstance(call.argument, ColumnRef):
            item = "count(*)"
        else:
            column = call.argument.column.name
            item = (f"{call.func.value}({_quote(column)}) AS "
                    + _quote(f"{call.func.value}_{column}"))
        if item not in items:
            items.append(item)
    sql = f'SELECT {", ".join(items)} FROM {_quote(shape.table)}'
    if stored:
        sql += " WHERE " + " AND ".join(stored)
    return sql + " GROUP BY " + ", ".join(_quote(c) for c in group_cols)


def _baked(database: "Database", shape: AggregateShape,
           part: ScalarExpr) -> Optional[str]:
    """SQL text for ``part`` in a view's WHERE, or ``None`` when it reads
    a parameter or an outer column or its rendering does not re-bind to
    the very same conjunct."""
    columns = shape.get.columns
    if _has_parameter(part) or part.contains_subquery() \
            or not part.free_columns().ids() <= {c.cid for c in columns}:
        return None
    text = part.substitute_columns(
        {c.cid: _NamedRef(c) for c in columns}).sql()
    try:
        bound = database._binder.bind(parse(
            f"SELECT 1 FROM {_quote(shape.table)} WHERE {text}"))
    except ReproError:
        return None
    selects = collect_nodes(bound.rel, lambda n: isinstance(n, Select))
    select = selects[0] if len(selects) == 1 else None
    if not isinstance(select, Select) or not isinstance(select.child, Get):
        return None
    renamed = dict(zip((c.cid for c in select.child.columns), columns))
    rebound = [p.remap_columns(renamed) for p in conjuncts(select.predicate)]
    return text if rebound == [part] else None


class _NamedRef(ColumnRef):
    """A column reference rendering as its quoted column name."""

    __slots__ = ()

    def sql(self) -> str:
        return _quote(self.column.name)


def _has_parameter(expr: ScalarExpr) -> bool:
    return isinstance(expr, Parameter) or any(
        _has_parameter(child) for child in expr.children)


def _quote(name: str) -> str:
    """Quote an identifier: generated SQL stays immune to keyword
    collisions (a column named ``count`` is legal)."""
    return '"' + name.replace('"', '""') + '"'


def _unique_name(database: "Database", taken: set[str]) -> str:
    catalog = database.catalog
    index = 1
    while True:
        name = f"mv_auto_{index}"
        if (name not in taken and not catalog.has_table(name)
                and not catalog.has_view(name)
                and not catalog.has_matview(name)):
            return name
        index += 1
