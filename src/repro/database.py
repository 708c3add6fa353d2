"""Public facade: an embedded SQL engine running the paper's pipeline.

``Database`` owns a catalog and in-memory storage and executes SQL through
parse → bind (algebrize) → normalize (decorrelate) → cost-based optimize →
physical execution.  ``ExecutionMode`` bundles the paper-relevant
configurations:

* ``FULL`` — every technique (the paper's system);
* ``DECORRELATE_ONLY`` — subquery flattening but no GroupBy reordering,
  local aggregates or segmented execution;
* ``CORRELATED`` — normalization keeps Apply (no flattening); execution is
  nested-loops correlated, though the executor may still pick indexes;
* ``NAIVE`` — direct interpretation of the bound tree with mutual
  scalar/relational recursion (the paper's Section 2.1 strawman).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import (Any, Iterable, Iterator, Mapping, Optional, Sequence,
                    Union)

from .algebra import DataType, Get, RelationalOp, collect_nodes, explain
from .analysis import PlanAnalyzer
from .binder import Binder, BoundQuery
from .catalog import Catalog, ColumnDef, IndexDef, TableDef
from .catalog.catalog import (index_def_from_dict, index_def_to_dict,
                              table_def_from_dict)
from .catalog.statistics import CorrectionStore
from .concurrency import TrackedLock, TrackedRLock
from .core.normalize import NormalizeConfig, normalize
from .core.optimizer import Optimizer, OptimizerConfig
from .durability import (DEFAULT_CHECKPOINT_BYTES, DurabilityManager,
                         RecoveryState)
from .durability.codec import decode_row
from .errors import (BindError, CatalogError, DurabilityError,
                     ExecutionError, InjectedFault,
                     OptimizerBudgetExceeded, ParameterError, PlanError,
                     RecoveryError, ReproError)
from .executor import NaiveInterpreter
from .executor.vectorized import DEFAULT_BATCH_SIZE, VectorizedExecutor
from .feedback import (DEFAULT_Q_ERROR_THRESHOLD, FeedbackLoop,
                       render_tree, tree_dict, tree_max_q_error)
from .governor import OptimizerBudget, QueryStats, ResourceGovernor
from .matview import MatViewDef, MatViewManager, ViewSubstitution
from .physical import PhysicalOp, PIndexSeek, PTableScan, explain_physical
from .plancache import CachedPlan, PlanCache, normalize_sql_key
from .sql import MatViewStatement, parse, split_explain, split_matview_ddl
from .executor.vector_expressions import split_conjuncts
from .storage import DEFAULT_CHUNK_ROWS, Storage
from .storage.columnar import compile_zone_filters

#: Parameter bindings accepted by ``execute``: a sequence for positional
#: ``?`` markers (also accepted, in slot order, for named ones) or a
#: mapping for ``:name`` markers.
Params = Union[Sequence[Any], Mapping[str, Any], None]


@dataclass(frozen=True)
class ExecutionMode:
    """One engine configuration (normalization + optimizer switches)."""

    name: str
    normalize_config: NormalizeConfig = field(default_factory=NormalizeConfig)
    optimizer_config: OptimizerConfig = field(default_factory=OptimizerConfig)
    use_naive_interpreter: bool = False


FULL = ExecutionMode("full")

DECORRELATE_ONLY = ExecutionMode(
    "decorrelate_only",
    optimizer_config=OptimizerConfig(
        groupby_reorder=False, local_aggregates=False, segment_apply=False,
        semijoin_rewrites=False))

CORRELATED = ExecutionMode(
    "correlated",
    normalize_config=NormalizeConfig(decorrelate=False),
    optimizer_config=OptimizerConfig(
        groupby_reorder=False, local_aggregates=False, segment_apply=False,
        semijoin_rewrites=False, join_reorder=False))

NAIVE = ExecutionMode("naive", use_naive_interpreter=True)

MODES = {mode.name: mode for mode in (FULL, DECORRELATE_ONLY, CORRELATED,
                                      NAIVE)}

#: Execution engines: how a chosen physical plan is evaluated.  One
#: engine remains — ``"vectorized"``, the batch-at-a-time columnar
#: executor — and ``engine=`` arguments are still validated against this
#: tuple.  (``mode="naive"`` bypasses physical planning entirely and
#: ignores the engine.)
ENGINES = ("vectorized",)

#: Output formats accepted by the unified explain API.
EXPLAIN_FORMATS = ("text", "dict")


@dataclass(frozen=True)
class ExplainOptions:
    """Options shared by every explain entry point.

    :meth:`Database.explain`, :meth:`PreparedStatement.explain`, the
    SQL-level ``EXPLAIN [ANALYZE]`` statement and the analysis CLI all
    funnel into this one shape:

    * ``analyze`` — actually execute the query once, with per-operator
      row counting, and annotate each plan node with its actual
      cardinality and Q-error next to the optimizer's estimate;
    * ``costs`` — include the optimizer's total cost estimate;
    * ``format`` — ``"text"`` (indented tree, the default) or ``"dict"``
      (JSON-safe nested dicts, the wire representation).
    """

    analyze: bool = False
    costs: bool = False
    format: str = "text"

    def __post_init__(self) -> None:
        if self.format not in EXPLAIN_FORMATS:
            raise ValueError(
                f"unknown explain format {self.format!r}; expected one "
                f"of: {', '.join(EXPLAIN_FORMATS)}")


#: One DeprecationWarning per process for the positional-costs legacy
#: form: a hot loop calling ``explain(sql, mode, True)`` used to emit
#: the identical warning on every call, drowning real warnings.
_positional_costs_warned = False


def _explain_options(deprecated: tuple, options: ExplainOptions | None,
                     analyze: bool, costs: bool,
                     format: str) -> ExplainOptions:
    """Resolve an explain call's arguments to one ``ExplainOptions``.

    ``deprecated`` captures a legacy *positional* ``costs`` argument
    (the pre-1.4 signature was ``explain(sql, mode, costs)``); passing
    it still works but warns (once per process).  An explicit
    ``options`` object wins over the individual keywords.
    """
    global _positional_costs_warned
    if deprecated:
        if len(deprecated) > 1 or options is not None:
            raise TypeError(
                "explain() takes at most one positional option (the "
                "deprecated costs flag)")
        if not _positional_costs_warned:
            _positional_costs_warned = True
            warnings.warn(
                "passing costs positionally to explain() is deprecated; "
                "use costs=... or options=ExplainOptions(costs=...)",
                DeprecationWarning, stacklevel=3)
        costs = bool(deprecated[0])
    if options is not None:
        return options
    return ExplainOptions(analyze=analyze, costs=costs, format=format)


class QueryResult:
    """Rows plus the output schema (column names and types).

    ``degraded`` is True when the answer came from a fallback plan after
    a cost-based-optimizer failure (the rows are still correct — only
    the plan quality degraded); ``stats`` carries per-query execution
    statistics (:class:`~repro.governor.QueryStats`), including the
    fallback reason and any governor budget consumption.
    """

    def __init__(self, names: list[str], rows: list[tuple],
                 types: Sequence[DataType] | None = None,
                 degraded: bool = False,
                 stats: QueryStats | None = None) -> None:
        if types is not None and len(types) != len(names):
            raise ValueError(
                f"QueryResult schema mismatch: {len(names)} column "
                f"name(s) but {len(types)} type(s)")
        self.names = names
        self.rows = rows
        self.types = (list(types) if types is not None
                      else [DataType.UNKNOWN] * len(names))
        self.degraded = degraded
        self.stats = stats if stats is not None else QueryStats(
            degraded=degraded)

    @property
    def columns(self) -> list[tuple[str, DataType]]:
        """Output schema as ``(name, DataType)`` pairs."""
        return list(zip(self.names, self.types))

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by output column name."""
        return [dict(zip(self.names, row)) for row in self.rows]

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result.

        Raises ``ValueError`` when the result is any other shape, so a
        miswritten aggregate query fails loudly instead of silently
        returning the first of many values.
        """
        if len(self.rows) != 1 or len(self.names) != 1:
            raise ValueError(
                f"scalar() requires a 1x1 result, got {len(self.rows)} "
                f"row(s) x {len(self.names)} column(s)")
        return self.rows[0][0]

    def first(self) -> tuple | None:
        """The first row, or ``None`` for an empty result."""
        return self.rows[0] if self.rows else None

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return self.rows == other.rows
        return self.rows == other

    def __repr__(self) -> str:
        return f"QueryResult({self.names}, {len(self.rows)} rows)"


def _resolvable(snapshot, names: Sequence[str]) -> bool:
    """Whether every table in ``names`` exists in ``snapshot``."""
    try:
        for name in names:
            snapshot.get(name)
    except ReproError:
        return False
    return True


def _matview_section(matviews: Sequence[str]) -> list[str]:
    """EXPLAIN's header naming the materialized views a plan reads."""
    if not matviews:
        return []
    return ["-- materialized view --",
            f"rewritten to scan {', '.join(matviews)}"]


def bind_parameters(parameters: Sequence, params: Params) -> tuple:
    """Match user-supplied bindings against a statement's parameter list.

    Returns the values in slot order.  Positional statements take a
    sequence; named statements take a mapping (or a sequence in slot
    order).  ``None`` is a legal value for any parameter (SQL NULL);
    missing, extra or mis-shaped bindings raise :class:`ParameterError`.
    """
    if isinstance(params, str):
        raise ParameterError(
            "parameters must be a sequence or mapping, not a bare string")
    if not parameters:
        if params:
            raise ParameterError("statement takes no parameters")
        return ()
    named = parameters[0].name is not None
    if isinstance(params, Mapping):
        if not named:
            raise ParameterError(
                "statement uses positional (?) parameters; "
                "pass a sequence, not a mapping")
        names = [p.name for p in parameters]
        missing = [n for n in names if n not in params]
        if missing:
            raise ParameterError(
                f"missing parameter(s): {', '.join(missing)}")
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise ParameterError(
                f"unknown parameter(s): {', '.join(unknown)}")
        return tuple(params[n] for n in names)
    if params is None:
        raise ParameterError(
            f"statement expects {len(parameters)} parameter(s), got 0")
    values = tuple(params)
    if len(values) != len(parameters):
        raise ParameterError(
            f"statement expects {len(parameters)} parameter(s), "
            f"got {len(values)}")
    return values


class PreparedStatement:
    """A statement compiled once and executed many times with new bindings.

    Obtained from :meth:`Database.prepare`.  The compiled plan lives in
    the database's plan cache; each :meth:`execute` consults the cache, so
    DDL or significant data growth between executions transparently
    triggers a replan (the handle never serves a stale plan).
    """

    def __init__(self, database: "Database", sql: str,
                 mode: ExecutionMode) -> None:
        self._database = database
        self.sql = sql
        self.mode = mode
        self._database._cached_plan(sql, mode)  # compile eagerly

    def _entry(self) -> CachedPlan:
        return self._database._cached_plan(self.sql, self.mode)

    @property
    def parameters(self) -> tuple:
        """The statement's parameter markers, in slot order."""
        return self._entry().parameters

    @property
    def names(self) -> list[str]:
        """Output column names."""
        return list(self._entry().names)

    @property
    def plan(self) -> PhysicalOp | None:
        """The cached physical plan (``None`` in naive mode)."""
        return self._entry().plan

    def execute(self, params: Params = None, *,
                timeout: float | None = None,
                row_budget: int | None = None,
                memory_budget: int | None = None,
                optimizer_budget: OptimizerBudget | None = None,
                governor: ResourceGovernor | None = None) -> QueryResult:
        return self._database.execute(
            self.sql, self.mode, params, timeout=timeout,
            row_budget=row_budget, memory_budget=memory_budget,
            optimizer_budget=optimizer_budget, governor=governor)

    def explain(self, *deprecated,
                options: ExplainOptions | None = None,
                analyze: bool = False, costs: bool = False,
                format: str = "text",
                params: Params = None) -> "str | dict":
        """Explain this statement (see :meth:`Database.explain`).

        ``analyze=True`` executes the statement once with per-operator
        row counting; pass ``params`` for statements with parameter
        markers.  The positional ``costs`` form of the pre-1.4 signature
        still works but is deprecated.
        """
        resolved = _explain_options(deprecated, options, analyze, costs,
                                    format)
        return self._database.explain(self.sql, self.mode,
                                      options=resolved, params=params)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql!r}, mode={self.mode.name})"


class Database:
    """An embedded SQL database running the paper's optimizer pipeline."""

    def __init__(self, plan_cache_capacity: int = 128,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 plan_cache_shards: int = 1,
                 feedback: bool = False,
                 q_error_threshold: float = DEFAULT_Q_ERROR_THRESHOLD,
                 path: str | None = None,
                 fsync: bool = True,
                 checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
                 morsel_workers: int = 1,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self.catalog = Catalog()
        self.storage = Storage(chunk_rows=chunk_rows)
        self._binder = Binder(self.catalog)
        # ``morsel_workers > 1`` lets multi-chunk scans fan chunks out
        # over the shared morsel helper pool (repro.executor.morsel);
        # 1 — the default — keeps scans on the query thread.
        self._executor = VectorizedExecutor(self.storage,
                                            batch_size=batch_size,
                                            morsel_workers=morsel_workers)
        #: Runtime cardinality observations (repro.feedback); consulted
        #: by every optimizer this database builds.
        self.corrections = CorrectionStore(row_count_of=self._row_count)
        self.feedback = FeedbackLoop(self.corrections, self._row_count,
                                     q_error_threshold=q_error_threshold)
        #: When True, every execution counts actual rows per operator
        #: and feeds them back through :attr:`feedback`.  Off by default:
        #: ungoverned execution stays at zero profiling overhead, and
        #: ``EXPLAIN ANALYZE`` profiles its one execution regardless.
        self.feedback_enabled = feedback
        # ``plan_cache_shards=1`` keeps exact global LRU order (the
        # single-threaded default); servers pass more shards to spread
        # lock contention across stripes (see repro.server).
        self.plan_cache = PlanCache(plan_cache_capacity,
                                    row_count_of=self._row_count,
                                    validator=self._plan_admissible,
                                    shards=plan_cache_shards)
        self._sessions_lock = TrackedLock("db.sessions")
        self._open_sessions: set[str] = set()
        #: Materialized views (repro.matview): lifecycle, transparent
        #: substitution and per-commit incremental maintenance.  The storage
        #: hook makes every transactional install fold its deltas into
        #: affected view backings within the same snapshot swap.
        self.matviews = MatViewManager(self)
        self.storage.matviews = self.matviews
        # -- durability (repro.durability) -----------------------------
        # ``path=None`` (the default) is a purely in-memory database:
        # no file is ever touched and nothing below runs.  With a path,
        # recovery rebuilds the committed state from checkpoint + WAL
        # *before* the first query, then every commit logs-and-fsyncs
        # ahead of its in-memory install (``Storage.wal``) and every DDL
        # logs ahead of its catalog change (:attr:`_ddl_lock`).
        self.path = path
        self._durability: DurabilityManager | None = None
        self._ddl_lock: TrackedRLock = TrackedRLock("db.ddl")
        if path is not None:
            manager = DurabilityManager(path, fsync=fsync,
                                        checkpoint_bytes=checkpoint_bytes)
            try:
                state = manager.recover()
                self._apply_recovery(manager, state)
            except BaseException:
                manager.close()
                raise
            self._durability = manager
            self._ddl_lock = manager.ddl_lock
            self.storage.wal = manager

    # -- DDL / DML ---------------------------------------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple],
                     primary_key: Sequence[str] = (),
                     unique_keys: Sequence[Sequence[str]] = ()) -> TableDef:
        """Create a table.

        ``columns`` is a sequence of ``(name, DataType)`` or
        ``(name, DataType, nullable)`` tuples.
        """
        defs = []
        for spec in columns:
            if len(spec) == 2:
                defs.append(ColumnDef(spec[0], spec[1]))
            else:
                defs.append(ColumnDef(spec[0], spec[1], spec[2]))
        table = TableDef(name, defs, primary_key, unique_keys)
        with self._ddl_lock:
            if self._durability is not None:
                # Validate → log → apply: a doomed create logs nothing,
                # and because the lock spans log and apply, no commit
                # can reference a table whose creation record trails it
                # in the WAL.
                if self.catalog.has_table(name):
                    raise CatalogError(f"table {name!r} already exists")
                if self.catalog.has_view(name):
                    raise CatalogError(f"{name!r} already names a view")
                self._durability.log_ddl({"kind": "create_table",
                                          "table": table.to_dict()})
            self.catalog.create_table(table)
            self.storage.create(table)
        self.plan_cache.invalidate()
        self.corrections.invalidate(name)
        self._maybe_checkpoint()
        return table

    def create_index(self, index_name: str, table_name: str,
                     column_names: Sequence[str],
                     kind: str = "hash") -> IndexDef:
        index = IndexDef(index_name, table_name, tuple(column_names), kind)
        with self._ddl_lock:
            if self._durability is not None:
                if self.catalog.has_index(index_name):
                    raise CatalogError(
                        f"index {index_name!r} already exists")
                table = self.catalog.get_table(table_name)
                for col in index.column_names:
                    if not table.has_column(col):
                        raise CatalogError(
                            f"index column {col!r} not in table "
                            f"{table.name!r}")
                self._durability.log_ddl({"kind": "create_index",
                                          "index": index_def_to_dict(
                                              index)})
            self.catalog.create_index(index)
            # Copy-on-write: the indexed version is installed atomically,
            # so concurrent readers see either the old version (no index)
            # or the new one (index fully built), never a half-built
            # index.
            self.storage.apply_add_index(table_name, index)
        self.plan_cache.invalidate()
        self._maybe_checkpoint()
        return index

    def create_view(self, name: str, sql: str) -> None:
        """Create a view: a named query expanded (and then normalized and
        optimized) wherever it is referenced.  The definition is validated
        immediately by binding it once."""
        bound = self._binder.bind(parse(sql))  # validate eagerly
        if bound.parameters:
            raise BindError(
                "view definitions cannot contain parameters")
        with self._ddl_lock:
            if self._durability is not None:
                if self.catalog.has_view(name):
                    raise CatalogError(f"view {name!r} already exists")
                if self.catalog.has_table(name):
                    raise CatalogError(f"{name!r} already names a table")
                self._durability.log_ddl({"kind": "create_view",
                                          "name": name, "sql": sql})
            self.catalog.create_view(name, sql)
        self.plan_cache.invalidate()
        self._maybe_checkpoint()

    def drop_view(self, name: str) -> None:
        with self._ddl_lock:
            if self._durability is not None:
                if not self.catalog.has_view(name):
                    raise CatalogError(f"unknown view {name!r}")
                self._durability.log_ddl({"kind": "drop_view",
                                          "name": name})
            self.catalog.drop_view(name)
        self.plan_cache.invalidate()
        self._maybe_checkpoint()

    def drop_table(self, name: str) -> None:
        """Drop a table, its storage, its indexes — and cascade-drop any
        materialized view defined over it (a view whose base is gone can
        never be maintained or refreshed again)."""
        with self._ddl_lock:
            if self.catalog.has_matview(name):
                raise CatalogError(
                    f"{name!r} is a materialized view; use DROP "
                    "MATERIALIZED VIEW")
            for viewdef in self.catalog.matviews_on(name):
                self.matviews.drop(getattr(viewdef, "name"))
            if self._durability is not None:
                if not self.catalog.has_table(name):
                    raise CatalogError(f"unknown table {name!r}")
                self._durability.log_ddl({"kind": "drop_table",
                                          "name": name})
            self.catalog.drop_table(name)
            self.storage.drop(name)
        self.plan_cache.invalidate()
        self.corrections.invalidate(name)
        self._maybe_checkpoint()

    def table_names(self) -> list[str]:
        return [t.name for t in self.catalog.tables()]

    def table_statistics(self, name: str):
        """Current statistics for a stored table (recomputed lazily)."""
        return self.storage.get(name).statistics()

    def insert(self, table_name: str,
               rows: Iterable[Sequence[Any] | dict]) -> int:
        """Autocommit batch insert (copy-on-write: all-or-nothing, and
        concurrent snapshot readers never see a partial batch).  On a
        durable database the batch is logged and fsynced before it is
        installed."""
        if self.catalog.has_matview(table_name):
            raise CatalogError(
                f"cannot insert into materialized view {table_name!r}; "
                "its contents are maintained automatically")
        count = self.storage.apply_insert(table_name, rows)
        self._maybe_checkpoint()
        return count

    # -- durability ----------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when this database persists to disk (``path=`` given)."""
        return self._durability is not None

    def durability_status(self) -> dict | None:
        """Durability observability (``None`` for in-memory databases):
        WAL size, next LSN, last checkpoint and the recovery report."""
        if self._durability is None:
            return None
        return self._durability.status()

    def checkpoint(self, force: bool = True) -> bool:
        """Checkpoint now: serialize the current state and rotate the
        WAL.  Returns True when a checkpoint was published (``force=
        False`` applies the size trigger; a busy writer lock makes the
        attempt a no-op either way).  Raises
        :class:`~repro.errors.DurabilityError` on an in-memory database.
        """
        if self._durability is None:
            raise DurabilityError(
                "checkpoint requires a durable database "
                "(Database(path=...))")
        return self._durability.checkpoint(self, force=force)

    def close(self) -> None:
        """Release durability file handles.  Safe to call repeatedly and
        a no-op in-memory.  Deliberately does not checkpoint: the WAL
        already holds every committed change and recovery replays it."""
        if self._durability is not None:
            self._durability.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _maybe_checkpoint(self) -> None:
        """Size-triggered checkpoint, called after commit paths.  An
        injected ``wal.checkpoint`` fault aborts the rotation but never
        the triggering commit — the commit is already durable in the
        WAL, and the previous checkpoint + intact log remain the
        authoritative recovery source."""
        if self._durability is None or not self._durability.checkpoint_due:
            return
        try:
            self._durability.checkpoint(self)
        except InjectedFault:
            pass

    def _apply_recovery(self, manager: DurabilityManager,
                        state: RecoveryState) -> None:
        """Rebuild the committed state: checkpoint image first, then the
        WAL records newer than it, oldest first.  Runs before
        ``self._durability`` is set, so nothing here re-logs."""
        if state.checkpoint is not None:
            self._load_checkpoint_image(state.checkpoint)
        for record in manager.replay(state):
            try:
                self._apply_wal_record(record)
            except RecoveryError:
                raise
            except ReproError as exc:
                raise RecoveryError(
                    f"replaying WAL record lsn={record.get('lsn')} "
                    f"failed: {exc}") from exc
        # View contents are derived state: the WAL carries only base
        # rows, so after the bases are restored every materialized view
        # is rebuilt from scratch — a crash can never surface a view
        # inconsistent with its base.
        try:
            self.matviews.rebuild_all()
        except ReproError as exc:
            raise RecoveryError(
                f"rebuilding materialized views failed: {exc}") from exc
        self.plan_cache.invalidate()

    def _load_checkpoint_image(self, checkpoint: dict) -> None:
        image = checkpoint["catalog"]
        try:
            for payload in image["tables"]:
                table = table_def_from_dict(payload)
                self.catalog.create_table(table)
                self.storage.create(table)
            for name, rows in checkpoint["rows"].items():
                stored = self.storage.get(name)
                for row in rows:
                    stored.insert(decode_row(row))
            for payload in image["indexes"]:
                index = index_def_from_dict(payload)
                self.catalog.create_index(index)
                self.storage.apply_add_index(index.table_name, index)
            for view in image["views"]:
                self.catalog.create_view(view["name"], view["sql"])
            for matview in image.get("matviews", []):
                # The backing table (schema and rows) already arrived
                # via the table image above; only the definition needs
                # re-registering.
                self.catalog.create_matview(MatViewDef.from_sql(
                    matview["name"], matview["sql"], self._binder))
            self.corrections.load_state(checkpoint.get("corrections", []))
        except ReproError as exc:
            raise RecoveryError(
                f"applying checkpoint lsn={checkpoint.get('lsn')} "
                f"failed: {exc}") from exc

    def _apply_wal_record(self, record: dict) -> None:
        """Re-apply one replayed record through direct catalog/storage
        calls (never the logging DDL/commit paths above)."""
        kind = record.get("kind")
        if kind == "commit":
            for name, rows in record.get("writes", {}).items():
                stored = self.storage.get(name)
                for row in rows:
                    stored.insert(decode_row(row))
        elif kind == "create_table":
            table = table_def_from_dict(record["table"])
            self.catalog.create_table(table)
            self.storage.create(table)
        elif kind == "create_index":
            index = index_def_from_dict(record["index"])
            self.catalog.create_index(index)
            self.storage.apply_add_index(index.table_name, index)
        elif kind == "create_view":
            self.catalog.create_view(record["name"], record["sql"])
        elif kind == "create_matview":
            viewdef = MatViewDef.from_sql(record["name"], record["sql"],
                                          self._binder)
            self.catalog.create_matview(viewdef, viewdef.backing)
            # Contents are rebuilt wholesale at the end of recovery.
            self.storage.create(viewdef.backing)
        elif kind == "drop_matview":
            self.catalog.drop_matview(record["name"])
            self.storage.drop(record["name"])
        elif kind == "drop_view":
            self.catalog.drop_view(record["name"])
        elif kind == "drop_table":
            self.catalog.drop_table(record["name"])
            self.storage.drop(record["name"])
        else:
            raise RecoveryError(f"unknown WAL record kind {kind!r} "
                                f"(lsn={record.get('lsn')})")

    # -- queries -------------------------------------------------------------------

    def execute(self, sql: str, mode: ExecutionMode | str = FULL,
                params: Params = None, *,
                timeout: float | None = None,
                row_budget: int | None = None,
                memory_budget: int | None = None,
                optimizer_budget: OptimizerBudget | None = None,
                governor: ResourceGovernor | None = None,
                engine: str | None = None,
                snapshot=None,
                use_matviews: bool | None = None) -> QueryResult:
        """Execute ``sql``, binding ``params`` to its parameter markers.

        Plans are served from :attr:`plan_cache`: re-executing the same
        statement text (modulo whitespace and keyword case) skips parse,
        bind, normalization and optimization entirely.  ``mode`` accepts
        an :class:`ExecutionMode` or its name (``"full"``, ``"naive"``,
        ...).  ``engine``, if given, must name the one execution engine,
        ``"vectorized"`` (see :data:`ENGINES`); any other value raises
        ``ValueError``.

        Resource governance: ``timeout`` (wall-clock seconds, covering
        optimization and execution), ``row_budget`` (rows examined),
        ``memory_budget`` (rows buffered in flight) and
        ``optimizer_budget`` build a per-query
        :class:`~repro.governor.ResourceGovernor`; alternatively pass a
        pre-built ``governor``.  Timeout and budget violations raise
        :class:`~repro.errors.QueryTimeout` /
        :class:`~repro.errors.ResourceExhausted`.  Optimizer failures
        (budget exhaustion, plan errors, injected faults) never fail the
        query: execution degrades to a heuristic plan — ultimately to
        naive interpretation — and the result is flagged via
        ``QueryResult.degraded`` and ``QueryResult.stats``.

        ``snapshot`` pins the data the query reads: pass a
        :class:`~repro.storage.table.StorageSnapshot` (or any object with
        a compatible ``get``) and execution resolves every table from it
        instead of live storage.  Sessions use this for snapshot
        isolation; plans and the plan cache are unaffected (a plan is
        data-version agnostic).

        ``use_matviews=False`` forces the query to run against base
        tables even when a materialized view could answer it; by default
        the optimizer may substitute any view (see :mod:`repro.matview`).

        ``CREATE MATERIALIZED VIEW name AS select``, ``DROP MATERIALIZED
        VIEW name`` and ``REFRESH MATERIALIZED VIEW name`` are routed to
        :attr:`matviews` and return a one-row status result.
        """
        resolved = self._resolve_mode(mode)
        self._check_engine(engine)
        matview_stmt = split_matview_ddl(sql)
        if matview_stmt is not None:
            return self._execute_matview_ddl(matview_stmt)
        explain_stmt = split_explain(sql)
        if explain_stmt is not None:
            # SQL-level EXPLAIN [ANALYZE]: route through the unified
            # explain API and return the rendering as a one-column result.
            inner_sql, analyze = explain_stmt
            rendered = self.explain(
                inner_sql, resolved,
                options=ExplainOptions(analyze=analyze), params=params)
            return QueryResult(["plan"],
                               [(line,) for line in rendered.split("\n")],
                               [DataType.VARCHAR])
        gov = governor
        if gov is None and (timeout is not None or row_budget is not None
                            or memory_budget is not None
                            or optimizer_budget is not None):
            gov = ResourceGovernor(timeout=timeout, row_budget=row_budget,
                                   memory_budget=memory_budget,
                                   optimizer_budget=optimizer_budget)
        started = time.monotonic()
        if gov is not None:
            gov.start()
        entry = self._cached_plan(sql, resolved, gov,
                                  use_matviews=use_matviews is not False)
        if entry.matviews and snapshot is not None \
                and not _resolvable(snapshot, entry.matviews):
            # A pinned snapshot may predate the view (or a transaction
            # may hold staged-but-unmaintained writes): when a backing
            # table is not resolvable from the snapshot, recompile
            # against base tables instead of failing mid-execution.
            entry = self._cached_plan(sql, resolved, gov,
                                      use_matviews=False)
        values = bind_parameters(entry.parameters, params)
        degraded = entry.degraded
        reason = entry.fallback_reason
        profile: dict[Any, int] | None = (
            {} if self.feedback_enabled and entry.plan is not None
            else None)
        try:
            rows = self._run_entry(entry, values, gov, snapshot, profile)
        except InjectedFault as fault:
            # The physical executor died on an injected infrastructure
            # fault before any row reached the caller (results are fully
            # materialized): re-run on the independent naive interpreter.
            degraded = True
            reason = f"executor fault: {fault}"
            profile = None  # partial counts from the dead run are noise
            rows = self._run_naive(entry.rel, values, gov, snapshot)
        stats = QueryStats(elapsed_seconds=time.monotonic() - started,
                           degraded=degraded, fallback_reason=reason)
        if gov is not None:
            gov.fill_stats(stats)
        if profile:
            observed = self.feedback.record(entry, profile)
            if observed is not None:
                stats.max_q_error = observed.max_q_error
        return QueryResult(list(entry.names), rows, entry.types,
                           degraded=degraded, stats=stats)

    def _execute_matview_ddl(self,
                             statement: MatViewStatement) -> QueryResult:
        if statement.kind == "create":
            self.matviews.create(statement.name, statement.sql)
            message = f"created materialized view {statement.name}"
        elif statement.kind == "drop":
            self.matviews.drop(statement.name)
            message = f"dropped materialized view {statement.name}"
        else:
            self.matviews.refresh(statement.name)
            message = f"refreshed materialized view {statement.name}"
        return QueryResult(["status"], [(message,)], [DataType.VARCHAR])

    def _run_entry(self, entry: CachedPlan, values: tuple,
                   gov: ResourceGovernor | None,
                   snapshot=None,
                   profile: dict[Any, int] | None = None) -> list[tuple]:
        if entry.executable is None:
            # Naive mode, or a degraded entry whose fallback plan could
            # not be built: interpret the bound logical tree directly.
            return self._run_naive(entry.rel, values, gov, snapshot,
                                   profile)
        rows = self._executor.run_prepared(
            entry.executable, values, gov, storage=snapshot,
            profile=profile)
        if entry.matviews:
            self.matviews.note_rewrite()
        return rows

    def _run_naive(self, rel: RelationalOp, values: tuple,
                   gov: ResourceGovernor | None,
                   snapshot=None,
                   profile: dict[Any, int] | None = None) -> list[tuple]:
        source = snapshot if snapshot is not None else self.storage
        interpreter = NaiveInterpreter(
            lambda name: source.get(name).rows, governor=gov,
            profile=profile)
        return interpreter.run(rel, values)

    def prepare(self, sql: str,
                mode: ExecutionMode | str = FULL,
                engine: str | None = None) -> PreparedStatement:
        """Compile ``sql`` once for repeated execution with fresh bindings."""
        self._check_engine(engine)
        return PreparedStatement(self, sql, self._resolve_mode(mode))

    # -- sessions ------------------------------------------------------------------

    def session(self, lock_timeout: float = 5.0,
                default_mode: ExecutionMode | str = FULL):
        """Open a :class:`~repro.server.sessions.Session` on this database.

        Sessions provide begin/commit/rollback with copy-on-write
        snapshot isolation and are safe to use from one thread each;
        any number of sessions may run concurrently.
        """
        from .server.sessions import Session  # deferred: avoid cycle
        return Session(self, lock_timeout=lock_timeout,
                       default_mode=self._resolve_mode(default_mode))

    def _register_session(self, session_id: str) -> None:
        with self._sessions_lock:
            self._open_sessions.add(session_id)

    def _deregister_session(self, session_id: str) -> None:
        with self._sessions_lock:
            self._open_sessions.discard(session_id)

    @property
    def open_session_count(self) -> int:
        with self._sessions_lock:
            return len(self._open_sessions)

    @property
    def default_engine(self) -> str:
        """The execution engine every physical plan runs on."""
        return ENGINES[0]

    @staticmethod
    def _check_engine(engine: str | None) -> None:
        if engine is not None and engine not in ENGINES:
            raise ValueError(
                f"unknown execution engine {engine!r}; "
                f"expected one of: {', '.join(ENGINES)}")

    def _resolve_mode(self, mode: ExecutionMode | str) -> ExecutionMode:
        if isinstance(mode, ExecutionMode):
            return mode
        try:
            return MODES[mode]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown execution mode {mode!r}; expected an "
                f"ExecutionMode or one of: "
                f"{', '.join(sorted(MODES))}") from None

    def _cached_plan(self, sql: str, mode: ExecutionMode,
                     gov: ResourceGovernor | None = None,
                     use_matviews: bool = True) -> CachedPlan:
        """The compiled form of ``sql``, from cache or built fresh.

        Fault-tolerant: a failing plan-cache lookup is a cache miss, a
        failing insertion is skipped, and a cost-based-optimizer failure
        degrades to a fallback plan (see :meth:`_degraded_plan`).
        Degraded entries are returned but never admitted to the cache, so
        one optimizer hiccup cannot pin a bad plan for future queries.

        View-enabled and view-disabled compilations of the same text
        cache under distinct mode keys (``"<mode>"`` vs
        ``"<mode>#raw"``): a ``use_matviews=False`` execution must never
        be served a view-scanning plan.  The key depends only on what
        the caller *requested* — never on whether views currently exist,
        which a concurrent DROP/CREATE cycle can flip between sampling
        it and consulting the cache; keying on that racy state once let
        a raw lookup land on a view-scanning entry.  Only ``#raw``
        entries are guaranteed view-free, so the snapshot-guard
        recompile in :meth:`execute` relies on exactly that invariant.
        """
        sql_key = normalize_sql_key(sql)
        mode_key = mode.name if use_matviews else mode.name + "#raw"
        try:
            entry = self.plan_cache.get(sql_key, mode_key,
                                        self.catalog.version)
        except InjectedFault:
            entry = None
        if entry is not None:
            return entry
        catalog_version = self.catalog.version
        bound = self._binder.bind(parse(sql))
        degraded = False
        reason: str | None = None
        if mode.use_naive_interpreter:
            plan = None
            executable = None
        else:
            # Normalization runs outside the fallback ladder: its errors
            # (e.g. the plan-depth cap) also doom the fallback tiers.
            normalized = normalize(bound.rel, mode.normalize_config)
            analyzer = PlanAnalyzer.for_admission(self._index_provider)
            try:
                if analyzer is not None:
                    analyzer.check_logical(normalized,
                                           stage="admission:logical")
                plan = self._optimizer(mode, gov, use_matviews).optimize(
                    normalized)
                executable = self._executor.prepare(plan)
                if analyzer is not None:
                    analyzer.check_physical(plan,
                                            stage="admission:physical")
            except (PlanError, OptimizerBudgetExceeded, InjectedFault,
                    ExecutionError) as exc:
                degraded = True
                reason = f"{type(exc).__name__}: {exc}"
                plan, executable = self._degraded_plan(mode, normalized)
        matviews = self._scanned_matviews(plan)
        table_names = frozenset(
            get.table_name.lower()
            for get in collect_nodes(bound.rel,
                                     lambda n: isinstance(n, Get))
        ) | set(matviews)
        entry = CachedPlan(
            sql_key=sql_key,
            mode_name=mode_key,
            catalog_version=catalog_version,
            names=list(bound.names),
            types=bound.column_types,
            parameters=bound.parameters,
            plan=plan,
            rel=bound.rel,
            executable=executable,
            snapshot=self.plan_cache.capture_snapshot(table_names),
            table_names=table_names,
            degraded=degraded,
            fallback_reason=reason,
            matviews=matviews)
        if not degraded:
            try:
                self.plan_cache.put(entry)
            except InjectedFault:
                pass  # uncached, but the compiled entry is still good
        return entry

    def _scanned_matviews(self, plan: PhysicalOp | None) -> tuple[str, ...]:
        """The materialized views whose backing tables ``plan`` reads —
        the one fact the rewrite counter, the snapshot guard and
        EXPLAIN all report."""
        found: set[str] = set()
        stack = [plan] if plan is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, (PTableScan, PIndexSeek)) \
                    and self.catalog.has_matview(node.table_name):
                found.add(node.table_name)
            stack.extend(node.children)
        return tuple(sorted(found))

    def _degraded_plan(self, mode: ExecutionMode, normalized: RelationalOp
                       ) -> tuple[PhysicalOp | None, Any]:
        """Fallback tiers after a cost-based-optimizer failure.

        First a heuristic plan (the normalized tree implemented with no
        exploration and no budgets); if even that fails, ``(None, None)``
        selects naive interpretation of the bound tree — an independent
        code path that cannot share the optimizer's failure mode.  Each
        tier is statically verified before being accepted, so a fallback
        never smuggles in a plan the primary tier would have rejected.
        """
        analyzer = PlanAnalyzer.for_admission(self._index_provider)
        try:
            plan = self._optimizer(mode).heuristic_plan(normalized)
            executable = self._executor.prepare(plan)
            if analyzer is not None:
                analyzer.check_physical(plan, stage="fallback:heuristic")
            return plan, executable
        except (PlanError, OptimizerBudgetExceeded, InjectedFault,
                ExecutionError):
            return None, None

    def _row_count(self, table_name: str) -> int:
        try:
            return len(self.storage.get(table_name).rows)
        except ReproError:
            return 0

    def _plan_admissible(self, entry: CachedPlan) -> bool:
        """Plan-cache admission gate: entries that fail static
        verification are refused (never cached), independently of the
        louder per-stage checks in :meth:`_cached_plan`."""
        analyzer = PlanAnalyzer.for_admission(self._index_provider)
        if analyzer is None:
            return True
        return analyzer.admissible(entry.rel, entry.plan)

    def explain(self, sql: str, mode: ExecutionMode | str = FULL,
                *deprecated, options: ExplainOptions | None = None,
                analyze: bool = False, costs: bool = False,
                format: str = "text", engine: str | None = None,
                params: Params = None) -> "str | dict":
        """The query's plan — estimated, and with ``analyze`` also actual.

        The default renders the normalized logical tree and the chosen
        physical plan as text.  ``costs=True`` appends the optimizer's
        estimated cost (arbitrary work units) and estimated output rows.
        ``analyze=True`` *executes the query once*, counting actual rows
        per operator, and annotates every plan node with estimated rows,
        actual rows and their Q-error; the observation is also fed into
        the database's feedback loop.  ``format="dict"`` returns JSON-safe
        nested dicts instead of text (node keys: ``op``,
        ``estimated_rows``, ``actual_rows``, ``q_error``, ``children``).
        All settings can be bundled in an :class:`ExplainOptions` via
        ``options=``, which the other explain entry points share.

        The pre-1.4 positional ``costs`` argument
        (``explain(sql, mode, True)``) still works but warns with
        ``DeprecationWarning``.
        """
        resolved = _explain_options(deprecated, options, analyze, costs,
                                    format)
        mode = self._resolve_mode(mode)
        self._check_engine(engine)
        if resolved.analyze:
            return self._explain_analyze(sql, mode, resolved, params)
        bound = self._binder.bind(parse(sql))
        normalized = normalize(bound.rel, mode.normalize_config)
        costed = None
        plan = None
        if not mode.use_naive_interpreter:
            optimizer = self._optimizer(mode, use_matviews=True)
            if resolved.costs:
                costed = optimizer.optimize_with_cost(normalized)
                plan = costed.plan
            else:
                plan = optimizer.optimize(normalized)
        matviews = self._scanned_matviews(plan)
        if resolved.format == "dict":
            payload: dict[str, Any] = {
                "sql": sql, "mode": mode.name, "analyze": False,
                "logical": explain(normalized),
                "plan": tree_dict(plan if plan is not None
                                  else normalized)}
            if costed is not None:
                payload["cost"] = costed.cost
            if matviews:
                payload["matview"] = {"view": ", ".join(matviews)}
            return payload
        sections = _matview_section(matviews)
        sections += ["-- logical (normalized) --", explain(normalized)]
        if plan is not None:
            sections += ["-- physical --", explain_physical(plan)]
        if costed is not None:
            from .core.optimizer import Estimator

            estimate = Estimator(
                self._stats_provider,
                corrections=self.corrections).estimate(normalized)
            sections += [
                "-- estimates --",
                f"cost: {costed.cost:.1f}",
                f"rows: {estimate.rows:.1f}",
            ]
        return "\n".join(sections)

    def _explain_analyze(self, sql: str, mode: ExecutionMode,
                         options: ExplainOptions,
                         params: Params) -> "str | dict":
        """One profiled execution, rendered as an annotated plan tree.

        Physical plans are annotated from the
        estimates the optimizer stamped at costing time; naive mode
        interprets the bound logical tree, so its estimates are computed
        at explain time by walking the tree with the estimator.  The
        observation is recorded into the feedback loop exactly as an
        ordinary feedback-enabled execution would.
        """
        entry = self._cached_plan(sql, mode)
        values = bind_parameters(entry.parameters, params)
        profile: dict[Any, int] = {}
        started = time.monotonic()
        rows = self._run_entry(entry, values, None, None, profile)
        elapsed = time.monotonic() - started
        stats = QueryStats(elapsed_seconds=elapsed,
                           degraded=entry.degraded,
                           fallback_reason=entry.fallback_reason)
        if entry.plan is not None:
            self.feedback.record(entry, profile)
            tree = tree_dict(entry.plan, profile)
        else:
            tree = tree_dict(entry.rel, profile,
                             self._logical_estimates(entry.rel))
        stats.max_q_error = tree_max_q_error(tree)
        if options.format == "dict":
            payload = {"sql": sql, "mode": mode.name,
                       "engine": self.default_engine, "analyze": True,
                       "plan": tree, "row_count": len(rows),
                       "stats": stats.as_dict()}
            if entry.matviews:
                payload["matview"] = {"view": ", ".join(entry.matviews)}
            return payload
        header = ("-- physical (analyze) --" if entry.plan is not None
                  else "-- logical (analyze) --")
        sections = _matview_section(entry.matviews) + [
            header, render_tree(tree), "-- execution --",
            f"rows: {len(rows)}", f"elapsed: {elapsed:.6f}s"]
        if stats.max_q_error is not None:
            sections.append(f"max q-error: {stats.max_q_error:.2f}")
        return "\n".join(sections)

    def _logical_estimates(self, rel: RelationalOp) -> dict[int, float]:
        """Per-node cardinality estimates for a logical tree, keyed by
        node identity — EXPLAIN ANALYZE's estimate source in naive mode,
        where no physical plan carries stamped estimates."""
        from .core.optimizer import Estimator

        estimator = Estimator(self._stats_provider,
                              corrections=self.corrections)
        estimates: dict[int, float] = {}

        def visit(node: RelationalOp) -> None:
            try:
                estimates[id(node)] = estimator.estimate(node).rows
            except ReproError:
                pass  # advisory only: an inestimable node shows no est=
            for child in node.children:
                visit(child)

        visit(rel)
        return estimates

    def plan(self, sql: str, mode: ExecutionMode | str = FULL) -> PhysicalOp:
        mode = self._resolve_mode(mode)
        bound = self._binder.bind(parse(sql))
        return self._plan(bound, mode)

    def _plan(self, bound: BoundQuery, mode: ExecutionMode) -> PhysicalOp:
        normalized = normalize(bound.rel, mode.normalize_config)
        return self._optimizer(mode).optimize(normalized)

    def _optimizer(self, mode: ExecutionMode,
                   gov: ResourceGovernor | None = None,
                   use_matviews: bool = False) -> Optimizer:
        """An optimizer for ``mode``; with ``use_matviews`` and at least
        one materialized view defined it also explores substituting
        views for the aggregates they answer."""
        views = ([v for v in self.catalog.matviews()
                  if isinstance(v, MatViewDef)] if use_matviews else [])
        return Optimizer(self._stats_provider, self._index_provider,
                         mode.optimizer_config, governor=gov,
                         corrections=self.corrections,
                         zone_provider=self._zone_skip_rows,
                         extra_rules=([ViewSubstitution(views)]
                                      if views else []))

    # -- optimizer services ------------------------------------------------------

    def _stats_provider(self, table_name: str):
        try:
            return self.storage.get(table_name).statistics()
        except ReproError:
            return None

    def _index_provider(self, table_name: str) -> list[tuple[str, ...]]:
        try:
            table = self.catalog.get_table(table_name)
        except ReproError:
            return []
        candidates = [tuple(key) for key in table.all_keys()]
        for index in self.catalog.indexes_on(table_name):
            candidates.append(tuple(index.column_names))
        return candidates

    def _zone_skip_rows(self, table_name: str, predicate,
                        scan_columns) -> float:
        """Rows the chunk zone maps prove unreachable for ``predicate``
        — the optimizer's zone provider (literal conjuncts only; at
        plan time parameter values are unknown)."""
        try:
            table = self.storage.get(table_name)
        except ReproError:
            return 0.0
        layout = {c.cid: i for i, c in enumerate(scan_columns)}
        prunes = compile_zone_filters(split_conjuncts(predicate), layout,
                                      allow_params=False)
        if not prunes:
            return 0.0
        no_params: dict = {}
        skipped = 0
        for unit in table.scan_units():
            if any(fn(unit.zones, no_params) for fn in prunes):
                skipped += unit.nrows
        return float(skipped)
