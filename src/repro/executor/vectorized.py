"""Vectorized (batch-at-a-time) physical plan executor.

The one physical engine.  Operators exchange :class:`Batch` objects — a
list of column value lists plus an explicit row count — of at most
``batch_size`` rows (default 1024).  Scans slice column chunks straight
off storage, filters compact batches conjunct-by-conjunct (predicate
short-circuiting at batch granularity), hash join and hash aggregation
build on column arrays, and ``SegmentApply`` binds whole column segments
(the paper's Section 3.4 segmented execution, batched).  Every scalar —
filter and join predicates, projections, aggregate arguments, sort keys
— is evaluated by :func:`~.vector_expressions.compile_vector` over a
batch.

``NLApply`` — the paper's Apply, the per-row execution of a
parameterized subexpression — runs in two shapes.  When its inner side
is a bare ``IndexSeek`` (the index-lookup join that decorrelation leaves
in place), the operator is a batched index lookup: the seek keys of a
whole left batch are computed at once, the index is probed per left row,
all matches are gathered from the table's columns into one inner batch,
and the seek residual, the Apply predicate and the join kind are applied
over that batch.  Any other inner side runs through the batch pipeline
once per left row, with the row's columns bound as parameters — the
paper's correlated execution.

Correctness contract: results equal the naive interpreter's (the
reference, :mod:`.naive`) up to row order, and are deterministic in row
order — the same values in the same order for every ``batch_size`` and
morsel worker count.  The differential oracles
(tests/test_differential.py, the frozen TPC-H result goldens) enforce
this.

Invariants:

* operators never yield empty batches (a scan of an empty table yields
  nothing);
* column lists inside a batch are immutable by convention — operators
  share them freely (a project may return its input's column object) and
  always allocate fresh lists for new data;
* batches are *at most* ``batch_size`` rows from scans, but joins may
  emit larger batches (one output batch per probe batch); Apply, whose
  outer rows can each fan out to many inner rows, re-chunks its output
  to ``batch_size`` so operators above it hold bounded batches.

Resource governance is cooperative, charged per batch: scans consume
their chunk sizes, index lookups the rows they fetch, Apply its outer
rows, hash builds / sorts / segment buffers hold and release their
materialized row counts, and the top-level driver meters result rows.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Any, Callable, Iterator, Optional, Sequence

from .. import faultinject
from ..algebra.aggregates import AggregateFunction
from ..algebra.columns import Column
from ..algebra.relational import JoinKind
from ..algebra.scalar import (AggregateCall, ColumnRef, ScalarExpr,
                              conjunction, parameter_slot, split_equi)
from ..errors import ExecutionError, SubqueryReturnedMultipleRows
from ..physical.plan import (PConstantScan, PDifference, PFilter,
                             PHashAggregate, PHashJoin, PIndexSeek,
                             PMax1row, PNestedLoopsJoin, PNLApply, PProject,
                             PScalarAggregate, PSegmentApply, PSegmentRef,
                             PSort, PStreamAggregate, PTableScan, PTop,
                             PTopN, PUnionAll, PhysicalOp)
from ..storage.columnar import ScanUnit, compile_zone_filters
from ..storage.table import Storage
from .morsel import run_morsels
from .naive import _SortValue
from .vector_expressions import build_layout, compile_vector, split_conjuncts

DEFAULT_BATCH_SIZE = 1024


class ExecutionContext:
    """Per-run mutable state: correlation parameters, current segments,
    the optional per-query resource governor, and the storage view the
    run reads from."""

    __slots__ = ("params", "segments", "governor", "storage", "profile")

    def __init__(self, governor=None, storage=None, profile=None) -> None:
        self.params: dict[int, Any] = {}
        #: Current segment per SegmentRef column set, as a Batch.
        self.segments: dict[frozenset[int], Batch] = {}
        #: ResourceGovernor | None — checked cooperatively by operators.
        self.governor = governor
        #: Where leaf operators resolve tables *at open time*: the live
        #: :class:`~repro.storage.table.Storage` or a pinned
        #: :class:`~repro.storage.table.StorageSnapshot`.  Run-time
        #: resolution is what makes one cached executable serve both the
        #: latest data and any session snapshot.
        self.storage = storage
        #: ``dict[int, int] | None`` — actual rows produced per plan
        #: node, keyed by ``id(node)``.  ``None`` (the default) disables
        #: row counting entirely; EXPLAIN ANALYZE and feedback-enabled
        #: executions pass a dict (see repro.feedback).
        self.profile = profile


class Batch:
    """A horizontal slice of a relation in columnar form.

    ``columns[c][i]`` is row ``i``'s value for output column position
    ``c``; ``nrows`` is explicit so zero-column batches (pure-existence
    streams) keep their cardinality.
    """

    __slots__ = ("columns", "nrows")

    def __init__(self, columns: list[list], nrows: int) -> None:
        self.columns = columns
        self.nrows = nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({len(self.columns)} cols x {self.nrows} rows)"


def take_batch(batch: Batch, indexes: list[int]) -> Batch:
    """Select rows by position.  ``indexes`` must be strictly increasing
    (a filter mask), so a full-length selection is the identity and the
    input batch is returned unchanged.  A ``None`` column — one an
    expression evaluated over the batch never reads — stays ``None``."""
    if len(indexes) == batch.nrows:
        return batch
    return Batch([None if col is None else [col[i] for i in indexes]
                  for col in batch.columns], len(indexes))


def batch_rows(batch: Batch) -> list[tuple]:
    """The batch pivoted back to row tuples."""
    if batch.columns:
        return list(zip(*batch.columns))
    return [()] * batch.nrows


def rows_to_batches(rows: Iterator[tuple], ncols: int,
                    size: int) -> Iterator[Batch]:
    """Re-batch a row stream into column chunks of at most ``size``."""
    while True:
        chunk = list(itertools.islice(rows, size))
        if not chunk:
            return
        if ncols:
            yield Batch([list(c) for c in zip(*chunk)], len(chunk))
        else:
            yield Batch([], len(chunk))


def columns_to_batches(columns: list[list], total: int,
                       size: int) -> Iterator[Batch]:
    """Chunk materialized output columns into batches."""
    if total == 0:
        return
    if total <= size:
        yield Batch(columns, total)
        return
    for start in range(0, total, size):
        stop = min(start + size, total)
        yield Batch([col[start:stop] for col in columns], stop - start)


def _key_iter(batch: Batch, positions: list[int]):
    """Per-row key tuples over the given column positions."""
    if positions:
        return zip(*[batch.columns[p] for p in positions])
    return itertools.repeat((), batch.nrows)


class _VecExecutable:
    """A prepared operator: ``batches(ctx)`` yields output batches."""

    __slots__ = ("batches",)

    def __init__(self,
                 batches: Callable[[ExecutionContext], Iterator[Batch]]):
        self.batches = batches


def _count_batches(source: Iterator[Batch], profile: dict,
                   key: int) -> Iterator[Batch]:
    """Accumulate ``batch.nrows`` per batch into ``profile[key]`` —
    counting at batch granularity, never per row.

    The count lands in the ``finally`` so early-terminated consumers
    (Top, Max1row, semi-join probes) still record the rows they actually
    pulled before closing the iterator."""
    n = 0
    try:
        for batch in source:
            n += batch.nrows
            yield batch
    finally:
        profile[key] = profile.get(key, 0) + n


def _vec_profiled(inner: Callable[[ExecutionContext], Iterator[Batch]],
                  key: int) -> Callable[[ExecutionContext], Iterator[Batch]]:
    """Wrap a prepared ``batches(ctx)`` callable with per-node row
    counting: with ``ctx.profile`` unset (the default) the raw batch
    iterator is returned and the per-batch path is unchanged."""
    def batches(ctx: ExecutionContext) -> Iterator[Batch]:
        profile = ctx.profile
        if profile is None:
            return inner(ctx)
        return _count_batches(inner(ctx), profile, key)
    return batches


class VectorizedExecutor:
    """Executes physical plans batch-at-a-time against a storage engine.

    No spilling: hash aggregation keeps all groups in memory.
    """

    def __init__(self, storage: Storage,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 morsel_workers: int = 1) -> None:
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        if morsel_workers < 1:
            raise ExecutionError("morsel_workers must be at least 1")
        self._storage = storage
        self._batch_size = batch_size
        self._morsel_workers = morsel_workers

    # -- driving ----------------------------------------------------------------

    def run(self, plan: PhysicalOp,
            params: Sequence[Any] | None = None,
            governor=None) -> list[tuple]:
        return self.run_prepared(self.prepare(plan), params, governor)

    def run_prepared(self, executable: _VecExecutable,
                     params: Sequence[Any] | None = None,
                     governor=None, storage=None,
                     profile: dict | None = None) -> list[tuple]:
        """Execute a prepared plan, optionally binding query parameters.

        ``params`` is a sequence in slot order; slot ``i`` is published to
        expression evaluation under ``parameter_slot(i)`` so one compiled
        plan can run under many bindings.  With a ``governor`` the run is
        metered cooperatively: result rows count against the row budget
        (catching output explosions above any guarded operator) and the
        deadline gets a final deterministic check even for empty results.
        ``storage`` overrides where table scans and seeks resolve their
        data — pass a pinned snapshot to run against it; the executor's
        live storage is the default.  ``profile`` (a dict) enables
        per-node actual-row counting for EXPLAIN ANALYZE and the
        cardinality-feedback loop; counts accumulate keyed by plan-node
        id.  Rows are returned as tuples.
        """
        faultinject.hit("executor.open")
        ctx = ExecutionContext(
            governor, storage if storage is not None else self._storage,
            profile)
        if params is not None:
            for i, value in enumerate(params):
                ctx.params[parameter_slot(i)] = value
        out: list[tuple] = []
        if governor is None:
            for batch in executable.batches(ctx):
                out.extend(batch_rows(batch))
            return out
        governor.start()
        for batch in executable.batches(ctx):
            governor.consume_rows(batch.nrows)
            out.extend(batch_rows(batch))
        governor.check_deadline()
        return out

    # -- preparation ------------------------------------------------------------

    def prepare(self, plan: PhysicalOp) -> _VecExecutable:
        method = getattr(self, "_prepare_" + type(plan).__name__, None)
        if method is None:
            raise ExecutionError(
                f"no vectorized executor for physical operator "
                f"{type(plan).__name__}")
        executable = method(plan)
        executable.batches = _vec_profiled(executable.batches, id(plan))
        return executable

    # -- leaves -----------------------------------------------------------------

    def _prepare_PTableScan(self, plan: PTableScan) -> _VecExecutable:
        self._storage.get(plan.table_name)  # validate eagerly
        return _VecExecutable(self._make_scan(plan, None))

    def _make_scan(self, plan: PTableScan, predicate
                   ) -> Callable[[ExecutionContext], Iterator[Batch]]:
        """A scan source over native storage chunks, optionally fused
        with a filter predicate.

        With a predicate, each chunk's zone maps are consulted first: a
        chunk no row of which can satisfy the predicate is skipped
        without decoding.  Skipped rows are still charged to the
        governor and to the scan node's profile count, so `EXPLAIN
        ANALYZE` actuals and budget accounting stay identical to an
        unpruned scan.

        With ``morsel_workers > 1`` multi-chunk scans fan chunks out as
        morsels over the shared helper pool (see :mod:`.morsel`); the
        ordered merge plus consumer-side governor/profile charging keep
        parallel output and accounting bit-identical to serial.
        """
        name = plan.table_name
        size = self._batch_size
        if predicate is not None:
            layout = build_layout(plan.columns)
            conjunct_exprs = split_conjuncts(predicate)
            filters = _compile_conjuncts(conjunct_exprs, layout)
            prunes = compile_zone_filters(conjunct_exprs, layout)
        else:
            filters = []
            prunes = []
        fused = predicate is not None
        scan_key = id(plan)
        workers = self._morsel_workers

        def process_unit(unit: ScanUnit, params
                         ) -> tuple[list[tuple[int, Optional[Batch]]], bool]:
            """Decode and filter one storage chunk.  Returns the ordered
            (rows_charged, surviving_batch_or_None) steps plus whether
            the chunk was zone-map pruned without decoding — pure, so it
            may run on a morsel helper thread."""
            if prunes and any(fn(unit.zones, params) for fn in prunes):
                return [(unit.nrows, None)], True
            cols = unit.columns()
            total = unit.nrows
            steps: list[tuple[int, Optional[Batch]]] = []
            for start in range(0, total, size):
                stop = min(start + size, total)
                steps.append((stop - start,
                              _select(cols, total, start, stop, filters,
                                      params)))
            return steps, False

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            table = ctx.storage.get(name)
            units = table.scan_units()
            governor = ctx.governor
            profile = ctx.profile if fused else None
            params = ctx.params
            scanned = 0
            skipped = 0
            try:
                if workers > 1 and len(units) > 1:
                    per_unit: Iterator[tuple] = run_morsels(
                        len(units),
                        lambda i: process_unit(units[i], params),
                        workers - 1)
                else:
                    per_unit = (process_unit(unit, params)
                                for unit in units)
                for steps, pruned in per_unit:
                    if pruned:
                        skipped += 1
                    for charged, batch in steps:
                        if governor is not None:
                            governor.consume_rows(charged)
                        scanned += charged
                        if batch is not None:
                            yield batch
            finally:
                if profile is not None:
                    profile[scan_key] = profile.get(scan_key, 0) + scanned
                    if skipped:
                        # Keyed off-row so the frozen per-node wire stats
                        # stay untouched when nothing was skipped.
                        skip_key = ("chunks_skipped", scan_key)
                        profile[skip_key] = (profile.get(skip_key, 0)
                                             + skipped)
        return batches

    def _prepare_PIndexSeek(self, plan: PIndexSeek) -> _VecExecutable:
        probe = _IndexProbe(self._storage, plan)
        key_fns = [compile_vector(e, {}) for e in plan.key_exprs]
        residual = _compile_conjuncts(split_conjuncts(plan.residual),
                                      build_layout(plan.columns))
        every_column = list(range(len(plan.columns)))
        one_row = Batch([], 1)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            table, index, order = probe.resolve(ctx)
            params = ctx.params
            values = [fn(one_row, params)[0] for fn in key_fns]
            positions = index.lookup(tuple(values[k] for k in order))
            if not positions:
                return
            if ctx.governor is not None:
                ctx.governor.consume_rows(len(positions))
            n = len(positions)
            batch = _select(table.gather(positions, every_column), n, 0, n,
                            residual, params)
            if batch is not None:
                yield batch
        return _VecExecutable(batches)

    def _prepare_PConstantScan(self, plan: PConstantScan) -> _VecExecutable:
        data = list(plan.rows)
        constant = (Batch([list(c) for c in zip(*data)], len(data))
                    if data else None)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            if constant is not None:
                yield constant
        return _VecExecutable(batches)

    def _prepare_PSegmentRef(self, plan: PSegmentRef) -> _VecExecutable:
        key = frozenset(c.cid for c in plan.columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            try:
                segment = ctx.segments[key]
            except KeyError:
                raise ExecutionError(
                    "segment reference outside SegmentApply") from None
            yield segment
        return _VecExecutable(batches)

    # -- row-level operators ----------------------------------------------------

    def _prepare_PFilter(self, plan: PFilter) -> _VecExecutable:
        if isinstance(plan.child, PTableScan):
            # Fuse filter into the scan: zone-map chunk skipping plus
            # decode-and-filter morsels.  The scan node's profile count
            # is maintained inside the fused source.
            self._storage.get(plan.child.table_name)  # validate eagerly
            return _VecExecutable(
                self._make_scan(plan.child, plan.predicate))
        child = self.prepare(plan.child)
        conjuncts = _compile_conjuncts(split_conjuncts(plan.predicate),
                                       build_layout(plan.child.columns))

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                n = batch.nrows
                selected = _select(batch.columns, n, 0, n, conjuncts,
                                   params)
                if selected is not None:
                    yield selected
        return _VecExecutable(batches)

    def _prepare_PProject(self, plan: PProject) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        fns = [compile_vector(e, layout) for _, e in plan.items]

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            for batch in child.batches(ctx):
                yield Batch([fn(batch, params) for fn in fns], batch.nrows)
        return _VecExecutable(batches)

    # -- joins ------------------------------------------------------------------

    def _prepare_PHashJoin(self, plan: PHashJoin) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_key_fns = [compile_vector(e, left_layout)
                        for e in plan.left_keys]
        right_key_fns = [compile_vector(e, right_layout)
                         for e in plan.right_keys]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        residual = (compile_vector(plan.residual, combined_layout)
                    if plan.residual is not None else None)
        reads = _read_positions(plan.residual, combined_layout)
        kind = plan.kind
        n_right = len(plan.right.columns)
        left_only = kind.left_only_output
        # Semi/anti with no residual only ask whether a bucket exists:
        # one candidate per left row, never one per bucket entry.
        any_match = left_only and residual is None

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            # Build on the right: accumulate columns, bucket row indexes.
            # Rows with a NULL key part can never match and are dropped.
            right_cols: list[list] = [[] for _ in range(n_right)]
            buckets: dict[tuple, list[int]] = {}
            setdefault = buckets.setdefault
            total = 0
            built = 0
            for rb in right.batches(ctx):
                keys = list(zip(*[fn(rb, params) for fn in right_key_fns]))
                valid = [i for i, k in enumerate(keys) if None not in k]
                if not valid:
                    continue
                if len(valid) == rb.nrows:
                    for col, vals in zip(right_cols, rb.columns):
                        col.extend(vals)
                else:
                    for col, vals in zip(right_cols, rb.columns):
                        col.extend([vals[i] for i in valid])
                for pos, i in enumerate(valid, start=total):
                    setdefault(keys[i], []).append(pos)
                total += len(valid)
                if governor is not None:
                    governor.hold_rows(len(valid))
                    built += len(valid)
            pad_index = total
            if kind is JoinKind.LEFT_OUTER:
                for col in right_cols:
                    col.append(None)
            get_bucket = buckets.get
            empty_bucket: tuple = ()
            try:
                for lb in left.batches(ctx):
                    # Gather all candidate pairs, evaluate the residual
                    # once over the candidate batch, then emit per left
                    # row in bucket order.
                    keys = zip(*[fn(lb, params) for fn in left_key_fns])
                    cli: list[int] = []
                    cri: list[int] = []
                    for i, k in enumerate(keys):
                        bucket = (empty_bucket if None in k
                                  else get_bucket(k, empty_bucket))
                        if not bucket:
                            continue
                        if any_match:
                            cli.append(i)
                        else:
                            cli.extend([i] * len(bucket))
                            cri.extend(bucket)
                    mask = None
                    if residual is not None and cri:
                        mask = residual(
                            _candidates(reads, lb.columns, right_cols,
                                        cli, cri), params)
                    li, ri = _match_pairs(kind, lb.nrows, cli, cri, mask,
                                          pad_index)
                    if not li:
                        continue
                    out_cols = [[col[i] for i in li] for col in lb.columns]
                    if not left_only:
                        out_cols += [[col[j] for j in ri]
                                     for col in right_cols]
                    yield Batch(out_cols, len(li))
            finally:
                if governor is not None:
                    governor.release_rows(built)
        return _VecExecutable(batches)

    def _prepare_PNestedLoopsJoin(self,
                                  plan: PNestedLoopsJoin) -> _VecExecutable:
        equi, residual = split_equi(
            plan.predicate, frozenset(c.cid for c in plan.left.columns),
            frozenset(c.cid for c in plan.right.columns))
        if equi:
            # An equality between the two sides: hashing the right side
            # on it yields the same pairs in the same order (per left
            # row, right rows in input order; NULL never matches) without
            # evaluating the predicate on every pair.  EXPLAIN still
            # prints the planned NestedLoops (see DESIGN.md).
            return self._prepare_PHashJoin(PHashJoin(
                plan.kind, plan.left, plan.right,
                [ColumnRef(a) for a, _ in equi],
                [ColumnRef(b) for _, b in equi],
                conjunction(residual) if residual else None))
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        n_left = len(plan.left.columns)
        n_right = len(plan.right.columns)
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = (compile_vector(plan.predicate, combined_layout)
                     if plan.predicate is not None else None)
        reads = _read_positions(plan.predicate, combined_layout)
        kind = plan.kind
        left_only = kind.left_only_output
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            right_cols: list[list] = [[] for _ in range(n_right)]
            total = 0
            for rb in right.batches(ctx):
                if governor is not None:
                    governor.hold_rows(rb.nrows)
                for col, vals in zip(right_cols, rb.columns):
                    col.extend(vals)
                total += rb.nrows
            pad_index = total
            if kind is JoinKind.LEFT_OUTER:
                for col in right_cols:
                    col.append(None)
            # Left rows per candidate block: keeps the pairs evaluated at
            # once near batch_size however large the right side is.
            step = max(1, size // max(total, 1))
            try:
                for lb in left.batches(ctx):
                    cli: list[int] = []
                    cri: list[int] = []
                    for start in range(0, lb.nrows if total else 0, step):
                        stop = min(start + step, lb.nrows)
                        # Candidate k pairs left row start + k // total
                        # with right row k % total.
                        n = (stop - start) * total
                        hits: Sequence[int] = range(n)
                        if predicate is not None:
                            cols: list = [None] * (n_left + n_right)
                            for p in reads:
                                if p < n_left:
                                    repeat = [[v] * total for v in
                                              lb.columns[p][start:stop]]
                                    cols[p] = list(
                                        itertools.chain.from_iterable(repeat))
                                else:
                                    cols[p] = (right_cols[p - n_left][:total]
                                               * (stop - start))
                            mask = predicate(Batch(cols, n), params)
                            hits = [k for k, m in enumerate(mask)
                                    if m is True]
                        if left_only:
                            # Semi/anti: one candidate per matched row.
                            cli.extend(dict.fromkeys(
                                [start + k // total for k in hits]))
                            continue
                        cli.extend([start + k // total for k in hits])
                        cri.extend([k % total for k in hits])
                    li, ri = _match_pairs(kind, lb.nrows, cli, cri, None,
                                          pad_index)
                    if not li:
                        continue
                    out_cols = [[col[i] for i in li] for col in lb.columns]
                    if not left_only:
                        out_cols += [[col[j] for j in ri]
                                     for col in right_cols]
                    yield Batch(out_cols, len(li))
            finally:
                if governor is not None:
                    governor.release_rows(total)
        return _VecExecutable(batches)

    def _prepare_PNLApply(self, plan: PNLApply) -> _VecExecutable:
        if isinstance(plan.right, PIndexSeek):
            return self._prepare_index_apply(plan, plan.right)
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        n_left = len(plan.left.columns)
        n_right = len(plan.right.columns)
        left_cids = [c.cid for c in plan.left.columns]
        combined_layout = build_layout(
            list(plan.left.columns) + list(plan.right.columns))
        predicate = (compile_vector(plan.predicate, combined_layout)
                     if plan.predicate is not None else None)
        left_reads = [p for p in _read_positions(plan.predicate,
                                                 combined_layout)
                      if p < n_left]
        guard = (compile_vector(plan.guard, build_layout(plan.left.columns))
                 if plan.guard is not None else None)
        kind = plan.kind
        left_only = kind.left_only_output
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            for lb in left.batches(ctx):
                if governor is not None:
                    governor.consume_rows(lb.nrows)
                passed = (guard(lb, params) if guard is not None else None)
                li: list[int] = []
                right_out: list[list] = [[] for _ in range(n_right)]
                for i in range(lb.nrows):
                    matched = False
                    # §2.4: a row failing the guard never opens the inner
                    # side and is treated as having no inner rows.
                    if passed is None or passed[i] is True:
                        for cid, col in zip(left_cids, lb.columns):
                            params[cid] = col[i]
                        for ib in right.batches(ctx):
                            keep = None
                            if predicate is not None:
                                cols = [None] * n_left + ib.columns
                                for p in left_reads:
                                    cols[p] = [lb.columns[p][i]] * ib.nrows
                                mask = predicate(Batch(cols, ib.nrows),
                                                 params)
                                keep = [k for k, v in enumerate(mask)
                                        if v is True]
                                if not keep:
                                    continue
                            matched = True
                            if left_only:
                                break
                            if keep is None:
                                for out, col in zip(right_out, ib.columns):
                                    out.extend(col)
                                li.extend([i] * ib.nrows)
                            else:
                                for out, col in zip(right_out, ib.columns):
                                    out.extend([col[k] for k in keep])
                                li.extend([i] * len(keep))
                    if matched:
                        if kind is JoinKind.LEFT_SEMI:
                            li.append(i)
                    elif kind is JoinKind.LEFT_ANTI:
                        li.append(i)
                    elif kind is JoinKind.LEFT_OUTER:
                        li.append(i)
                        for out in right_out:
                            out.append(None)
                if li:
                    out_cols = [[col[i] for i in li] for col in lb.columns]
                    if not left_only:
                        out_cols += right_out
                    yield from columns_to_batches(out_cols, len(li), size)
        return _VecExecutable(batches)

    def _prepare_index_apply(self, plan: PNLApply,
                             seek: PIndexSeek) -> _VecExecutable:
        """``NLApply`` over a bare ``IndexSeek``: a batched index lookup.

        Per left batch, the seek keys are computed with one vector
        expression each, the index is probed once per left row, and every
        match becomes a candidate (left row, table position) pair.  The
        seek residual and then the Apply predicate are evaluated over the
        candidates at once — reading the left columns by gather and the
        table's columns by position, only those the two expressions
        reference — and the join kind picks the output per left row.  The
        table is read for output columns only for the surviving pairs.
        """
        left = self.prepare(plan.left)
        probe = _IndexProbe(self._storage, seek)
        left_layout = build_layout(plan.left.columns)
        # Key expressions read the outer row's columns: against the left
        # layout they read the left batch directly instead of parameters.
        key_fns = [compile_vector(e, left_layout) for e in seek.key_exprs]
        n_left = len(plan.left.columns)
        n_right = len(seek.columns)
        combined_layout = build_layout(
            list(plan.left.columns) + list(seek.columns))
        residual = _compile_conjuncts(split_conjuncts(seek.residual),
                                      combined_layout)
        predicate = _compile_conjuncts(split_conjuncts(plan.predicate),
                                       combined_layout)
        reads = sorted({p for _, positions in residual + predicate
                        for p in positions})
        left_reads = [p for p in reads if p < n_left]
        right_reads = [p - n_left for p in reads if p >= n_left]
        guard = (compile_vector(plan.guard, left_layout)
                 if plan.guard is not None else None)
        kind = plan.kind
        left_only = kind.left_only_output
        # Semi/anti with nothing to evaluate per pair only ask whether a
        # row has matches: one candidate per left row, not per match.
        any_match = left_only and not reads
        every_column = list(range(n_right))
        seek_key = id(seek)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            profile = ctx.profile
            table, index, order = probe.resolve(ctx)
            lookup = index.lookup
            seek_rows = 0
            try:
                for lb in left.batches(ctx):
                    if guard is None:
                        active: Sequence[int] = range(lb.nrows)
                        probing = lb
                    else:
                        # §2.4: rows failing the guard never probe the
                        # index and are treated as having no inner rows.
                        mask = guard(lb, params)
                        active = [i for i, v in enumerate(mask) if v is True]
                        probing = take_batch(lb, active)
                    values = [fn(probing, params) for fn in key_fns]
                    cli: list[int] = []
                    cri: list[int] = []
                    found = 0
                    for i, key in zip(active,
                                      zip(*[values[k] for k in order])):
                        positions = lookup(key)
                        if not positions:
                            continue
                        found += len(positions)
                        if any_match:
                            cli.append(i)
                        else:
                            cli.extend([i] * len(positions))
                            cri.extend(positions)
                    if governor is not None:
                        governor.consume_rows(lb.nrows + found)
                    n = len(cri)
                    if n and reads:
                        cols: list = [None] * (n_left + n_right)
                        for p in left_reads:
                            col = lb.columns[p]
                            cols[p] = [col[i] for i in cli]
                        for p, vals in zip(right_reads,
                                           table.gather(cri, right_reads)):
                            cols[n_left + p] = vals
                        keep = _survivors(cols, n, 0, n, residual, params)
                        if keep is not None:
                            found = len(keep)
                        keep = _survivors(cols, n, 0, n, predicate, params,
                                          keep)
                        if keep is not None:
                            cli = [cli[k] for k in keep]
                            cri = [cri[k] for k in keep]
                    seek_rows += found
                    li, ri = _match_pairs(kind, lb.nrows, cli, cri, None, -1)
                    # Gathered a batch at a time: one outer row may match
                    # many table rows.
                    for start in range(0, len(li), size):
                        part = li[start:start + size]
                        out_cols = [[col[i] for i in part]
                                    for col in lb.columns]
                        if not left_only:
                            out_cols += _gather_padded(
                                table, ri[start:start + size], every_column)
                        yield Batch(out_cols, len(part))
            finally:
                if profile is not None:
                    profile[seek_key] = profile.get(seek_key, 0) + seek_rows
        return _VecExecutable(batches)

    # -- aggregation ------------------------------------------------------------

    def _prepare_PHashAggregate(self, plan: PHashAggregate) -> _VecExecutable:
        return self._prepare_grouped(plan.child, plan.group_columns,
                                     plan.aggregates)

    def _prepare_grouped(self, child_plan: PhysicalOp,
                         group_columns: Sequence[Column],
                         aggregates) -> _VecExecutable:
        child = self.prepare(child_plan)
        layout = build_layout(child_plan.columns)
        group_positions = [layout[c.cid] for c in group_columns]
        arg_fns, specs = _aggregate_specs(aggregates, layout)
        n_args = len(arg_fns)
        n_groups_cols = len(group_positions)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            groups: dict[tuple, int] = {}
            keys_list: list[tuple] = []
            counts: list[int] = []
            stores: list[list[list]] = [[] for _ in range(n_args)]
            get_gid = groups.get
            held = 0
            try:
                for batch in child.batches(ctx):
                    valcols = [fn(batch, params) for fn in arg_fns]
                    keys = _key_iter(batch, group_positions)
                    fresh = 0
                    if n_args == 1:
                        store0 = stores[0]
                        col0 = valcols[0]
                        for i, key in enumerate(keys):
                            gid = get_gid(key)
                            if gid is None:
                                gid = len(keys_list)
                                groups[key] = gid
                                keys_list.append(key)
                                counts.append(0)
                                store0.append([])
                                fresh += 1
                            counts[gid] += 1
                            store0[gid].append(col0[i])
                    elif n_args == 0:
                        for key in keys:
                            gid = get_gid(key)
                            if gid is None:
                                gid = len(keys_list)
                                groups[key] = gid
                                keys_list.append(key)
                                counts.append(0)
                                fresh += 1
                            counts[gid] += 1
                    else:
                        for i, key in enumerate(keys):
                            gid = get_gid(key)
                            if gid is None:
                                gid = len(keys_list)
                                groups[key] = gid
                                keys_list.append(key)
                                counts.append(0)
                                for store in stores:
                                    store.append([])
                                fresh += 1
                            counts[gid] += 1
                            for store, col in zip(stores, valcols):
                                store[gid].append(col[i])
                    # Memory scales with distinct groups, not input rows:
                    # charge per new group, batched.
                    if governor is not None and fresh:
                        governor.hold_rows(fresh)
                        held += fresh
                n_groups = len(keys_list)
                if n_groups == 0:
                    return
                if n_groups_cols:
                    out_cols = [list(c) for c in zip(*keys_list)]
                else:
                    out_cols = []
                for reduce_fn, arg_index in specs:
                    values = (itertools.repeat(None) if arg_index is None
                              else stores[arg_index])
                    out_cols.append(list(map(reduce_fn, values, counts)))
                yield from columns_to_batches(out_cols, n_groups, size)
            finally:
                if governor is not None:
                    governor.release_rows(held)
        return _VecExecutable(batches)

    def _prepare_PStreamAggregate(self,
                                  plan: PStreamAggregate) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        group_positions = [layout[c.cid] for c in plan.group_columns]
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout)
        n_args = len(arg_fns)
        n_out = len(plan.columns)
        size = self._batch_size
        unset = object()

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            out_cols: list[list] = [[] for _ in range(n_out)]
            emitted = 0
            current_key: Any = unset
            count = 0
            vals: list[list] = [[] for _ in range(n_args)]

            def finalize() -> None:
                nonlocal emitted
                position = 0
                for part in current_key:
                    out_cols[position].append(part)
                    position += 1
                for reduce_fn, arg_index in specs:
                    value = reduce_fn(
                        vals[arg_index] if arg_index is not None else None,
                        count)
                    out_cols[position].append(value)
                    position += 1
                emitted += 1

            for batch in child.batches(ctx):
                valcols = [fn(batch, params) for fn in arg_fns]
                for i, key in enumerate(_key_iter(batch, group_positions)):
                    if key != current_key:
                        if current_key is not unset:
                            finalize()
                        current_key = key
                        count = 0
                        vals = [[] for _ in range(n_args)]
                    count += 1
                    for store, col in zip(vals, valcols):
                        store.append(col[i])
            if current_key is not unset:
                finalize()
            yield from columns_to_batches(out_cols, emitted, size)
        return _VecExecutable(batches)

    def _prepare_PScalarAggregate(self,
                                  plan: PScalarAggregate) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        arg_fns, specs = _aggregate_specs(plan.aggregates, layout)
        n_args = len(arg_fns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            count = 0
            vals: list[list] = [[] for _ in range(n_args)]
            for batch in child.batches(ctx):
                valcols = [fn(batch, params) for fn in arg_fns]
                count += batch.nrows
                for store, col in zip(vals, valcols):
                    store.extend(col)
            # Exactly one output row, even over empty input.
            yield Batch(
                [[reduce_fn(vals[arg_index]
                            if arg_index is not None else None, count)]
                 for reduce_fn, arg_index in specs],
                1)
        return _VecExecutable(batches)

    # -- ordering and limits ----------------------------------------------------

    def _prepare_PSort(self, plan: PSort) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_vector(e, layout), asc) for e, asc in plan.keys]
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            params = ctx.params
            governor = ctx.governor
            data: list[list] = [[] for _ in range(ncols)]
            keys: list[list] = []
            total = 0
            try:
                for batch in child.batches(ctx):
                    if governor is not None:
                        governor.hold_rows(batch.nrows)
                    total += batch.nrows
                    for col, vals in zip(data, batch.columns):
                        col.extend(vals)
                    keys.extend(_sort_keys(compiled, batch, params))
                # Stable: equal keys keep their input order.
                order = sorted(range(total), key=keys.__getitem__)
                yield from columns_to_batches(
                    [[col[i] for i in order] for col in data], total, size)
            finally:
                if governor is not None:
                    governor.release_rows(total)
        return _VecExecutable(batches)

    def _prepare_PTop(self, plan: PTop) -> _VecExecutable:
        child = self.prepare(plan.child)
        count = plan.count
        offset = plan.offset

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            to_skip = offset
            remaining = count
            if remaining <= 0:
                return
            for batch in child.batches(ctx):
                if to_skip >= batch.nrows:
                    to_skip -= batch.nrows
                    continue
                start = to_skip
                to_skip = 0
                stop = min(batch.nrows, start + remaining)
                if start == 0 and stop == batch.nrows:
                    out = batch
                else:
                    out = Batch([col[start:stop] for col in batch.columns],
                                stop - start)
                remaining -= out.nrows
                yield out
                if remaining <= 0:
                    return
        return _VecExecutable(batches)

    def _prepare_PTopN(self, plan: PTopN) -> _VecExecutable:
        child = self.prepare(plan.child)
        layout = build_layout(plan.child.columns)
        compiled = [(compile_vector(e, layout), asc) for e, asc in plan.keys]
        keep = plan.count + plan.offset
        offset = plan.offset
        ncols = len(plan.columns)
        size = self._batch_size

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            if keep == 0:
                return
            params = ctx.params
            # Bounded heap of the best `keep` rows.  The min-heap root is
            # the *worst* kept entry under the inverted key, so a better
            # row replaces it in O(log keep).  Earlier input order breaks
            # ties (stable like the full sort).
            heap: list = []
            sequence = 0
            for batch in child.batches(ctx):
                for key, row in zip(_sort_keys(compiled, batch, params),
                                    batch_rows(batch)):
                    entry = _TopNEntry(key, sequence, row)
                    sequence += 1
                    if len(heap) < keep:
                        heapq.heappush(heap, entry)
                    elif heap[0].worse_than(entry):
                        heapq.heapreplace(heap, entry)
            ordered = sorted(heap, key=lambda e: (e.key, e.sequence))
            yield from rows_to_batches(
                iter([e.row for e in ordered[offset:]]), ncols, size)
        return _VecExecutable(batches)

    def _prepare_PMax1row(self, plan: PMax1row) -> _VecExecutable:
        child = self.prepare(plan.child)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            produced = 0
            for batch in child.batches(ctx):
                produced += batch.nrows
                if produced > 1:
                    raise SubqueryReturnedMultipleRows()
                yield batch
        return _VecExecutable(batches)

    # -- set operations ---------------------------------------------------------

    def _prepare_PUnionAll(self, plan: PUnionAll) -> _VecExecutable:
        prepared = []
        for source, imap in zip(plan.inputs, plan.input_maps):
            layout = build_layout(source.columns)
            positions = [layout[c.cid] for c in imap]
            prepared.append((self.prepare(source), positions))

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            for source, positions in prepared:
                for batch in source.batches(ctx):
                    yield Batch([batch.columns[p] for p in positions],
                                batch.nrows)
        return _VecExecutable(batches)

    def _prepare_PDifference(self, plan: PDifference) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        right_layout = build_layout(plan.right.columns)
        left_positions = [left_layout[c.cid] for c in plan.left_map]
        right_positions = [right_layout[c.cid] for c in plan.right_map]
        ncols = len(plan.columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            remaining: Counter = Counter()
            for batch in right.batches(ctx):
                for key in _key_iter(batch, right_positions):
                    remaining[key] += 1
            for batch in left.batches(ctx):
                survivors: list[tuple] = []
                for key in _key_iter(batch, left_positions):
                    if remaining[key] > 0:
                        remaining[key] -= 1
                        continue
                    survivors.append(key)
                if survivors:
                    if ncols:
                        yield Batch([list(c) for c in zip(*survivors)],
                                    len(survivors))
                    else:
                        yield Batch([], len(survivors))
        return _VecExecutable(batches)

    # -- segmented execution ----------------------------------------------------

    def _prepare_PSegmentApply(self, plan: PSegmentApply) -> _VecExecutable:
        left = self.prepare(plan.left)
        right = self.prepare(plan.right)
        left_layout = build_layout(plan.left.columns)
        seg_positions = [left_layout[c.cid] for c in plan.segment_columns]
        ref_key = frozenset(c.cid for c in plan.inner_columns)
        n_left = len(plan.left.columns)
        n_seg = len(plan.segment_columns)

        def batches(ctx: ExecutionContext) -> Iterator[Batch]:
            governor = ctx.governor
            # Buffer the left input columnar, partition row indexes by
            # segment key in first-appearance order.
            acc_cols: list[list] = [[] for _ in range(n_left)]
            segments: dict[tuple, list[int]] = {}
            order: list[tuple] = []
            total = 0
            held = 0
            for batch in left.batches(ctx):
                for col, vals in zip(acc_cols, batch.columns):
                    col.extend(vals)
                for i, key in enumerate(_key_iter(batch, seg_positions),
                                        start=total):
                    bucket = segments.get(key)
                    if bucket is None:
                        segments[key] = bucket = []
                        order.append(key)
                    bucket.append(i)
                total += batch.nrows
                if governor is not None:
                    governor.hold_rows(batch.nrows)
                    held += batch.nrows
            previous = ctx.segments.get(ref_key)
            try:
                for key in order:
                    indexes = segments[key]
                    ctx.segments[ref_key] = Batch(
                        [[col[i] for i in indexes] for col in acc_cols],
                        len(indexes))
                    for inner in right.batches(ctx):
                        yield Batch(
                            [[key[j]] * inner.nrows for j in range(n_seg)] +
                            list(inner.columns),
                            inner.nrows)
            finally:
                if previous is None:
                    ctx.segments.pop(ref_key, None)
                else:
                    ctx.segments[ref_key] = previous
                if governor is not None:
                    governor.release_rows(held)
        return _VecExecutable(batches)


# -- join, lookup and ordering helpers ------------------------------------------

class _IndexProbe:
    """An ``IndexSeek``'s index, resolved per table version at open time.

    Table versions are immutable once installed, so the resolution is
    memoized as one atomically-swapped ``(table, index, order)`` tuple;
    concurrent runs over different snapshots stay consistent because
    each reads the triple it resolved.  ``order`` maps the index's key
    columns to the positions of the seek's key expressions.
    """

    __slots__ = ("_name", "_names", "_expr_for", "_resolved")

    def __init__(self, storage: Storage, plan: PIndexSeek) -> None:
        table = storage.get(plan.table_name)
        self._name = plan.table_name
        self._names = [c.name for c in plan.key_columns]
        self._expr_for = {table.definition.column_index(c.name): k
                          for k, c in enumerate(plan.key_columns)}
        self._resolved: tuple = (None, None, None)
        self._index_of(table)  # validate eagerly

    def _index_of(self, table):
        index = table.key_lookup_index(self._names)
        if index is None:
            raise ExecutionError(
                f"no index on {self._name}({', '.join(self._names)})")
        return index

    def resolve(self, ctx: ExecutionContext) -> tuple:
        table = ctx.storage.get(self._name)
        resolved = self._resolved
        if table is not resolved[0]:
            index = self._index_of(table)
            resolved = (table, index,
                        [self._expr_for[p] for p in index.positions])
            self._resolved = resolved
        return resolved


def _read_positions(expr: Optional[ScalarExpr], layout) -> list[int]:
    """The layout positions ``expr`` reads; the rest of a candidate
    batch it is evaluated over may stay unmaterialized (``None``)."""
    if expr is None:
        return []
    return sorted(layout[cid] for cid in expr.free_columns().ids()
                  if cid in layout)


def _candidates(reads: list[int], left_cols: list[list],
                right_cols: list[list], cli: list[int],
                cri: list[int]) -> Batch:
    """The candidate batch of (left row ``cli[k]``, right row ``cri[k]``)
    pairs over the combined left + right layout, with only the positions
    ``reads`` materialized — the rest stay ``None``."""
    n_left = len(left_cols)
    cols: list = [None] * (n_left + len(right_cols))
    for p in reads:
        if p < n_left:
            col = left_cols[p]
            cols[p] = [col[i] for i in cli]
        else:
            col = right_cols[p - n_left]
            cols[p] = [col[j] for j in cri]
    return Batch(cols, len(cri))


def _compile_conjuncts(conjuncts: Sequence[ScalarExpr],
                       layout) -> list[tuple[Callable, list[int]]]:
    """Each conjunct compiled, with the layout positions it reads."""
    return [(compile_vector(c, layout), _read_positions(c, layout))
            for c in conjuncts]


def _survivors(columns: list, total: int, start: int, stop: int,
               conjuncts, params,
               keep: Optional[list[int]] = None) -> Optional[list[int]]:
    """The positions in ``start:stop`` of ``columns`` (``total`` rows
    long) that satisfy every conjunct, narrowed from ``keep`` when given;
    ``None`` means every row.

    A selection vector: each conjunct is evaluated over only the columns
    it reads, gathered at the rows that passed the ones before
    (predicate short-circuiting at batch granularity), so columns no
    conjunct reads may be ``None``.
    """
    for fn, reads in conjuncts:
        if keep is not None and not keep:
            break
        sub: list = [None] * len(columns)
        if keep is None:
            whole = start == 0 and stop == total
            for p in reads:
                sub[p] = columns[p] if whole else columns[p][start:stop]
            mask = fn(Batch(sub, stop - start), params)
            keep = [i for i, v in enumerate(mask, start) if v is True]
        else:
            for p in reads:
                col = columns[p]
                sub[p] = [col[i] for i in keep]
            mask = fn(Batch(sub, len(keep)), params)
            keep = [i for i, v in zip(keep, mask) if v is True]
    return keep


def _select(columns: list[list], total: int, start: int, stop: int,
            conjuncts, params) -> Optional[Batch]:
    """Rows ``start:stop`` of ``columns`` (``total`` rows long) that
    satisfy every conjunct (see :func:`_survivors`), as a batch —
    ``None`` when no row does.  The survivors' columns are gathered once
    at the end; a selection of every row shares the input lists instead
    of copying them.
    """
    keep = _survivors(columns, total, start, stop, conjuncts, params)
    if keep is not None and not keep:
        return None
    if keep is None or len(keep) == stop - start:
        if start == 0 and stop == total:
            return Batch(columns, total)
        return Batch([col[start:stop] for col in columns], stop - start)
    return Batch([[col[i] for i in keep] for col in columns], len(keep))


def _match_pairs(kind: JoinKind, nrows: int, cli: list[int],
                 cri: list[int], mask: Optional[list],
                 pad: int) -> tuple[list[int], list[int]]:
    """The output (left index, right index) pairs of one probe batch.

    Candidate pair ``k`` is ``(cli[k], cri[k])``, grouped by left row in
    ascending order; ``mask[k] is True`` when it satisfies the join
    predicate (``mask=None``: every candidate does).  Left rows
    ``0..nrows-1`` are emitted in order — joined to their passing
    candidates, NULL-padded (right index ``pad``) under LEFT_OUTER, once
    under LEFT_SEMI, or when none passes under LEFT_ANTI.  Right indexes
    are meaningless for the left-only kinds.
    """
    if mask is None:
        li, ri = cli, cri
    else:
        li = [i for i, m in zip(cli, mask) if m is True]
        ri = [j for j, m in zip(cri, mask) if m is True]
    if kind is JoinKind.INNER:
        return li, ri
    if kind is JoinKind.LEFT_SEMI:
        return list(dict.fromkeys(li)), []
    if kind is JoinKind.LEFT_ANTI:
        matched = set(li)
        return [i for i in range(nrows) if i not in matched], []
    if len(set(li)) == nrows:
        return li, ri
    out_l: list[int] = []
    out_r: list[int] = []
    k = 0
    n = len(li)
    for i in range(nrows):
        if k < n and li[k] == i:
            while k < n and li[k] == i:
                out_l.append(i)
                out_r.append(ri[k])
                k += 1
        else:
            out_l.append(i)
            out_r.append(pad)
    return out_l, out_r


def _gather_padded(table, positions: list[int],
                   columns: list[int]) -> list[list]:
    """Table columns at ``positions``, where a negative position is a
    NULL pad."""
    real = [p for p in positions if p >= 0]
    gathered = table.gather(real, columns)
    if len(real) == len(positions):
        return gathered
    out = []
    for col in gathered:
        values = iter(col)
        out.append([next(values) if p >= 0 else None for p in positions])
    return out


def _sort_keys(compiled, batch: Batch, params) -> list[tuple]:
    """Per-row sort keys of one batch, from vector-compiled key
    expressions: NULLs first ascending, last descending."""
    if not compiled:
        return [()] * batch.nrows
    return list(zip(*[[_SortValue(v, asc) for v in fn(batch, params)]
                      for fn, asc in compiled]))


class _TopNEntry:
    """Heap entry for Top-N: min-heap ordering puts the WORST kept row at
    the root (inverted comparison; later sequence = worse on ties)."""

    __slots__ = ("key", "sequence", "row")

    def __init__(self, key: tuple, sequence: int, row: tuple) -> None:
        self.key = key
        self.sequence = sequence
        self.row = row

    def __lt__(self, other: "_TopNEntry") -> bool:
        # Inverted: "less" in the heap means "worse" in sort order.
        return self.worse_than(other)

    def worse_than(self, other: "_TopNEntry") -> bool:
        """Whether `self` sorts after `other` (so `other` should replace
        it among the kept best rows)."""
        if self.key == other.key:
            return self.sequence > other.sequence
        return other.key < self.key


# -- batched aggregate reduction ------------------------------------------------

def _aggregate_specs(aggregates: Sequence[tuple[Column, AggregateCall]],
                     layout):
    """Compile aggregate argument expressions and per-call reducers.

    Returns ``(arg_fns, specs)``: ``arg_fns`` are the batch-compiled
    argument expressions (one per aggregate *with* an argument) and each
    spec is ``(reduce_fn, arg_index)`` where ``reduce_fn(values, count)``
    folds one group's value list — ``arg_index`` is ``None`` for
    ``count(*)`` (no values collected, row count suffices).

    Reducers reproduce the fold semantics of
    :class:`~repro.algebra.aggregates.AggregateDescriptor` exactly
    (builtin ``sum``/``min``/``max`` over the non-NULL values in input
    order equals the left fold, including float evaluation order), so
    the engine and the naive interpreter compute identical aggregate
    values.
    """
    arg_fns = []
    specs = []
    for _, call in aggregates:
        if call.argument is None:
            specs.append((_make_reducer(call.func, call.distinct), None))
        else:
            arg_index = len(arg_fns)
            arg_fns.append(compile_vector(call.argument, layout))
            specs.append((_make_reducer(call.func, call.distinct),
                          arg_index))
    return arg_fns, specs


def _dedupe(values: list) -> list:
    """First occurrence of each value, in input order (NULL included),
    mirroring the shared fold's distinct-tracking set."""
    seen: set = set()
    add = seen.add
    out = []
    append = out.append
    for v in values:
        if v not in seen:
            add(v)
            append(v)
    return out


def _make_reducer(func: AggregateFunction, distinct: bool):
    if func is AggregateFunction.COUNT_STAR:
        if distinct:
            # Degenerate count(distinct *): the shared fold dedupes its
            # (absent) argument, collapsing all rows to one.
            return lambda values, count: 1 if count else 0
        return lambda values, count: count

    if func is AggregateFunction.COUNT:
        def reduce_count(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            return len(values) - values.count(None)
        return reduce_count

    if func is AggregateFunction.SUM:
        def reduce_sum(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = (values if None not in values
                        else [v for v in values if v is not None])
            return sum(non_null) if non_null else None
        return reduce_sum

    if func is AggregateFunction.MIN:
        def reduce_min(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = (values if None not in values
                        else [v for v in values if v is not None])
            return min(non_null) if non_null else None
        return reduce_min

    if func is AggregateFunction.MAX:
        def reduce_max(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = (values if None not in values
                        else [v for v in values if v is not None])
            return max(non_null) if non_null else None
        return reduce_max

    if func is AggregateFunction.AVG:
        def reduce_avg(values: list, count: int):
            if distinct:
                values = _dedupe(values)
            non_null = (values if None not in values
                        else [v for v in values if v is not None])
            if not non_null:
                return None
            return sum(non_null) / len(non_null)
        return reduce_avg

    raise ExecutionError(f"unhandled aggregate {func}")  # pragma: no cover
