"""Columnar table storage with copy-on-write versions and a row façade.

Data lives natively in a :class:`~repro.storage.columnar.ColumnStore` —
sealed, encoded column chunks with zone maps plus a mutable tail (see
:mod:`repro.storage.columnar`).  Logically, rows are still Python tuples
in declaration order: :attr:`StoredTable.rows` is a :class:`RowView`
sequence façade over the store, so the tuple/naive engines, the WAL and
checkpoint codecs, and the index machinery keep operating on tuples
while the vectorized engine scans the chunks directly
(:meth:`StoredTable.scan_units`).  The store validates types and NOT
NULL constraints on insert, enforces primary/unique keys through hash
indexes, and maintains any secondary indexes declared in the catalog.

Concurrency model (the substrate of :mod:`repro.server` snapshot
isolation): a :class:`StoredTable` is one *version* of a table's data.
Committed writes never mutate an installed version in place — they
:meth:`~StoredTable.clone` it, apply the changes to the private copy and
atomically *install* the copy as the new current version
(:meth:`Storage.install`), serialized by a per-table writer lock
(:meth:`Storage.writer_lock`).  Readers pin an immutable view of all
current versions with :meth:`Storage.snapshot`; anything they pinned stays
valid and unchanged for as long as they hold it, no matter how many
writers commit after them.
"""

from __future__ import annotations

from collections import abc
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .. import faultinject
from ..algebra.datatypes import value_matches_type
from ..catalog.catalog import IndexDef, TableDef
from ..catalog.statistics import TableStats, compute_table_stats
from ..concurrency import TrackedLock, TrackedRLock
from ..errors import ExecutionError, TransactionConflict
from .columnar import DEFAULT_CHUNK_ROWS, ColumnStore, ScanUnit

#: Bound on autocommit writer-lock acquisition (seconds).  Generous —
#: an autocommit insert behind a slow checkpoint should wait, not
#: flake — but finite, so a leaked writer lock surfaces as a
#: :class:`TransactionConflict` instead of a hung thread.
AUTOCOMMIT_LOCK_TIMEOUT = 30.0


class RowView(abc.Sequence):
    """A read-only tuple-sequence façade over a :class:`ColumnStore`.

    Everything that used to consume ``StoredTable.rows`` as a plain list
    — engine scans, index rebuilds, checkpoint/WAL codecs, statistics —
    keeps working: iteration, ``len``, integer indexing, slicing and
    element-wise equality against lists/tuples all behave like the row
    list did.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[tuple]:
        return self._store.iter_rows()

    def __getitem__(self, item):
        store = self._store
        if isinstance(item, slice):
            return [store.row(i)
                    for i in range(*item.indices(len(store)))]
        index = item.__index__()
        if index < 0:
            index += len(store)
        if not 0 <= index < len(store):
            raise IndexError("row index out of range")
        return store.row(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, RowView)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(a == b for a, b in zip(self, other))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RowView({list(self)!r})"


class StoredTable:
    """Columnar data plus indexes for one table (one version)."""

    def __init__(self, definition: TableDef,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self.definition = definition
        self._store = ColumnStore(len(definition.columns), chunk_rows)
        self._row_view = RowView(self._store)
        self._indexes: dict[str, Any] = {}
        self._key_indexes: list[Any] = []
        self._stats_cache: TableStats | None = None
        from .index import HashIndex  # deferred: keep import graph simple
        for key in definition.all_keys():
            positions = [definition.column_index(name) for name in key]
            self._key_indexes.append(HashIndex(positions))

    @property
    def rows(self) -> RowView:
        """The table as a sequence of row tuples (the row façade)."""
        return self._row_view

    # -- mutation ---------------------------------------------------------------

    def insert(self, values: Sequence[Any] | Mapping[str, Any]) -> tuple:
        row = self._coerce(values)
        self._check_types(row)
        self._check_keys(row)
        position = len(self._store)
        self._store.append(row)
        for index in self._key_indexes:
            index.insert(row, position)
        for index in self._indexes.values():
            index.insert(row, position)
        self._stats_cache = None
        return row

    def insert_rows(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]
                    ) -> list[tuple]:
        """Insert a batch and return the coerced stored tuples — the
        exact form commit paths log to the write-ahead log."""
        return [self.insert(values) for values in rows]

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        return len(self.insert_rows(rows))

    def _coerce(self, values: Sequence[Any] | Mapping[str, Any]) -> tuple:
        definition = self.definition
        if isinstance(values, Mapping):
            unknown = set(values) - set(definition.column_names)
            if unknown:
                raise ExecutionError(
                    f"unknown columns for {definition.name!r}: {sorted(unknown)}")
            return tuple(values.get(c.name) for c in definition.columns)
        row = tuple(values)
        if len(row) != len(definition.columns):
            raise ExecutionError(
                f"table {definition.name!r} expects {len(definition.columns)} "
                f"values, got {len(row)}")
        return row

    def _check_types(self, row: tuple) -> None:
        for value, column in zip(row, self.definition.columns):
            if value is None and not column.nullable:
                raise ExecutionError(
                    f"NULL in NOT NULL column {column.name!r} "
                    f"of table {self.definition.name!r}")
            if not value_matches_type(value, column.dtype):
                raise ExecutionError(
                    f"value {value!r} does not match type {column.dtype} "
                    f"of column {column.name!r}")

    def _check_keys(self, row: tuple) -> None:
        for index in self._key_indexes:
            key = index.key_of(row)
            if any(part is None for part in key):
                continue
            if index.lookup(key):
                raise ExecutionError(
                    f"duplicate key {key!r} in table {self.definition.name!r}")

    # -- access -----------------------------------------------------------------

    def scan(self) -> Iterator[tuple]:
        return self._store.iter_rows()

    def columns(self) -> list[list]:
        """The whole table pivoted to columnar form: one value list per
        declared column, aligned by row position (fresh lists)."""
        return self._store.columns()

    def gather(self, positions: Sequence[int],
               columns: Sequence[int]) -> list[list]:
        """Columns ``columns`` at row ``positions`` (see
        :meth:`~repro.storage.columnar.ColumnStore.gather`) — how index
        seeks fetch their matches."""
        return self._store.gather(positions, columns)

    def scan_units(self) -> list[ScanUnit]:
        """Every storage chunk (sealed + tail) with its zone maps — the
        vectorized engine's native scan entry point."""
        return self._store.scan_units()

    def column_chunks(self, batch_size: int) -> Iterator[tuple[list[list], int]]:
        """Yield ``(columns, nrows)`` chunks of at most ``batch_size`` rows.

        Chunks follow storage-chunk boundaries: a storage chunk wider
        than ``batch_size`` is sliced, one that fits is yielded whole
        (sharing the chunk's cached decoded lists, no copy).  The last
        piece of each storage chunk may be short; an empty table yields
        nothing.
        """
        if batch_size < 1:
            raise ExecutionError("batch_size must be at least 1")
        for unit in self._store.scan_units():
            cols = unit.columns()
            total = unit.nrows
            if total <= batch_size:
                yield cols, total
                continue
            for start in range(0, total, batch_size):
                stop = min(start + batch_size, total)
                yield [col[start:stop] for col in cols], stop - start

    def seal(self, encodings: Sequence[str] | None = None) -> None:
        """Seal the mutable tail into an encoded chunk (test hook; the
        store also seals automatically every ``chunk_rows`` inserts)."""
        self._store.seal_tail(encodings)

    def force_encodings(self, encodings: Sequence[str]) -> None:
        """Re-encode every chunk with fixed per-column encodings (test
        hook for the differential encoding sweep)."""
        self._store.force_encodings(encodings)

    def __len__(self) -> int:
        return len(self._store)

    # -- secondary indexes --------------------------------------------------------

    def add_index(self, index_def: IndexDef) -> None:
        from .index import HashIndex, OrderedIndex

        positions = [self.definition.column_index(name)
                     for name in index_def.column_names]
        index = (HashIndex(positions) if index_def.kind == "hash"
                 else OrderedIndex(positions))
        index.rebuild(self.rows)
        self._indexes[index_def.name.lower()] = index

    def index(self, name: str):
        return self._indexes.get(name.lower())

    def key_lookup_index(self, column_names: Sequence[str]):
        """An index (declared key or secondary) exactly on ``column_names``.

        Order-insensitive for hash indexes: equality lookup does not care
        about column order, so we match as a set and report the index's own
        column order for key construction.
        """
        wanted = [self.definition.column_index(n) for n in column_names]
        wanted_set = set(wanted)
        for index in self._key_indexes:
            if set(index.positions) == wanted_set:
                return index
        for index in self._indexes.values():
            if set(index.positions) == wanted_set:
                return index
        return None

    # -- versioning ---------------------------------------------------------------

    def clone(self) -> "StoredTable":
        """An independent copy-on-write successor of this version.

        Sealed chunks are shared outright (they are immutable, decode /
        pivot caches included); only the mutable tail and the indexes
        are copied, so inserts into the clone are invisible to readers
        of this version.  Statistics are shared until the clone's first
        insert drops them (they describe identical data at clone time).
        """
        new = StoredTable.__new__(StoredTable)
        new.definition = self.definition
        new._store = self._store.clone()
        new._row_view = RowView(new._store)
        new._indexes = {name: index.clone()
                        for name, index in self._indexes.items()}
        new._key_indexes = [index.clone() for index in self._key_indexes]
        new._stats_cache = self._stats_cache
        return new

    # -- statistics ---------------------------------------------------------------

    def statistics(self) -> TableStats:
        if self._stats_cache is None:
            self._stats_cache = compute_table_stats(
                self.definition.column_names, self.rows)
        return self._stats_cache


class StorageSnapshot:
    """An immutable view of table versions pinned at one instant.

    Satisfies the reader protocol executors use (``get``), so a query can
    run entirely against the snapshot while writers install new versions
    in the owning :class:`Storage`.  ``data_version`` is the storage's
    commit counter at pin time.
    """

    __slots__ = ("_tables", "data_version")

    def __init__(self, tables: Mapping[str, StoredTable],
                 data_version: int) -> None:
        self._tables = dict(tables)
        self.data_version = data_version

    def get(self, name: str) -> StoredTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ExecutionError(
                f"no storage for table {name!r} in this snapshot") from None

    def get_or_none(self, name: str) -> StoredTable | None:
        return self._tables.get(name.lower())

    def table_names(self) -> list[str]:
        return sorted(self._tables)


class Storage:
    """All stored tables of one database, versioned copy-on-write.

    The table map is guarded by an internal lock; individual installed
    :class:`StoredTable` versions are treated as immutable by committed
    writers (see the module docstring).  ``data_version`` counts installs
    — every committed write bumps it, which is what lets the plan cache
    and session machinery notice data movement cheaply.
    """

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self.chunk_rows = chunk_rows
        self._tables: dict[str, StoredTable] = {}
        self._lock = TrackedRLock("storage.tables")
        # Plain (non-reentrant) locks, deliberately: two transactions
        # driven by the same thread must still conflict rather than both
        # "holding" the lock, and a server may acquire on a worker thread
        # and release on the connection thread at commit.
        self._writer_locks: dict[str, TrackedLock] = {}
        self.data_version = 0
        #: Write-ahead hook (duck-typed ``log_commit``), set by a
        #: durable :class:`~repro.database.Database`.  ``None`` — the
        #: default — keeps the store purely in-memory; nothing else in
        #: this module changes behavior.
        self.wal = None
        #: Materialized-view maintenance hook (duck-typed
        #: ``prepare_commit``), set by :class:`~repro.database.Database`.
        #: Commits that insert into a view's base table fold the delta
        #: into the view backing *inside the same install*, so readers
        #: never observe a base/view mismatch.  ``None`` disables
        #: maintenance entirely.
        self.matviews = None

    def create(self, definition: TableDef) -> StoredTable:
        key = definition.name.lower()
        with self._lock:
            if key in self._tables:
                raise ExecutionError(
                    f"storage for {definition.name!r} exists")
            table = StoredTable(definition, self.chunk_rows)
            self._tables[key] = table
            self._writer_locks.setdefault(
                key, TrackedLock(f"storage.writer:{key}"))
            self.data_version += 1
            return table

    def get(self, name: str) -> StoredTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ExecutionError(f"no storage for table {name!r}") from None

    def drop(self, name: str) -> None:
        with self._lock:
            self._tables.pop(name.lower(), None)
            self._writer_locks.pop(name.lower(), None)
            self.data_version += 1

    # -- concurrency --------------------------------------------------------------

    def snapshot(self) -> StorageSnapshot:
        """Pin the current version of every table (readers' entry point)."""
        with self._lock:
            return StorageSnapshot(self._tables, self.data_version)

    def writer_lock(self, name: str) -> TrackedLock:
        """The single-writer-per-table lock serializing installs."""
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise ExecutionError(
                    f"no storage for table {name!r}")
            return self._writer_locks.setdefault(
                key, TrackedLock(f"storage.writer:{key}"))

    def all_writer_locks(self) -> list[tuple[str, TrackedLock]]:
        """Every table's writer lock, sorted by name — the checkpointer
        acquires them all (in this deterministic order) to quiesce
        commits without blocking readers."""
        with self._lock:
            return sorted(self._writer_locks.items())

    def install(self, name: str, table: StoredTable) -> None:
        """Atomically publish ``table`` as the current version of ``name``.

        Callers must hold the table's writer lock.
        """
        self.install_many({name: table})

    def install_many(self, tables: Mapping[str, StoredTable],
                     changes: Mapping[str, Sequence[tuple]] | None = None
                     ) -> None:
        """Atomically publish new versions for several tables at once
        (one transaction commit = one install, one version bump).

        Callers must hold every affected table's writer lock.  The
        injection point fires *before* the map is touched and the
        existence check covers every table before any is swapped, so a
        failed commit installs nothing — readers see either all of the
        transaction's versions or none of them.

        ``changes`` carries the transaction's logical row deltas (table
        → inserted tuples).  On a durable database they are appended to
        the write-ahead log — and fsynced — strictly *before* the
        install (WAL-before-install): a commit whose log write fails
        installs nothing, and a crash between log and install replays
        the commit at recovery.

        When a materialized-view hook is set, the deltas are first
        folded into new versions of the affected view backings
        (acquiring each view's writer lock), and those versions join the
        same swap.  The WAL still records only the base-table deltas:
        recovery re-derives view contents, so a crash anywhere in here
        can never persist a view inconsistent with its base.
        """
        keys = {name.lower(): table for name, table in tables.items()}
        with self._lock:
            for key in keys:
                if key not in self._tables:
                    raise ExecutionError(f"no storage for table {key!r}")
        maintenance = None
        if self.matviews is not None and changes:
            maintenance = self.matviews.prepare_commit(keys, changes)
        try:
            if maintenance is not None:
                keys.update(maintenance.versions)
            if self.wal is not None and changes:
                self.wal.log_commit(changes)
            faultinject.hit("snapshot.install")
            with self._lock:
                for key in keys:
                    if key not in self._tables:
                        raise ExecutionError(
                            f"no storage for table {key!r}")
                for key, table in keys.items():
                    self._tables[key] = table
                self.data_version += 1
        finally:
            if maintenance is not None:
                maintenance.release()

    def apply_insert(self, name: str,
                     rows: Iterable[Sequence[Any] | Mapping[str, Any]]
                     ) -> int:
        """Copy-on-write autocommit insert: clone, insert, install.

        Constraint violations raise before anything is installed (and
        before anything is logged), so a failed batch leaves the table
        exactly as it was (all-or-nothing), and concurrent readers
        holding snapshots never observe a partially-applied batch.
        """
        lock = self.writer_lock(name)
        if not lock.acquire(timeout=AUTOCOMMIT_LOCK_TIMEOUT):
            raise TransactionConflict(
                f"could not acquire the writer lock on table {name!r} "
                f"within {AUTOCOMMIT_LOCK_TIMEOUT:.0f}s (autocommit "
                f"insert)")
        try:
            version = self.get(name).clone()
            inserted = version.insert_rows(rows)
            self.install_many({name: version}, changes={name: inserted})
            return len(inserted)
        finally:
            lock.release()

    def apply_add_index(self, name: str, index_def: IndexDef) -> None:
        """Copy-on-write index creation (DDL autocommits)."""
        lock = self.writer_lock(name)
        if not lock.acquire(timeout=AUTOCOMMIT_LOCK_TIMEOUT):
            raise TransactionConflict(
                f"could not acquire the writer lock on table {name!r} "
                f"within {AUTOCOMMIT_LOCK_TIMEOUT:.0f}s (create index)")
        try:
            version = self.get(name).clone()
            version.add_index(index_def)
            self.install(name, version)
        finally:
            lock.release()
