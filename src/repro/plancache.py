"""Parameterized plan cache: LRU over compiled query plans.

Prepared statements and transparently-cached ad-hoc queries both land here.
A cache entry holds everything needed to re-execute a statement without
repeating parse → bind → normalize → optimize → compile: the optimized
physical plan, the prepared executable, the output schema and the parameter
list.  Entries are keyed on the *token-normalized* SQL text (whitespace,
comments and letter case of keywords do not fragment the cache), the
execution-mode name, and the catalog schema version at plan time.

Soundness comes from three mechanisms:

* **Schema versioning** — the key embeds ``catalog.version``; any DDL bumps
  it, so post-DDL lookups miss and replan against the new schema.
* **Explicit invalidation** — DDL entry points also call
  :meth:`PlanCache.invalidate`, dropping entries eagerly instead of letting
  them age out of the LRU.
* **Statistics drift** — each entry snapshots the row counts of the tables
  it references (:mod:`repro.stats_version`); a hit whose snapshot drifted
  beyond the threshold is discarded and replanned, so a plan costed against
  an empty table does not survive a bulk load.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Sequence

from . import faultinject
from .concurrency import TrackedLock
from .errors import SqlSyntaxError
from .sql.lexer import TokenType, tokenize
from .stats_version import (DEFAULT_DRIFT_THRESHOLD, StatsSnapshot, capture,
                            drifted)


def normalize_sql_key(sql: str) -> Hashable:
    """A cache key for ``sql`` insensitive to whitespace and keyword case.

    Built from the token stream, so ``SELECT  1`` and ``select 1`` share an
    entry while ``select 1`` and ``select 2`` do not.  Unlexable text gets
    the raw string as its key: the subsequent parse will raise the real
    syntax error, and caching never masks it.  Only genuine syntax errors
    are absorbed — a lexer *bug* (any non-:class:`SqlSyntaxError`)
    propagates instead of being silently cached under the raw string.
    """
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:
        return sql
    return tuple((t.type.value, t.value) for t in tokens
                 if t.type is not TokenType.EOF)


@dataclass
class CachedPlan:
    """One compiled statement: plan, executable, schema, provenance."""

    sql_key: Hashable
    mode_name: str
    catalog_version: int
    names: list[str]
    types: list[Any]
    parameters: tuple
    plan: Any
    rel: Any
    executable: Any
    snapshot: StatsSnapshot
    table_names: frozenset[str] = field(default_factory=frozenset)
    #: True when the entry came out of the graceful-degradation ladder
    #: (heuristic plan or naive interpretation).  Degraded entries are
    #: returned to the caller but never admitted into the cache.
    degraded: bool = False
    fallback_reason: str | None = None
    #: Set by the feedback loop (:mod:`repro.feedback`) when this plan's
    #: observed max Q-error exceeded the staleness threshold.  The next
    #: cache lookup discards the entry and replans against the corrected
    #: statistics.  Flagging never touches the entry's plan or
    #: executable, so executions already holding the entry are
    #: unaffected (plans are immutable once built).
    feedback_stale: bool = False
    #: Cache hits served for this entry, incremented under the owning
    #: shard's lock.  The materialized-view advisor mines this as its
    #: query-frequency signal (repro.matview.advisor).
    hits: int = 0
    #: The materialized views whose backing tables the chosen plan
    #: scans (sorted names; empty for base-table plans).  Counted as
    #: rewrites when run, checked by the snapshot guard, shown by EXPLAIN.
    matviews: tuple[str, ...] = ()

    @property
    def key(self) -> tuple:
        return (self.sql_key, self.mode_name, self.catalog_version)


@dataclass
class CacheStats:
    """Observable cache behaviour, for tests and monitoring.

    The owning cache updates counters under a dedicated stats lock, so
    concurrent sessions never lose increments.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale: int = 0
    #: entries refused admission by the cache's validator hook
    rejected: int = 0
    #: entries discarded because runtime feedback flagged their plan
    #: (max Q-error over threshold; see repro.feedback)
    feedback_stale: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self.invalidations = self.stale = self.rejected = 0
        self.feedback_stale = 0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations, "stale": self.stale,
                "rejected": self.rejected,
                "feedback_stale": self.feedback_stale,
                "hit_rate": self.hit_rate}


class _Shard:
    """One lock-protected LRU segment of the cache."""

    __slots__ = ("lock", "entries")

    def __init__(self, index: int) -> None:
        self.lock = TrackedLock(f"plancache.shard:{index}")
        self.entries: OrderedDict[tuple, CachedPlan] = OrderedDict()


class PlanCache:
    """Lock-striped LRU cache of :class:`CachedPlan` entries.

    ``row_count_of`` supplies current table sizes for the drift test; pass
    ``None`` to disable staleness checking (entries then live until DDL
    invalidation or LRU eviction).

    Thread safety: entries are hashed across ``shards`` independent LRU
    segments, each guarded by its own lock, so concurrent sessions
    contend only when they touch the same stripe.  Capacity is divided
    evenly across shards — with the default single shard the eviction
    order is the exact global LRU; with more shards it is LRU per stripe
    (approximate global LRU), the standard striping trade-off.  The
    validator and staleness callbacks run *outside* the stripe locks:
    they may be slow (the static analyzer, row-count probes) and must not
    serialize unrelated lookups.
    """

    def __init__(self, capacity: int = 128,
                 row_count_of: Callable[[str], int] | None = None,
                 drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
                 validator: Callable[[CachedPlan], bool] | None = None,
                 shards: int = 1) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        if shards < 1:
            raise ValueError("plan cache needs at least 1 shard")
        shards = min(shards, capacity)
        self.capacity = capacity
        self.drift_threshold = drift_threshold
        self._row_count_of = row_count_of
        self._validator = validator
        self._shards = [_Shard(i) for i in range(shards)]
        self._shard_capacity = -(-capacity // shards)  # ceil
        self.stats = CacheStats()
        self._stats_lock = TrackedLock("plancache.stats")

    @property
    def shards(self) -> int:
        return len(self._shards)

    def _shard_for(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    def _bump(self, field_name: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, field_name,
                    getattr(self.stats, field_name) + n)

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.entries)
        return total

    def __contains__(self, key: tuple) -> bool:
        shard = self._shard_for(key)
        with shard.lock:
            return key in shard.entries

    def get(self, sql_key: Hashable, mode_name: str,
            catalog_version: int) -> CachedPlan | None:
        """Look up a cached plan, applying LRU touch and staleness check."""
        faultinject.hit("plancache.get")
        key = (sql_key, mode_name, catalog_version)
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
        if entry is None:
            self._bump("misses")
            return None
        if entry.feedback_stale:
            with shard.lock:
                if shard.entries.get(key) is entry:
                    del shard.entries[key]
            self._bump("feedback_stale")
            self._bump("misses")
            return None
        if self._is_stale(entry):
            with shard.lock:
                shard.entries.pop(key, None)
            self._bump("stale")
            self._bump("misses")
            return None
        with shard.lock:
            if key in shard.entries:
                shard.entries.move_to_end(key)
                entry.hits += 1
        self._bump("hits")
        return entry

    def put(self, entry: CachedPlan) -> None:
        faultinject.hit("plancache.put")
        if self._validator is not None and not self._validator(entry):
            self._bump("rejected")
            return
        key = entry.key
        shard = self._shard_for(key)
        evicted = 0
        with shard.lock:
            if key in shard.entries:
                shard.entries.move_to_end(key)
            shard.entries[key] = entry
            while len(shard.entries) > self._shard_capacity:
                shard.entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._bump("evictions", evicted)

    def invalidate(self, table_name: str | None = None) -> int:
        """Drop cached plans; all of them, or those touching one table.

        Returns the number of entries removed.  Called from every DDL
        entry point — the schema-version key component already guarantees
        correctness, so this is about reclaiming memory eagerly rather
        than stranding dead entries until LRU eviction.
        """
        removed = 0
        for shard in self._shards:
            with shard.lock:
                if table_name is None:
                    removed += len(shard.entries)
                    shard.entries.clear()
                else:
                    wanted = table_name.lower()
                    doomed = [key for key, entry in shard.entries.items()
                              if wanted in entry.table_names]
                    for key in doomed:
                        del shard.entries[key]
                    removed += len(doomed)
        if removed:
            self._bump("invalidations", removed)
        return removed

    def entries(self) -> list[CachedPlan]:
        """A point-in-time list of every cached entry (all shards)."""
        collected: list[CachedPlan] = []
        for shard in self._shards:
            with shard.lock:
                collected.extend(shard.entries.values())
        return collected

    def capture_snapshot(self,
                         table_names: Sequence[str]) -> StatsSnapshot:
        """Snapshot current row counts for a new entry's staleness check."""
        if self._row_count_of is None:
            return StatsSnapshot({})
        return capture(self._row_count_of, table_names)

    def _is_stale(self, entry: CachedPlan) -> bool:
        if self._row_count_of is None:
            return False
        return drifted(entry.snapshot, self._row_count_of,
                       self.drift_threshold)
