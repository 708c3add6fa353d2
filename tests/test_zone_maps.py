"""Zone-map soundness: pruning may never skip a qualifying chunk.

The property under test is the contract of ``compile_zone_filter``: when
the compiled test says *skip*, no row in that chunk can make the
conjunct TRUE under SQL three-valued semantics.  A brute-force row
oracle checks every pruned chunk over hypothesis-generated values,
operators, literals, parameters and chunk sizes — including mixed-type
columns (where min/max are unavailable and only NULL-count pruning
remains legal).  Regressions pin the write path: zone maps seen by a
query always describe the *current* version after ``install_many``.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, Database, DataType
from repro.algebra.columns import Column
from repro.algebra.scalar import (Comparison, ColumnRef, IsNull, Literal,
                                  Parameter, parameter_slot)
from repro.storage import ColumnStore
from repro.storage.columnar import compile_zone_filter, compute_zone

OPS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
       "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def satisfies(value, op, literal):
    """Row-level truth of ``value op literal`` under SQL semantics."""
    if value is None or literal is None:
        return False  # NULL comparison is never TRUE
    try:
        return bool(OPS[op](value, literal))
    except TypeError:
        return False  # incomparable operands cannot satisfy


cell = st.one_of(st.none(), st.integers(-5, 5),
                 st.floats(allow_nan=False, allow_infinity=False,
                           width=16),
                 st.sampled_from(["a", "m", "z"]))
values_strategy = st.lists(cell, min_size=1, max_size=30)
literal_strategy = st.one_of(st.none(), st.integers(-5, 5),
                             st.sampled_from(["a", "z"]))


def store_of(values, chunk_rows) -> tuple[ColumnStore, Column]:
    store = ColumnStore(1, chunk_rows=chunk_rows)
    for value in values:
        store.append((value,))
    return store, Column("a", DataType.INTEGER)


@settings(max_examples=200, deadline=None, database=None)
@given(values=values_strategy, op=st.sampled_from(sorted(OPS)),
       literal=literal_strategy, chunk_rows=st.integers(1, 8),
       mirrored=st.booleans())
def test_pruned_chunks_hold_no_qualifying_row(values, op, literal,
                                              chunk_rows, mirrored):
    store, column = store_of(values, chunk_rows)
    if mirrored:  # literal op column — compile must mirror the operator
        conjunct = Comparison(op, Literal(literal), ColumnRef(column))
        oracle_op = {"=": "=", "<>": "<>", "<": ">", "<=": ">=",
                     ">": "<", ">=": "<="}[op]
    else:
        conjunct = Comparison(op, ColumnRef(column), Literal(literal))
        oracle_op = op
    prune = compile_zone_filter(conjunct, {column.cid: 0})
    assert prune is not None
    for unit in store.scan_units():
        if prune(unit.zones, {}):
            assert not any(satisfies(v, oracle_op, literal)
                           for v in unit.columns()[0]), \
                f"pruned a chunk with a qualifying row: {op} {literal!r}"


@settings(max_examples=100, deadline=None, database=None)
@given(values=values_strategy, chunk_rows=st.integers(1, 8),
       negated=st.booleans())
def test_null_pruning_matches_brute_force(values, chunk_rows, negated):
    store, column = store_of(values, chunk_rows)
    prune = compile_zone_filter(IsNull(ColumnRef(column), negated),
                                {column.cid: 0})
    assert prune is not None
    for unit in store.scan_units():
        if prune(unit.zones, {}):
            qualifying = [v for v in unit.columns()[0]
                          if (v is not None) == negated]
            assert not qualifying


@settings(max_examples=100, deadline=None, database=None)
@given(values=values_strategy, op=st.sampled_from(sorted(OPS)),
       literal=literal_strategy, chunk_rows=st.integers(1, 8))
def test_parameter_pruning_resolves_at_run_time(values, op, literal,
                                                chunk_rows):
    store, column = store_of(values, chunk_rows)
    conjunct = Comparison(op, ColumnRef(column), Parameter(0))
    prune = compile_zone_filter(conjunct, {column.cid: 0})
    assert prune is not None
    params = {parameter_slot(0): literal}
    for unit in store.scan_units():
        if prune(unit.zones, params):
            assert not any(satisfies(v, op, literal)
                           for v in unit.columns()[0])
    # Plan-time compilation must refuse parameters: their value is
    # unknown, so no cost discount may depend on them.
    assert compile_zone_filter(conjunct, {column.cid: 0},
                               allow_params=False) is None


class TestPruningRules:
    """Pinned corner cases of the skip rules."""

    def column(self) -> Column:
        return Column("a", DataType.INTEGER)

    def compiled(self, conjunct, column):
        prune = compile_zone_filter(conjunct, {column.cid: 0})
        assert prune is not None
        return prune

    def test_null_literal_always_prunes(self):
        column = self.column()
        prune = self.compiled(
            Comparison("=", ColumnRef(column), Literal(None)), column)
        assert prune((compute_zone([1, 2, 3]),), {})

    def test_all_null_chunk_always_prunes(self):
        column = self.column()
        prune = self.compiled(
            Comparison("<", ColumnRef(column), Literal(99)), column)
        assert prune((compute_zone([None, None]),), {})

    def test_unavailable_min_max_never_prunes(self):
        column = self.column()
        prune = self.compiled(
            Comparison("=", ColumnRef(column), Literal(99)), column)
        assert not prune((compute_zone([1, "a"]),), {})

    def test_cross_type_comparison_never_prunes(self):
        column = self.column()
        prune = self.compiled(
            Comparison(">", ColumnRef(column), Literal(0)), column)
        assert not prune((compute_zone(["a", "z"]),), {})

    def test_not_equal_prunes_only_constant_chunks(self):
        column = self.column()
        prune = self.compiled(
            Comparison("<>", ColumnRef(column), Literal(7)), column)
        assert prune((compute_zone([7, 7, 7]),), {})
        assert not prune((compute_zone([7, 8]),), {})
        # NULL rows never satisfy <>, so a constant-plus-NULLs chunk
        # still prunes.
        assert prune((compute_zone([7, None, 7]),), {})

    def test_column_vs_column_is_not_prunable(self):
        column = self.column()
        other = Column("b", DataType.INTEGER)
        conjunct = Comparison("=", ColumnRef(column), ColumnRef(other))
        assert compile_zone_filter(
            conjunct, {column.cid: 0, other.cid: 1}) is None


# -- write-path regressions -----------------------------------------------------

def make_db(chunk_rows=4) -> Database:
    db = Database(chunk_rows=chunk_rows)
    db.create_table("t", [("a", DataType.INTEGER, False),
                          ("b", DataType.INTEGER, True)],
                    primary_key=("a",))
    db.insert("t", [(i, i % 3) for i in range(8)])
    return db


def test_zone_maps_track_installs():
    """A query must never consult stale zone maps: after ``install_many``
    publishes a version with new rows, a previously all-pruned filter
    must see them."""
    db = make_db()
    sql = "select t.a from t where t.a > 100"
    assert db.execute(sql, FULL, engine="vectorized").rows == []
    db.insert("t", [(200, 0)])  # clone → append → install_many
    assert db.execute(sql, FULL, engine="vectorized").rows == [(200,)]
    db.insert("t", [(300, 1), (400, 2)])
    assert db.execute(sql, FULL, engine="vectorized").rows \
        == [(200,), (300,), (400,)]


def test_tail_zone_cache_invalidated_by_append():
    db = make_db(chunk_rows=100)  # everything stays in the tail
    sql = "select t.a from t where t.a > 100"
    assert db.execute(sql, FULL, engine="vectorized").rows == []
    db.insert("t", [(200, 0)])
    assert db.execute(sql, FULL, engine="vectorized").rows == [(200,)]


def test_reseal_recomputes_zones():
    db = make_db()
    table = db.storage.get("t")
    table.force_encodings(["rle", "dict"])
    for unit in table.scan_units():
        lo, hi = unit.zones[0].min, unit.zones[0].max
        values = unit.columns()[0]
        assert lo == min(values) and hi == max(values)


def test_pruning_is_invisible_to_results():
    db = make_db(chunk_rows=2)
    for sql, expected in [
        ("select t.a from t where t.a >= 6", [(6,), (7,)]),
        ("select t.a from t where t.a < 2", [(0,), (1,)]),
        ("select t.a from t where t.a = 3", [(3,)]),
        ("select count(*) from t where t.b is not null", [(8,)]),
    ]:
        assert db.execute(sql, FULL).rows == expected


class TestChunksSkippedCounter:
    """`EXPLAIN ANALYZE` surfaces zone-map pruning per scan node."""

    def scan_node(self, tree):
        if tree["op"].startswith("TableScan"):
            return tree
        for child in tree["children"]:
            found = self.scan_node(child)
            if found is not None:
                return found
        return None

    def test_pruned_scan_reports_chunks_skipped(self):
        db = make_db(chunk_rows=2)  # 8 rows -> 4 chunks
        payload = db.explain("select t.a from t where t.a >= 6", FULL,
                             analyze=True, format="dict",
                             engine="vectorized")
        scan = self.scan_node(payload["plan"])
        assert scan is not None
        assert scan["chunks_skipped"] == 3
        # Skipped rows are still charged to the scan's actual count.
        assert scan["actual_rows"] == 8
        rendered = db.explain("select t.a from t where t.a >= 6", FULL,
                              analyze=True, engine="vectorized")
        assert "skipped=3" in rendered

    def test_unpruned_scan_keeps_frozen_key_set(self):
        db = make_db(chunk_rows=2)
        payload = db.explain("select t.a from t where t.b >= 0", FULL,
                             analyze=True, format="dict",
                             engine="vectorized")
        scan = self.scan_node(payload["plan"])
        assert scan is not None
        # No pruning: the wire-frozen key set must be exactly intact.
        assert set(scan.keys()) == {"op", "estimated_rows", "actual_rows",
                                    "q_error", "children"}
