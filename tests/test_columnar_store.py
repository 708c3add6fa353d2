"""Unit tests for the native columnar storage layer.

Covers the encoding implementations (round-trip fidelity, including the
type-strict ``1`` vs ``1.0`` distinction), the seal-time encoding
heuristics, the :class:`ColumnStore` chunk/tail life cycle, the
:class:`RowView` row façade, and the per-chunk cache-invalidation
contract: writes touch only the tail, sealed chunks — and their decode /
pivot caches — are shared across copy-on-write versions.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FULL, NAIVE, Database, DataType
from repro.faultinject import fail_always, fail_at, is_active
from repro.storage import ColumnStore, RowView, StoredTable
from repro.storage.columnar import (DictColumn, PlainColumn, RLEColumn,
                                    choose_encoding, compute_zone,
                                    encode_column, seal_chunk)

# -- encodings ------------------------------------------------------------------

mixed_values = st.lists(
    st.one_of(st.none(), st.integers(-3, 3), st.booleans(),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=16),
              st.sampled_from(["a", "bb", ""])),
    max_size=40)


class TestEncodings:
    @settings(max_examples=60, deadline=None, database=None)
    @given(values=mixed_values,
           kind=st.sampled_from(["plain", "dict", "rle"]))
    def test_round_trip_is_bit_identical(self, values, kind):
        encoded = encode_column(values, kind)
        decoded = encoded.decode()
        assert len(encoded) == len(values)
        assert [(v.__class__, v) for v in decoded] \
            == [(v.__class__, v) for v in values]

    def test_equal_but_differently_typed_values_stay_apart(self):
        # 1 == 1.0 == True in Python; the encodings must not merge them.
        values = [1, 1.0, True, 1, 1.0, True]
        for kind in ("dict", "rle"):
            decoded = encode_column(values, kind).decode()
            assert [type(v) for v in decoded] == [int, float, bool] * 2

    def test_dict_column_shares_slots(self):
        column = encode_column(["a", "b", "a", "a", "b"], "dict")
        assert isinstance(column, DictColumn)
        assert column.values == ["a", "b"]
        assert column.codes == [0, 1, 0, 0, 1]

    def test_rle_column_groups_runs(self):
        column = encode_column([7, 7, 7, None, None, 8], "rle")
        assert isinstance(column, RLEColumn)
        assert column.runs == [(7, 3), (None, 2), (8, 1)]

    def test_unhashable_values_fall_back_to_plain(self):
        values = [[1], [2]] * 10
        assert choose_encoding(values) == "plain"
        assert isinstance(encode_column(values, "dict"), PlainColumn)

    def test_choose_encoding_heuristics(self):
        # clustered: few runs relative to rows -> RLE
        assert choose_encoding([1] * 20 + [2] * 20) == "rle"
        # low NDV but unclustered -> dictionary
        assert choose_encoding([0, 1] * 20) == "dict"
        # high NDV -> plain
        assert choose_encoding(list(range(64))) == "plain"
        # tiny slices are never worth the indirection
        assert choose_encoding([1] * 15) == "plain"


class TestZoneComputation:
    def test_min_max_and_null_count(self):
        zone = compute_zone([3, None, 1, 9, None])
        assert (zone.min, zone.max) == (1, 9)
        assert zone.null_count == 2 and zone.nrows == 5

    def test_all_null_slice(self):
        zone = compute_zone([None, None])
        assert zone.min is None and zone.max is None
        assert zone.null_count == 2

    def test_incomparable_values_keep_exact_null_count(self):
        zone = compute_zone([1, "a", None, 2])
        assert zone.min is None and zone.max is None
        assert zone.null_count == 1 and zone.nrows == 4


# -- the store ------------------------------------------------------------------

class TestColumnStore:
    def build(self, nrows=10, chunk_rows=4) -> ColumnStore:
        store = ColumnStore(2, chunk_rows=chunk_rows)
        for i in range(nrows):
            store.append((i, i % 3))
        return store

    def test_append_seals_full_chunks(self):
        store = self.build(10, chunk_rows=4)
        assert len(store) == 10
        assert [chunk.nrows for chunk in store.chunks] == [4, 4]
        assert [unit.nrows for unit in store.scan_units()] == [4, 4, 2]

    def test_row_addressing_across_chunks_and_tail(self):
        store = self.build(10, chunk_rows=4)
        for i in range(10):
            assert store.row(i) == (i, i % 3)
        with pytest.raises(IndexError):
            store.row(10)
        assert list(store.iter_rows()) == [(i, i % 3) for i in range(10)]
        assert store.columns() == [list(range(10)),
                                   [i % 3 for i in range(10)]]

    def test_force_encodings_round_trips(self):
        store = self.build(10, chunk_rows=4)
        store.force_encodings(["rle", "dict"])
        assert all(chunk.encodings == ("plain", "dict")
                   or chunk.encodings == ("rle", "dict")
                   for chunk in store.chunks)
        assert list(store.iter_rows()) == [(i, i % 3) for i in range(10)]

    def test_force_encodings_validates(self):
        store = self.build(4, chunk_rows=4)
        with pytest.raises(ValueError):
            store.force_encodings(["plain"])       # wrong arity
        with pytest.raises(ValueError):
            store.force_encodings(["plain", "lz4"])  # unknown kind

    def test_clone_shares_sealed_chunks_and_copies_tail(self):
        store = self.build(10, chunk_rows=4)
        clone = store.clone()
        assert all(a is b for a, b in zip(store.chunks, clone.chunks))
        clone.append((99, 0))
        assert len(store) == 10 and len(clone) == 11
        assert store.row(9) == (9, 0)
        assert clone.row(10) == (99, 0)

    def test_zone_maps_cover_tail(self):
        store = self.build(10, chunk_rows=4)
        tail_unit = store.scan_units()[-1]
        assert (tail_unit.zones[0].min, tail_unit.zones[0].max) == (8, 9)


# -- the row façade -------------------------------------------------------------

class TestRowView:
    def table(self) -> StoredTable:
        db = Database(chunk_rows=4)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i * 10) for i in range(10)])
        return db.storage.get("t")

    def test_sequence_protocol(self):
        rows = self.table().rows
        assert isinstance(rows, RowView)
        assert len(rows) == 10
        assert rows[0] == (0, 0)
        assert rows[-1] == (9, 90)
        assert rows[3:6] == [(3, 30), (4, 40), (5, 50)]
        assert list(rows) == [(i, i * 10) for i in range(10)]
        with pytest.raises(IndexError):
            rows[10]

    def test_equality_against_lists_and_tuples(self):
        rows = self.table().rows
        expected = [(i, i * 10) for i in range(10)]
        assert rows == expected
        assert rows == tuple(expected)
        assert not (rows == expected[:-1])
        assert rows != expected[:-1]


# -- per-chunk cache invalidation -----------------------------------------------

class TestPerChunkCaches:
    """Writes must invalidate only the tail: sealed chunks keep their
    decoded-column and row-pivot caches across copy-on-write installs,
    so a write-heavy interleaving never re-pivots cold data."""

    def make_db(self) -> Database:
        db = Database(chunk_rows=4)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i % 3) for i in range(8)])
        return db

    def test_sealed_chunk_caches_survive_writes(self):
        db = self.make_db()
        # Warm the per-chunk caches: the columns through a scan, the
        # row pivot through the naive interpreter.
        db.execute("select t.a, t.b from t", FULL)
        db.execute("select t.a, t.b from t", NAIVE)
        before = db.storage.get("t")._store
        warmed_chunks = list(before.chunks)
        warmed_pivots = [chunk.rows() for chunk in warmed_chunks]
        warmed_columns = [chunk.column(0) for chunk in warmed_chunks]

        # Write-heavy interleaving: every insert installs a new version.
        for i in range(8, 20):
            db.insert("t", [(i, i % 3)])
            rows = db.execute("select t.a from t order by 1", FULL).rows
            assert rows == [(j,) for j in range(i + 1)]

        after = db.storage.get("t")._store
        # The original sealed chunks are the very same objects...
        assert after.chunks[:len(warmed_chunks)] == warmed_chunks
        # ...and their caches were never dropped: identical list objects.
        for chunk, pivot, column in zip(after.chunks, warmed_pivots,
                                        warmed_columns):
            assert chunk.rows() is pivot
            assert chunk.column(0) is column

    def test_new_chunks_sealed_from_interleaved_tail(self):
        db = self.make_db()
        for i in range(8, 20):
            db.insert("t", [(i, i % 3)])
        store = db.storage.get("t")._store
        assert [chunk.nrows for chunk in store.chunks] == [4] * 5
        assert list(store.iter_rows()) == [(i, i % 3) for i in range(20)]

    @pytest.mark.parametrize("nrows", [8, 80])
    def test_gather_reads_columns_by_position(self, nrows):
        # Position 6 is in the tail over 8 rows and sealed over 80.
        store = ColumnStore(2, chunk_rows=3)
        for i in range(nrows):
            store.append((i, i * 10))
        # Sealed chunks and the tail, any order, repeats allowed.
        positions = [nrows - 1, 0, 4, 4, 2, 6]
        assert store.gather(positions, [1, 0]) == [
            [p * 10 for p in positions], positions]
        assert store.gather([], [0]) == [[]]
        with pytest.raises(IndexError):
            store.gather([nrows] * 6, [0])


# -- decode fault site ----------------------------------------------------------

class TestDecodeFaults:
    """``columnar.decode`` fires on the first touch of a sealed chunk's
    column; recovery falls back across engines with correct rows."""

    SQL = "select t.b, count(*) from t group by t.b"

    def fresh(self) -> Database:
        db = Database(chunk_rows=8)
        db.create_table("t", [("a", DataType.INTEGER, False),
                              ("b", DataType.INTEGER, True)],
                        primary_key=("a",))
        db.insert("t", [(i, i % 5) for i in range(40)])
        return db

    def test_one_shot_decode_fault_recovers(self):
        expected = Counter(self.fresh().execute(self.SQL, NAIVE).rows)
        db = self.fresh()  # cold caches: the reference must not warm them
        with fail_at("columnar.decode", n=1) as (trigger,):
            result = db.execute(self.SQL, FULL)
        assert trigger.fired
        assert not is_active()
        assert Counter(result.rows) == expected

    def test_persistent_decode_fault_surfaces(self):
        from repro import InjectedFault
        db = self.fresh()
        with fail_always("columnar.decode"):
            with pytest.raises(InjectedFault):
                db.execute(self.SQL, FULL)
