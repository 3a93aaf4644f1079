"""Tests for the persistent store backends (WAL + snapshot)."""

import gc
import json
import tempfile
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import FileStore, MemoryStore, VisitorDB


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "visitors")


class TestStoreContract:
    def test_empty_replay(self, store):
        assert list(store.replay()) == []
        assert len(list(store.replay())) == 0

    def test_append_and_replay_order(self, store):
        store.append("leaf", {"oid": "a"})
        store.append("remove", {"oid": "a"})
        store.append("leaf", {"oid": "b"})
        assert list(store.replay()) == [
            ("leaf", {"oid": "a"}),
            ("remove", {"oid": "a"}),
            ("leaf", {"oid": "b"}),
        ]
        assert len(list(store.replay())) == 3

    def test_compact_replaces_history(self, store):
        for i in range(10):
            store.append("leaf", {"oid": f"o{i}"})
        store.compact([("leaf", {"oid": "survivor"})])
        assert list(store.replay()) == [("leaf", {"oid": "survivor"})]
        assert len(list(store.replay())) == 1

    def test_appends_after_compact(self, store):
        store.compact([("leaf", {"oid": "base"})])
        store.append("forward", {"oid": "x", "ref": "child-1"})
        assert list(store.replay()) == [
            ("leaf", {"oid": "base"}),
            ("forward", {"oid": "x", "ref": "child-1"}),
        ]

    def test_replayed_payloads_are_copies(self, store):
        store.compact([("leaf", {"oid": "a"})])
        appended = {"oid": "b"}
        store.append("leaf", appended)
        appended["oid"] = "caller-edit"
        for _, payload in store.replay():
            payload["oid"] = "replay-edit"
        assert list(store.replay()) == [("leaf", {"oid": "a"}), ("leaf", {"oid": "b"})]

    @pytest.mark.parametrize(
        "value", [object(), np.float32(1.5), b"raw"], ids=["object", "numpy-float32", "bytes"]
    )
    def test_unstorable_value_refused(self, store, value):
        store.append("leaf", {"oid": "a"})
        with pytest.raises(TypeError):
            store.append("leaf", {"oid": "b", "acc": value})
        with pytest.raises(TypeError):
            store.compact([("leaf", {"oid": "c", "acc": value})])
        assert list(store.replay()) == [("leaf", {"oid": "a"})]
        assert len(list(store.replay())) == 1

    def test_float_subclass_stored_as_float(self, store):
        # JSON's rules on both stores: numpy's float64 is a float and
        # comes back as a plain one.
        store.append("acc", {"oid": "a", "acc": np.float64(2.5)})
        store.compact([*store.replay(), ("acc", {"oid": "b", "acc": np.float64(0.5)})])
        replayed = list(store.replay())
        assert replayed == [("acc", {"oid": "a", "acc": 2.5}), ("acc", {"oid": "b", "acc": 0.5})]
        assert {type(payload["acc"]) for _, payload in replayed} == {float}


class TestMemoryStore:
    def test_append_during_replay(self):
        # Replay reads the records present when it began; the store keeps
        # taking appends meanwhile, as recovery's own writes may.
        store = MemoryStore()
        store.append("leaf", {"oid": "a"})
        store.append("leaf", {"oid": "b"})
        seen = []
        for _operation, payload in islice(store.replay(), 10):
            seen.append(payload["oid"])
            store.append("remove", payload)
        assert seen == ["a", "b"]
        assert len(list(store.replay())) == 4

    def test_record_costs_bytes_not_objects(self):
        # The five keys VisitorDB.insert_leaf writes, 10k records: the log
        # holds them as bytes, with no object per record for the GC.
        payloads = [
            {"oid": f"obj-{i}", "acc": 25.0 + i % 7, "registrar": "client-1",
             "des_acc": 10.0, "min_acc": 100.0}
            for i in range(10_000)
        ]
        store = MemoryStore()
        gc.collect()
        objects_before = len(gc.get_objects())
        tracemalloc.start()
        try:
            for payload in payloads:
                store.append("leaf", payload)
            grown, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gc.collect()
        assert len(gc.get_objects()) - objects_before < 100
        assert grown <= 128 * len(payloads)
        assert len(list(store.replay())) == len(payloads)


_OIDS = st.sampled_from(["o1", "o2", "o3", "o4"])
_VALUES = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(allow_nan=False, allow_infinity=False)
)
_ACCS = st.one_of(st.integers(0, 10_000), st.floats(0.0, 1e4))
#: keys beside a visitor record's own (recovery reads only its own).
_EXTRAS = st.dictionaries(st.text(min_size=1, max_size=6).map("x-".__add__), _VALUES, max_size=2)


def _with_extras(operation, payload):
    return st.tuples(st.just(operation), _EXTRAS.map(lambda extra: {**extra, **payload}))


_RECORDS = st.one_of(
    st.tuples(_OIDS, st.text(max_size=6)).flatmap(
        lambda t: _with_extras("forward", {"oid": t[0], "ref": t[1]})
    ),
    st.tuples(_OIDS, _ACCS, st.text(max_size=6), _ACCS, _ACCS).flatmap(
        lambda t: _with_extras(
            "leaf",
            {"oid": t[0], "acc": t[1], "registrar": t[2], "des_acc": t[3],
             "min_acc": t[3] + t[4]},
        )
    ),
    st.tuples(_OIDS, _ACCS).flatmap(lambda t: _with_extras("acc", {"oid": t[0], "acc": t[1]})),
    _OIDS.flatmap(lambda oid: _with_extras("remove", {"oid": oid})),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _RECORDS),
        st.tuples(st.just("compact"), st.lists(_RECORDS, max_size=4)),
        st.tuples(st.just("replay"), st.none()),
        st.tuples(st.just("unstorable"), st.none()),
    ),
    max_size=25,
)


class TestOneContract:
    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS)
    def test_stores_agree_with_a_list(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            stores = [MemoryStore(), FileStore(Path(tmp) / "visitors")]
            model: list = []
            for kind, arg in steps:
                if kind == "append":
                    model.append(arg)
                    for store in stores:
                        store.append(*arg)
                elif kind == "compact":
                    model = list(arg)
                    for store in stores:
                        store.compact(arg)
                elif kind == "unstorable":
                    for store in stores:
                        with pytest.raises(TypeError):
                            store.append("leaf", {"oid": "o1", "acc": object()})
                for store in stores:
                    if kind == "replay":
                        assert list(store.replay()) == model
                    assert len(list(store.replay())) == len(model)
            assert [list(store.replay()) for store in stores] == [model, model]
            memory_db, file_db = (VisitorDB.recover(store) for store in stores)
            assert dict(memory_db.items()) == dict(file_db.items())
            assert memory_db.max_offered_acc == file_db.max_offered_acc


class TestFileStore:
    def test_survives_reopen(self, tmp_path):
        stem = tmp_path / "visitors"
        first = FileStore(stem)
        first.append("leaf", {"oid": "a", "acc": 25.0})
        reopened = FileStore(stem)
        assert list(reopened.replay()) == [("leaf", {"oid": "a", "acc": 25.0})]

    def test_torn_final_line_tolerated(self, tmp_path):
        stem = tmp_path / "visitors"
        store = FileStore(stem)
        store.append("leaf", {"oid": "a"})
        # Simulate a crash mid-append: a torn, incomplete final record
        # is skipped with a warning, never treated as corruption.
        with open(tmp_path / "visitors.log", "a", encoding="utf-8") as f:
            f.write('{"op": "leaf", "data": {"oid": "b"')
        with pytest.warns(RuntimeWarning, match="torn trailing record"):
            records = list(FileStore(stem).replay())
        assert records == [("leaf", {"oid": "a"})]

    def test_appends_continue_after_torn_recovery(self, tmp_path):
        # The WAL keeps working after a crash truncated its tail: the
        # torn record is skipped on replay, new appends land after it.
        stem = tmp_path / "visitors"
        store = FileStore(stem)
        store.append("leaf", {"oid": "a"})
        with open(tmp_path / "visitors.log", "a", encoding="utf-8") as f:
            f.write('{"op": "leaf", "data": {"oid": "b"')
        with pytest.warns(RuntimeWarning):
            list(FileStore(stem).replay())
        reopened = FileStore(stem)
        reopened.compact([("leaf", {"oid": "a"})])
        reopened.append("leaf", {"oid": "c"})
        assert list(reopened.replay()) == [
            ("leaf", {"oid": "a"}),
            ("leaf", {"oid": "c"}),
        ]

    def test_torn_snapshot_is_corruption(self, tmp_path):
        # Snapshots are written atomically (tmp + rename), so a torn
        # line there can never be an interrupted append — fail loudly.
        stem = tmp_path / "visitors"
        store = FileStore(stem)
        store.compact([("leaf", {"oid": "a"})])
        with open(tmp_path / "visitors.snapshot", "a", encoding="utf-8") as f:
            f.write('{"op": "leaf", "data": {"oid": "b"')
        with pytest.raises(StorageError):
            list(FileStore(stem).replay())

    def test_compact_leaves_no_temp_files(self, tmp_path):
        stem = tmp_path / "visitors"
        store = FileStore(stem, durable=True)
        store.append("leaf", {"oid": "a"})
        store.compact([("leaf", {"oid": "a"})])
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == ["visitors.snapshot"]

    def test_midfile_corruption_raises(self, tmp_path):
        stem = tmp_path / "visitors"
        store = FileStore(stem)
        store.append("leaf", {"oid": "a"})
        log = tmp_path / "visitors.log"
        content = log.read_text()
        log.write_text("GARBAGE\n" + content)
        with pytest.raises(StorageError):
            list(FileStore(stem).replay())

    def test_snapshot_is_atomic_format(self, tmp_path):
        stem = tmp_path / "visitors"
        store = FileStore(stem)
        store.append("leaf", {"oid": "a"})
        store.compact([("leaf", {"oid": "a"})])
        snapshot = tmp_path / "visitors.snapshot"
        assert snapshot.exists()
        assert not (tmp_path / "visitors.log").exists()
        record = json.loads(snapshot.read_text().strip())
        assert record == {"op": "leaf", "data": {"oid": "a"}}

    def test_durable_mode_appends(self, tmp_path):
        store = FileStore(tmp_path / "wal", durable=True)
        store.append("leaf", {"oid": "a"})
        assert len(list(store.replay())) == 1

    def test_creates_parent_directories(self, tmp_path):
        store = FileStore(tmp_path / "deep" / "nested" / "visitors")
        store.append("leaf", {"oid": "a"})
        assert len(list(store.replay())) == 1
