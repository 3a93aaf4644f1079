"""Tests for the visitor database and its durable recovery."""

import pytest

from repro.model import RegistrationInfo
from repro.storage import (
    FileStore,
    LeafVisitorRecord,
    MemoryStore,
    NonLeafVisitorRecord,
    VisitorDB,
)
from repro.storage import visitor_db

REG = RegistrationInfo("client-1", des_acc=10.0, min_acc=100.0)


class TestVisitorDB:
    def test_insert_forward(self):
        db = VisitorDB()
        db.insert_forward("obj", "child-3")
        record = db.get("obj")
        assert isinstance(record, NonLeafVisitorRecord)
        assert record.forward_ref == "child-3"
        assert db.forward_ref("obj") == "child-3"
        assert db.leaf_record("obj") is None

    def test_insert_leaf(self):
        db = VisitorDB()
        db.insert_leaf("obj", 25.0, REG)
        record = db.leaf_record("obj")
        assert isinstance(record, LeafVisitorRecord)
        assert record.offered_acc == 25.0
        assert record.reg_info == REG
        assert db.forward_ref("obj") is None

    def test_redirect_forward(self):
        db = VisitorDB()
        db.insert_forward("obj", "child-1")
        db.insert_forward("obj", "child-2")
        assert db.forward_ref("obj") == "child-2"
        assert len(db) == 1

    def test_set_offered_acc(self):
        db = VisitorDB()
        db.insert_leaf("obj", 25.0, REG)
        db.set_offered_acc("obj", 40.0)
        assert db.leaf_record("obj").offered_acc == 40.0

    def test_set_offered_acc_on_forward_raises(self):
        db = VisitorDB()
        db.insert_forward("obj", "child-1")
        with pytest.raises(KeyError):
            db.set_offered_acc("obj", 40.0)

    def test_remove(self):
        db = VisitorDB()
        db.insert_leaf("obj", 25.0, REG)
        db.remove("obj")
        assert "obj" not in db
        assert db.get("obj") is None

    def test_remove_unknown_is_noop(self):
        VisitorDB().remove("ghost")

    def test_iteration(self):
        db = VisitorDB()
        db.insert_forward("a", "c1")
        db.insert_leaf("b", 10.0, REG)
        assert set(db.object_ids()) == {"a", "b"}
        assert dict(db.items()).keys() == {"a", "b"}


class TestRecovery:
    def test_recover_from_memory_store(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        db.insert_leaf("stay", 25.0, REG)
        db.insert_forward("fwd", "child-1")
        db.insert_leaf("gone", 30.0, REG)
        db.remove("gone")
        db.set_offered_acc("stay", 50.0)

        recovered = VisitorDB.recover(store)
        assert set(recovered.object_ids()) == {"stay", "fwd"}
        assert recovered.leaf_record("stay").offered_acc == 50.0
        assert recovered.leaf_record("stay").reg_info == REG
        assert recovered.forward_ref("fwd") == "child-1"

    def test_recover_from_file_store(self, tmp_path):
        stem = tmp_path / "visitors"
        db = VisitorDB(store=FileStore(stem))
        db.insert_leaf("a", 25.0, REG)
        db.insert_forward("b", "child-9")
        # A new process opens the same files.
        recovered = VisitorDB.recover(FileStore(stem))
        assert recovered.leaf_record("a").offered_acc == 25.0
        assert recovered.forward_ref("b") == "child-9"

    def test_recover_after_compaction(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        for i in range(20):
            db.insert_forward(f"o{i}", f"child-{i % 3}")
        for i in range(10):
            db.remove(f"o{i}")
        db.compact()
        assert len(list(store.replay())) == 10
        recovered = VisitorDB.recover(store)
        assert set(recovered.object_ids()) == {f"o{i}" for i in range(10, 20)}

    def test_compaction_preserves_leaf_records(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        db.insert_leaf("obj", 33.0, REG)
        db.compact()
        recovered = VisitorDB.recover(store)
        record = recovered.leaf_record("obj")
        assert record.offered_acc == 33.0
        assert record.reg_info.registrar == "client-1"

    def test_recovery_mirrors_live_state_random_ops(self):
        import random

        rng = random.Random(7)
        store = MemoryStore()
        db = VisitorDB(store=store)
        for step in range(300):
            oid = f"o{rng.randint(0, 30)}"
            action = rng.random()
            if action < 0.4:
                db.insert_forward(oid, f"child-{rng.randint(0, 4)}")
            elif action < 0.7:
                db.insert_leaf(oid, float(rng.randint(5, 100)), REG)
            elif action < 0.9:
                db.remove(oid)
            elif db.leaf_record(oid) is not None:
                db.set_offered_acc(oid, float(rng.randint(5, 100)))
        recovered = VisitorDB.recover(store)
        assert dict(recovered.items()) == dict(db.items())


class TestRemoveMany:
    def test_removes_known_ids_and_tombstones_them(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        db.insert_leaf("a", 25.0, REG)
        db.insert_forward("b", "child-1")
        db.insert_leaf("c", 25.0, REG)
        db.remove_many(["a", "ghost", "b"])
        assert list(db.object_ids()) == ["c"]
        assert db.was_removed("a") and db.was_removed("b")
        assert not db.was_removed("ghost")  # unknown: skipped, nothing logged
        assert len(list(store.replay())) == 5


class TestLogBound:
    """The DB compacts its own store: the records replay would yield
    never exceed twice the live records plus ``LOG_SLACK``."""

    @pytest.fixture(autouse=True)
    def small_slack(self, monkeypatch):
        monkeypatch.setattr(visitor_db, "LOG_SLACK", 8)

    @pytest.mark.parametrize("kind", ["memory", "file"])
    def test_bound_holds_after_every_mutation(self, kind, tmp_path):
        import random

        rng = random.Random(5)
        store = MemoryStore() if kind == "memory" else FileStore(tmp_path / "visitors")
        db = VisitorDB(store=store)
        for step in range(300):
            oid = f"o{rng.randint(0, 12)}"
            action = rng.random()
            if action < 0.4:
                db.insert_forward(oid, f"child-{rng.randint(0, 3)}")
            elif action < 0.7:
                db.insert_leaf(oid, float(rng.randint(5, 100)), REG)
            elif action < 0.8 and db.leaf_record(oid) is not None:
                db.set_offered_acc(oid, float(rng.randint(5, 100)))
            else:
                db.remove_many(f"o{rng.randint(0, 12)}" for _ in range(3))
            assert db._logged == len(list(store.replay())) <= 2 * len(db) + 8
        assert db.compactions > 0
        assert dict(VisitorDB.recover(store).items()) == dict(db.items())

    def test_mass_removal_stays_bounded(self):
        # A count of appends since the last compaction, checked against
        # the live count alone, would leave 90 records here.
        store = MemoryStore()
        db = VisitorDB(store=store)
        for i in range(100):
            db.insert_leaf(f"o{i}", 25.0, REG)
        for _ in range(109):
            db.insert_leaf("o0", 25.0, REG)
        assert db.compactions == 1 and len(list(store.replay())) == 100
        db.remove_many(f"o{i}" for i in range(100))
        assert len(db) == 0 and len(list(store.replay())) <= 8

    def test_recover_counts_the_replayed_records(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        db.insert_leaf("a", 25.0, REG)
        for i in range(11):
            db.insert_forward("b", f"child-{i}")
        assert db.compactions == 0
        recovered = VisitorDB.recover(store)
        assert recovered._logged == len(list(store.replay())) == 12
        assert recovered.compactions == 0 and len(recovered) == 2
        recovered.insert_forward("b", "child-11")  # 13 > 2 * 2 + 8: compacts
        assert recovered.compactions == 1 and len(list(store.replay())) == 2
        assert dict(VisitorDB.recover(store).items()) == dict(recovered.items())


class TestMaxOfferedAcc:
    """The high-water mark range scans are bounded by: never below the
    coarsest live leaf record, exact again after recover() / compact()."""

    def test_raised_by_leaf_inserts_only(self):
        db = VisitorDB()
        assert db.max_offered_acc == 0.0
        db.insert_forward("fwd", "child-1")
        assert db.max_offered_acc == 0.0
        db.insert_leaf("a", 25.0, REG)
        db.insert_leaf("b", 60.0, REG)
        db.insert_leaf("c", 40.0, REG)
        assert db.max_offered_acc == 60.0

    def test_set_offered_acc_up_and_down(self):
        db = VisitorDB()
        db.insert_leaf("a", 25.0, REG)
        db.set_offered_acc("a", 90.0)
        assert db.max_offered_acc == 90.0
        db.set_offered_acc("a", 10.0)
        assert db.max_offered_acc == 90.0  # loose, never wrong

    def test_remove_keeps_the_mark_and_compact_retightens_it(self):
        db = VisitorDB()
        db.insert_leaf("small", 25.0, REG)
        db.insert_leaf("whale", 500.0, REG)
        db.remove("whale")
        assert db.max_offered_acc == 500.0
        db.compact()
        assert db.max_offered_acc == 25.0
        db.remove("small")
        db.compact()
        assert db.max_offered_acc == 0.0

    def test_recover_rebuilds_it_from_the_log(self):
        store = MemoryStore()
        db = VisitorDB(store=store)
        db.insert_leaf("a", 25.0, REG)
        db.insert_leaf("whale", 500.0, REG)
        db.insert_leaf("b", 30.0, REG)
        db.set_offered_acc("b", 70.0)
        db.remove("whale")
        db.insert_forward("fwd", "child-1")
        assert VisitorDB.recover(store).max_offered_acc == 70.0
        db.compact()
        assert VisitorDB.recover(store).max_offered_acc == 70.0

    def test_never_below_a_live_record_under_random_ops(self):
        import random

        rng = random.Random(11)
        store = MemoryStore()
        db = VisitorDB(store=store)
        for step in range(400):
            oid = f"o{rng.randint(0, 20)}"
            action = rng.random()
            if action < 0.5:
                db.insert_leaf(oid, float(rng.randint(5, 100)), REG)
            elif action < 0.8:
                db.remove(oid)
            elif action < 0.95:
                if db.leaf_record(oid) is not None:
                    db.set_offered_acc(oid, float(rng.randint(5, 100)))
            else:
                db.compact()
            coarsest = max((r.offered_acc for r in db.leaf_records()), default=0.0)
            assert db.max_offered_acc >= coarsest
        assert VisitorDB.recover(store).max_offered_acc == max(
            (r.offered_acc for r in db.leaf_records()), default=0.0
        )
